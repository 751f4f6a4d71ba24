#pragma once
// The trainer's learning-rate schedule (§4.3): StepLR. COMPSO keys its
// iteration-wise adaptive compression off the schedule — the first LR
// drop switches from aggressive to conservative bounds
// (core::AdaptiveSchedule).

#include <cstddef>
#include <vector>

namespace compso::optim {

/// StepLR: the base LR, multiplied by kDecay at each milestone iteration.
class StepLr {
 public:
  static constexpr double kDecay = 0.1;

  StepLr(double base_lr, std::vector<std::size_t> milestones);
  /// Learning rate at iteration t.
  double lr(std::size_t t) const noexcept;
  /// First iteration at which the LR decreases (SIZE_MAX if never).
  std::size_t first_drop() const noexcept;

 private:
  double base_;
  std::vector<std::size_t> milestones_;
};

}  // namespace compso::optim
