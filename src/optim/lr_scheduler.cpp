#include "src/optim/lr_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace compso::optim {

StepLr::StepLr(double base_lr, std::vector<std::size_t> milestones)
    : base_(base_lr), milestones_(std::move(milestones)) {
  if (base_lr <= 0.0) {
    throw std::invalid_argument("StepLr: need base_lr > 0");
  }
  std::sort(milestones_.begin(), milestones_.end());
}

double StepLr::lr(std::size_t t) const noexcept {
  double v = base_;
  for (std::size_t m : milestones_) {
    if (t >= m) v *= kDecay;
  }
  return v;
}

std::size_t StepLr::first_drop() const noexcept {
  return milestones_.empty() ? std::numeric_limits<std::size_t>::max()
                             : milestones_.front();
}

}  // namespace compso::optim
