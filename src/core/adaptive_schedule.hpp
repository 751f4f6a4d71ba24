#pragma once
// Iteration-wise adaptive compression (paper §4.3, Algorithm 1).
//
// The error bounds follow the learning-rate schedule, whose mode the
// caller names:
//  - StepLR: aggressive (filter + SR, loose bounds) before the first LR
//    drop, conservative (SR only, tight bounds) after it.
//  - SmoothLR: training is split into kStages stages; stage 0 is
//    aggressive, each subsequent stage decays both bounds by alpha.

#include "src/compress/compressor.hpp"

#include <cstddef>

namespace compso::core {

/// The compression strategy for one iteration.
struct CompressionStage {
  double filter_bound = 0.0;
  double quant_bound = 0.0;
  bool use_filter = true;
  std::size_t stage_index = 0;

  bool aggressive() const noexcept { return use_filter; }
};

class AdaptiveSchedule {
 public:
  /// Algorithm 1's eb_f = eb_q in the aggressive stage.
  static constexpr double kLooseBound = 4e-3;
  /// Algorithm 1's conservative eb_q (StepLR mode).
  static constexpr double kTightQuantBound = 2e-3;
  /// Algorithm 1's z (SmoothLR mode).
  static constexpr std::size_t kStages = 4;

  /// StepLR mode: aggressive before `first_drop` (the iteration of the
  /// first LR drop; SIZE_MAX when the LR never drops), conservative from
  /// it on.
  static AdaptiveSchedule step_lr(std::size_t first_drop) noexcept;
  /// SmoothLR mode: `total_iterations` split into kStages stages, stage k
  /// at decay^k times the loose bounds. Throws std::invalid_argument when
  /// total_iterations is 0.
  static AdaptiveSchedule smooth_lr(std::size_t total_iterations,
                                    double decay);

  /// Strategy at iteration t.
  CompressionStage at(std::size_t t) const noexcept;

  /// Convenience: COMPSO compressor parameters for iteration t.
  compress::CompsoParams params_at(
      std::size_t t,
      codec::CodecKind encoder = codec::CodecKind::kAns) const noexcept;

  /// Iterations per SmoothLR stage (0 in StepLR mode).
  std::size_t stage_length() const noexcept { return stage_length_; }

 private:
  AdaptiveSchedule() = default;

  bool smooth_ = false;
  std::size_t first_drop_ = 0;    ///< StepLR mode.
  std::size_t stage_length_ = 0;  ///< SmoothLR mode.
  double decay_ = 0.0;            ///< SmoothLR mode: alpha.
};

}  // namespace compso::core
