#include "src/core/adaptive_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace compso::core {

AdaptiveSchedule AdaptiveSchedule::step_lr(std::size_t first_drop) noexcept {
  AdaptiveSchedule s;
  s.first_drop_ = first_drop;
  return s;
}

AdaptiveSchedule AdaptiveSchedule::smooth_lr(std::size_t total_iterations,
                                             double decay) {
  if (total_iterations == 0) {
    throw std::invalid_argument("AdaptiveSchedule: need iterations");
  }
  AdaptiveSchedule s;
  s.smooth_ = true;
  s.stage_length_ = (total_iterations + kStages - 1) / kStages;
  s.decay_ = decay;
  return s;
}

CompressionStage AdaptiveSchedule::at(std::size_t t) const noexcept {
  CompressionStage s;
  if (!smooth_) {
    // Algorithm 1, StepLR branch.
    if (t < first_drop_) {
      s.filter_bound = kLooseBound;
      s.quant_bound = kLooseBound;
      s.use_filter = true;
      s.stage_index = 0;
    } else {
      // Conservative: SR only, tighter bound.
      s.filter_bound = 0.0;
      s.quant_bound = kTightQuantBound;
      s.use_filter = false;
      s.stage_index = 1;
    }
    return s;
  }
  // Algorithm 1, SmoothLR branch.
  const std::size_t stage = std::min(t / stage_length_, kStages - 1);
  s.stage_index = stage;
  const double scale = std::pow(decay_, static_cast<double>(stage));
  s.filter_bound = kLooseBound * scale;
  s.quant_bound = kLooseBound * scale;
  s.use_filter = stage == 0;
  return s;
}

compress::CompsoParams AdaptiveSchedule::params_at(
    std::size_t t, codec::CodecKind encoder) const noexcept {
  const CompressionStage s = at(t);
  compress::CompsoParams p;
  p.filter_bound = s.filter_bound;
  p.quant_bound = s.quant_bound;
  p.use_filter = s.use_filter;
  p.encoder = encoder;
  return p;
}

}  // namespace compso::core
