#pragma once
// Automatic error-bound tuning (paper §7 future work item 1: "precisely
// optimizing filter thresholds and quantization error bounds, moving
// beyond empirical settings").
//
// Given a sample of real gradient data and a distortion budget, the tuner
// binary-searches the loosest bounds whose reconstruction stays within
// budget, maximizing compression ratio subject to the quality constraint.
// Distortion is measured as relative L2 error plus cosine distortion of
// the gradient direction — the quantity that governs an optimizer step's
// usefulness.

#include "src/compress/compressor.hpp"

#include <span>

namespace compso::core {

/// The distortion budget the tuner searches under.
struct BoundTunerConfig {
  /// Maximum allowed relative L2 reconstruction error ||g - g'|| / ||g||.
  double max_relative_l2 = 0.05;
  /// Maximum allowed cosine distortion 1 - cos(g, g').
  double max_cosine_distortion = 0.005;
};

/// The search range of the coupled (relative) bound.
inline constexpr double kMinTunedBound = 1e-5;
inline constexpr double kMaxTunedBound = 1e-1;

struct TunedBounds {
  double filter_bound = 0.0;
  double quant_bound = 0.0;
  double achieved_relative_l2 = 0.0;
  double achieved_cosine_distortion = 0.0;
  double achieved_compression_ratio = 1.0;
};

/// Measured distortion of one compress/decompress round.
struct Distortion {
  double relative_l2 = 0.0;
  double cosine_distortion = 0.0;
};
Distortion measure_distortion(std::span<const float> original,
                              std::span<const float> reconstructed);

/// Binary-searches [kMinTunedBound, kMaxTunedBound] in log space for the
/// loosest coupled bound (eb_f == eb_q, as the paper couples them in the
/// aggressive stage) whose COMPSO round trip of the sample, ANS-encoded,
/// satisfies the budget. When even kMinTunedBound violates it, returns
/// that bound with its achieved numbers. Deterministic given the Rng;
/// throws std::invalid_argument on an empty sample.
TunedBounds tune_bounds(std::span<const float> sample,
                        const BoundTunerConfig& config, tensor::Rng& rng);

}  // namespace compso::core
