#pragma once
// Synthetic gradient-data generators.
//
// Comm / compression-ratio experiments do not need semantically meaningful
// gradients — they need value distributions with the properties §3 and §4.2
// of the paper report for KFAC gradients: concentrated near zero, heavier
// tails and a *wider dynamic range* than SGD gradients. The generators here
// reproduce those shapes deterministically from a seed.

#include "src/tensor/rng.hpp"

#include <cstddef>
#include <vector>

namespace compso::tensor {

/// Parameters of the synthetic gradient mixture:
/// a fraction `near_zero_fraction` of values is drawn from a tight Laplace
/// around zero (the mass the COMPSO filter removes), the rest from a wider
/// Laplace; a small `outlier_fraction` gets an extra range multiplier
/// (KFAC's wide dynamic range, §3 reason 1).
struct GradientProfile {
  float near_zero_fraction = 0.60F;
  float near_zero_scale = 5e-4F;
  float body_scale = 8e-3F;
  float outlier_fraction = 0.002F;
  float outlier_multiplier = 25.0F;

  /// SGD-gradient-like profile: narrower range, less mass at zero.
  static GradientProfile sgd() {
    return {.near_zero_fraction = 0.35F,
            .near_zero_scale = 1e-3F,
            .body_scale = 4e-3F,
            .outlier_fraction = 0.0005F,
            .outlier_multiplier = 6.0F};
  }
  /// KFAC-gradient-like profile (default).
  static GradientProfile kfac() { return {}; }
};

/// Generates `n` gradient values with the given profile.
std::vector<float> synthetic_gradient(std::size_t n, const GradientProfile& p,
                                      Rng& rng);

}  // namespace compso::tensor
