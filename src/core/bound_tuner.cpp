#include "src/core/bound_tuner.hpp"

#include <cmath>
#include <stdexcept>

namespace compso::core {
namespace {

/// Binary-search iterations: the bound is resolved to about
/// kMaxTunedBound / kMinTunedBound / 2^kSearchSteps in log space.
constexpr std::size_t kSearchSteps = 12;

}  // namespace

Distortion measure_distortion(std::span<const float> original,
                              std::span<const float> reconstructed) {
  if (original.size() != reconstructed.size()) {
    throw std::invalid_argument("measure_distortion: size mismatch");
  }
  Distortion d;
  double dot = 0.0, n1 = 0.0, n2 = 0.0, err = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double a = original[i];
    const double b = reconstructed[i];
    dot += a * b;
    n1 += a * a;
    n2 += b * b;
    err += (a - b) * (a - b);
  }
  if (n1 <= 0.0) return d;
  d.relative_l2 = std::sqrt(err / n1);
  d.cosine_distortion =
      n2 > 0.0 ? 1.0 - dot / std::sqrt(n1 * n2) : 1.0;
  return d;
}

TunedBounds tune_bounds(std::span<const float> sample,
                        const BoundTunerConfig& config, tensor::Rng& rng) {
  if (sample.empty()) {
    throw std::invalid_argument("tune_bounds: empty sample");
  }
  auto evaluate = [&](double bound, TunedBounds& out) {
    compress::CompsoParams p;
    p.filter_bound = bound;
    p.quant_bound = bound;
    const auto compso = compress::make_compso(p);
    const auto payload = compso->compress(sample, rng);
    const auto restored = compso->decompress(payload);
    const Distortion d = measure_distortion(sample, restored);
    out.filter_bound = out.quant_bound = bound;
    out.achieved_relative_l2 = d.relative_l2;
    out.achieved_cosine_distortion = d.cosine_distortion;
    out.achieved_compression_ratio =
        static_cast<double>(sample.size() * sizeof(float)) /
        static_cast<double>(payload.size());
    return d.relative_l2 <= config.max_relative_l2 &&
           d.cosine_distortion <= config.max_cosine_distortion;
  };

  // Log-space binary search: loosest bound that satisfies the budget.
  double lo = std::log(kMinTunedBound);
  double hi = std::log(kMaxTunedBound);
  TunedBounds best;
  if (!evaluate(kMinTunedBound, best)) {
    // Even the tightest bound violates the budget: return it anyway with
    // the achieved numbers so the caller can decide.
    return best;
  }
  TunedBounds candidate = best;
  for (std::size_t s = 0; s < kSearchSteps; ++s) {
    const double mid = 0.5 * (lo + hi);
    if (evaluate(std::exp(mid), candidate)) {
      best = candidate;
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace compso::core
