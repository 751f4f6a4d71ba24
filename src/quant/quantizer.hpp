#pragma once
// Quantizers:
//  - ErrorBoundedQuantizer: COMPSO's fine-grained scheme (§4.3). The step
//    is derived from a *relative* error bound against the buffer's value
//    range (Eq. 3's normalization), so the code width follows the bound
//    (eb = 1e-2 -> ~100 bins -> 7 bits) instead of a rigid 4/8-bit grid.
//  - FixedBitQuantizer: QSGD-style n-bit quantization for the baselines.

#include "src/quant/bitpack.hpp"
#include "src/quant/rounding.hpp"
#include "src/tensor/rng.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace compso::quant {

/// Integer codes plus the metadata to dequantize them.
struct QuantizedBlock {
  std::vector<std::int64_t> codes;
  double step = 0.0;        ///< dequantized value = code * step.
  unsigned bit_width = 0;   ///< bits per packed code (zigzag).
  RoundingMode mode = RoundingMode::kStochastic;

  std::size_t packed_bytes() const noexcept {
    return (codes.size() * bit_width + 7) / 8;
  }
};

/// Error-bounded uniform quantizer. For rounding mode RN the absolute
/// reconstruction error is <= eb * abs_max(values); for SR it is
/// < 2 * eb * abs_max but unbiased (E[dequant] = value).
class ErrorBoundedQuantizer {
 public:
  ErrorBoundedQuantizer(double relative_error_bound, RoundingMode mode)
      : eb_(relative_error_bound), mode_(mode) {}

  double error_bound() const noexcept { return eb_; }
  RoundingMode mode() const noexcept { return mode_; }

  /// Quantizes `values`; `abs_max` may be precomputed (e.g. by the fused
  /// extrema kernel); pass <= 0 to compute it here.
  QuantizedBlock quantize(std::span<const float> values, tensor::Rng& rng,
                          double abs_max = -1.0) const;

  /// Dequantizes into `out` (size must equal codes.size()).
  static void dequantize(const QuantizedBlock& block, std::span<float> out);

 private:
  double eb_;
  RoundingMode mode_;
};

/// QSGD-style fixed n-bit quantizer (Eq. 3): scale by abs_max, map into
/// [-2^(n-1), 2^(n-1)], round (SR in QSGD).
class FixedBitQuantizer {
 public:
  FixedBitQuantizer(unsigned bits, RoundingMode mode)
      : bits_(bits), mode_(mode) {}

  unsigned bits() const noexcept { return bits_; }

  QuantizedBlock quantize(std::span<const float> values,
                          tensor::Rng& rng) const;

 private:
  unsigned bits_;
  RoundingMode mode_;
};

}  // namespace compso::quant
