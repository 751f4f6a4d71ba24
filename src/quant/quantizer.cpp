#include "src/quant/quantizer.hpp"

#include "src/tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace compso::quant {

QuantizedBlock ErrorBoundedQuantizer::quantize(std::span<const float> values,
                                               tensor::Rng& rng,
                                               double abs_max) const {
  if (eb_ <= 0.0) {
    throw std::invalid_argument("ErrorBoundedQuantizer: eb must be > 0");
  }
  if (abs_max <= 0.0) abs_max = tensor::extrema(values).abs_max;
  QuantizedBlock out;
  out.mode = mode_;
  out.codes.resize(values.size());
  if (abs_max == 0.0) {
    // All-zero buffer: step 0 marks "everything is exactly zero".
    out.step = 0.0;
    out.bit_width = 1;
    return out;
  }
  out.step = 2.0 * eb_ * abs_max;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.codes[i] = round_value(values[i] / out.step, mode_, rng);
  }
  out.bit_width = required_bits(out.codes);
  return out;
}

void ErrorBoundedQuantizer::dequantize(const QuantizedBlock& block,
                                       std::span<float> out) {
  if (out.size() != block.codes.size()) {
    throw std::invalid_argument("dequantize: size mismatch");
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(static_cast<double>(block.codes[i]) *
                                block.step);
  }
}

QuantizedBlock FixedBitQuantizer::quantize(std::span<const float> values,
                                           tensor::Rng& rng) const {
  if (bits_ < 2 || bits_ > 16) {
    throw std::invalid_argument("FixedBitQuantizer: bits must be in [2, 16]");
  }
  const double abs_max = tensor::extrema(values).abs_max;
  QuantizedBlock out;
  out.mode = mode_;
  out.codes.resize(values.size());
  out.bit_width = bits_;
  if (abs_max == 0.0) {
    out.step = 0.0;
    return out;
  }
  const auto levels = static_cast<double>((1ULL << (bits_ - 1)) - 1);
  out.step = abs_max / levels;  // codes in [-levels, levels]
  const auto lim = static_cast<std::int64_t>(levels);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::int64_t c = round_value(values[i] / out.step, mode_, rng);
    out.codes[i] = std::clamp<std::int64_t>(c, -lim, lim);
  }
  return out;
}

}  // namespace compso::quant
