// Tests for rounding modes, error-bounded quantization, bit packing, and
// the COMPSO filter — including the §4.2 error-distribution properties.

#include "src/quant/bitpack.hpp"
#include "src/quant/filter.hpp"
#include "src/quant/quantizer.hpp"
#include "src/quant/rounding.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cq = compso::quant;
namespace ct = compso::tensor;

namespace {

TEST(Rounding, NearestIsDeterministic) {
  ct::Rng rng(1);
  EXPECT_EQ(cq::round_value(2.4, cq::RoundingMode::kNearest, rng), 2);
  EXPECT_EQ(cq::round_value(2.6, cq::RoundingMode::kNearest, rng), 3);
  EXPECT_EQ(cq::round_value(-2.6, cq::RoundingMode::kNearest, rng), -3);
}

TEST(Rounding, StochasticIsUnbiased) {
  ct::Rng rng(2);
  const double x = 3.3;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(
        cq::round_value(x, cq::RoundingMode::kStochastic, rng));
  }
  EXPECT_NEAR(sum / n, x, 0.01);
}

TEST(Rounding, StochasticNegativeUnbiased) {
  ct::Rng rng(3);
  const double x = -1.75;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(
        cq::round_value(x, cq::RoundingMode::kStochastic, rng));
  }
  EXPECT_NEAR(sum / n, x, 0.01);
}

TEST(Rounding, HalfProbabilityIsBiasedTowardMidpoint) {
  // P0.5 rounds up/down with p=1/2 regardless of the fraction, so for
  // x = 3.9 its expectation is 3.5, not 3.9.
  ct::Rng rng(4);
  const double x = 3.9;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(
        cq::round_value(x, cq::RoundingMode::kHalfProbability, rng));
  }
  EXPECT_NEAR(sum / n, 3.5, 0.01);
}

TEST(Rounding, ExactIntegerIsStable) {
  ct::Rng rng(5);
  for (auto mode : {cq::RoundingMode::kNearest, cq::RoundingMode::kStochastic,
                    cq::RoundingMode::kHalfProbability}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(cq::round_value(7.0, mode, rng), 7) << cq::to_string(mode);
    }
  }
}

// --- §4.2 error-distribution shapes -------------------------------------

std::vector<float> quantization_errors(cq::RoundingMode mode,
                                       std::uint64_t seed) {
  ct::Rng rng(seed);
  std::vector<float> data(200000);
  rng.fill_uniform(data, -1.0F, 1.0F);
  const cq::ErrorBoundedQuantizer q(4e-3, mode);
  const auto block = q.quantize(data, rng);
  std::vector<float> rec(data.size());
  cq::ErrorBoundedQuantizer::dequantize(block, rec);
  std::vector<float> err(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) err[i] = rec[i] - data[i];
  return err;
}

TEST(ErrorDistribution, RnIsUniform) {
  const auto err = quantization_errors(cq::RoundingMode::kNearest, 6);
  EXPECT_NEAR(ct::kurtosis(err), 1.8, 0.1);  // uniform kurtosis
  EXPECT_NEAR(ct::mean(err), 0.0, 1e-4);
}

TEST(ErrorDistribution, SrIsTriangular) {
  const auto err = quantization_errors(cq::RoundingMode::kStochastic, 7);
  EXPECT_NEAR(ct::kurtosis(err), 2.4, 0.1);  // triangular kurtosis
  EXPECT_NEAR(ct::mean(err), 0.0, 1e-4);
}

TEST(ErrorDistribution, P05IsUniformButWider) {
  const auto errp = quantization_errors(cq::RoundingMode::kHalfProbability, 8);
  const auto errn = quantization_errors(cq::RoundingMode::kNearest, 8);
  EXPECT_NEAR(ct::kurtosis(errp), 1.8, 0.1);  // uniform shape
  // Twice the support of RN => 4x the variance.
  EXPECT_NEAR(ct::variance(errp) / ct::variance(errn), 4.0, 0.3);
}

TEST(ErrorDistribution, SrErrorStaysWithinOneStep) {
  ct::Rng rng(9);
  std::vector<float> data(50000);
  rng.fill_uniform(data, -2.0F, 2.0F);
  const cq::ErrorBoundedQuantizer q(1e-2, cq::RoundingMode::kStochastic);
  const auto block = q.quantize(data, rng);
  std::vector<float> rec(data.size());
  cq::ErrorBoundedQuantizer::dequantize(block, rec);
  EXPECT_LT(ct::max_abs_error(data, rec), block.step * (1.0 + 1e-6));
}

TEST(ErrorDistribution, RnErrorStaysWithinHalfStep) {
  ct::Rng rng(10);
  std::vector<float> data(50000);
  rng.fill_uniform(data, -2.0F, 2.0F);
  const cq::ErrorBoundedQuantizer q(1e-2, cq::RoundingMode::kNearest);
  const auto block = q.quantize(data, rng);
  std::vector<float> rec(data.size());
  cq::ErrorBoundedQuantizer::dequantize(block, rec);
  EXPECT_LE(ct::max_abs_error(data, rec), 0.5 * block.step * (1.0 + 1e-6));
}

// --- quantizer mechanics -------------------------------------------------

TEST(Quantizer, AllZeroBuffer) {
  ct::Rng rng(11);
  std::vector<float> data(100, 0.0F);
  const cq::ErrorBoundedQuantizer q(1e-2, cq::RoundingMode::kStochastic);
  const auto block = q.quantize(data, rng);
  EXPECT_EQ(block.step, 0.0);
  std::vector<float> rec(100);
  cq::ErrorBoundedQuantizer::dequantize(block, rec);
  for (float v : rec) EXPECT_EQ(v, 0.0F);
}

TEST(Quantizer, SmallerBoundGivesMoreBits) {
  ct::Rng rng(12);
  std::vector<float> data(10000);
  rng.fill_normal(data);
  const auto loose =
      cq::ErrorBoundedQuantizer(1e-1, cq::RoundingMode::kStochastic)
          .quantize(data, rng);
  const auto tight =
      cq::ErrorBoundedQuantizer(1e-3, cq::RoundingMode::kStochastic)
          .quantize(data, rng);
  EXPECT_LT(loose.bit_width, tight.bit_width);
}

TEST(Quantizer, InvalidBoundThrows) {
  ct::Rng rng(13);
  std::vector<float> data(10, 1.0F);
  const cq::ErrorBoundedQuantizer q(0.0, cq::RoundingMode::kNearest);
  EXPECT_THROW((void)q.quantize(data, rng), std::invalid_argument);
}

TEST(FixedBitQuantizer, CodesStayInRange) {
  ct::Rng rng(14);
  std::vector<float> data(10000);
  rng.fill_normal(data);
  for (unsigned bits : {2U, 4U, 8U}) {
    const cq::FixedBitQuantizer q(bits, cq::RoundingMode::kStochastic);
    const auto block = q.quantize(data, rng);
    const auto lim = static_cast<std::int64_t>((1ULL << (bits - 1)) - 1);
    for (auto c : block.codes) {
      EXPECT_GE(c, -lim);
      EXPECT_LE(c, lim);
    }
  }
}

TEST(FixedBitQuantizer, EightBitErrorIsSmall) {
  ct::Rng rng(15);
  std::vector<float> data(10000);
  rng.fill_normal(data);
  const cq::FixedBitQuantizer q(8, cq::RoundingMode::kStochastic);
  const auto block = q.quantize(data, rng);
  std::vector<float> rec(data.size());
  cq::ErrorBoundedQuantizer::dequantize(block, rec);
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  EXPECT_LT(ct::max_abs_error(data, rec), abs_max / 127.0 * 1.01);
}

TEST(FixedBitQuantizer, BadBitsThrow) {
  ct::Rng rng(16);
  std::vector<float> data(4, 1.0F);
  EXPECT_THROW((void)cq::FixedBitQuantizer(1, cq::RoundingMode::kNearest)
                   .quantize(data, rng),
               std::invalid_argument);
  EXPECT_THROW((void)cq::FixedBitQuantizer(17, cq::RoundingMode::kNearest)
                   .quantize(data, rng),
               std::invalid_argument);
}

// --- bit packing ---------------------------------------------------------

TEST(BitPack, RoundtripVariousWidths) {
  ct::Rng rng(17);
  for (unsigned bits : {1U, 3U, 7U, 8U, 13U, 31U}) {
    std::vector<std::int64_t> codes(1000);
    const std::int64_t lim = bits >= 2 ? (1LL << (bits - 1)) - 1 : 0;
    for (auto& c : codes) {
      c = lim == 0 ? 0
                   : static_cast<std::int64_t>(rng.uniform_index(
                         static_cast<std::uint64_t>(2 * lim))) -
                         lim;
    }
    const unsigned width = cq::required_bits(codes);
    const auto packed = cq::pack_codes(codes, width);
    EXPECT_EQ(cq::unpack_codes(packed, width, codes.size()), codes)
        << "bits=" << bits;
  }
}

TEST(BitPack, RequiredBitsKnownValues) {
  std::vector<std::int64_t> zero{0};
  EXPECT_EQ(cq::required_bits(zero), 1U);
  std::vector<std::int64_t> one{1};      // zigzag(1) = 2 -> 2 bits
  EXPECT_EQ(cq::required_bits(one), 2U);
  std::vector<std::int64_t> minus{-1};   // zigzag(-1) = 1 -> 1 bit
  EXPECT_EQ(cq::required_bits(minus), 1U);
  std::vector<std::int64_t> fifty{50};   // zigzag(50) = 100 -> 7 bits
  EXPECT_EQ(cq::required_bits(fifty), 7U);
}

TEST(BitPack, ZigzagRoundtrip) {
  for (std::int64_t v : {-1000000LL, -1LL, 0LL, 1LL, 999999LL}) {
    EXPECT_EQ(cq::zigzag_decode(cq::zigzag_encode(v)), v);
  }
}

TEST(BitPack, PackedSizeIsTight) {
  std::vector<std::int64_t> codes(100, 3);
  const auto packed = cq::pack_codes(codes, 3);
  EXPECT_EQ(packed.size(), (100 * 3 + 7) / 8U);
}

TEST(BitPack, WriterRejectsBadWidth) {
  cq::BitWriter w;
  EXPECT_THROW(w.write(1, 0), std::invalid_argument);
  EXPECT_THROW(w.write(1, 65), std::invalid_argument);
}

TEST(BitPack, Write64BitValues) {
  cq::BitWriter w;
  const std::uint64_t v = 0xDEADBEEFCAFEBABEULL;
  w.write(v, 64);
  const auto bytes = w.take();
  cq::BitReader r(bytes);
  EXPECT_EQ(r.read(64), v);
}

// --- filter --------------------------------------------------------------

TEST(Filter, ThresholdSemantics) {
  std::vector<float> data{0.0F, 0.5F, -0.2F, 1.0F, 0.05F};
  const auto f = cq::apply_filter(data, 0.3);  // threshold = 0.3 * 1.0
  EXPECT_EQ(f.filtered, 3U);  // 0.0, -0.2, 0.05
  ASSERT_EQ(f.survivors.size(), 2U);
  EXPECT_EQ(f.survivors[0], 0.5F);
  EXPECT_EQ(f.survivors[1], 1.0F);
  std::vector<float> rec(5);
  cq::reconstruct_filtered(f, rec);
  EXPECT_EQ(rec[0], 0.0F);
  EXPECT_EQ(rec[1], 0.5F);
  EXPECT_EQ(rec[2], 0.0F);
  EXPECT_EQ(rec[3], 1.0F);
  EXPECT_EQ(rec[4], 0.0F);
}

TEST(Filter, ZeroBoundFiltersNothing) {
  std::vector<float> data{0.1F, -0.1F, 0.0F};
  const auto f = cq::apply_filter(data, 0.0);
  EXPECT_EQ(f.filtered, 0U);
}

TEST(Filter, FilteredErrorIsBounded) {
  ct::Rng rng(18);
  const auto data =
      ct::synthetic_gradient(50000, ct::GradientProfile::kfac(), rng);
  const double eb = 4e-3;
  const auto f = cq::apply_filter(data, eb);
  std::vector<float> rec(data.size());
  cq::reconstruct_filtered(f, rec);
  // Every introduced error is below the absolute threshold.
  EXPECT_LT(ct::max_abs_error(data, rec), f.threshold);
  // On KFAC-like gradients, a large fraction is filtered (this is where
  // COMPSO's ratio advantage comes from).
  EXPECT_GT(f.filtered_fraction(), 0.3);
}

TEST(Filter, ScatterValidatesCounts) {
  std::vector<std::uint8_t> bitmap{0b00000001};  // element 0 filtered
  std::vector<float> survivors{1.0F};            // need 2 for 3 slots
  std::vector<float> out(3);
  EXPECT_THROW(cq::scatter_survivors(bitmap, survivors, out),
               std::invalid_argument);
}

}  // namespace
