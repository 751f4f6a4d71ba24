// Tests for the gradient-compressor suite: roundtrip fidelity, error
// bounds, compression-ratio ordering (the Fig. 3 / §5.2 relationships),
// and GPU-throughput model ordering (Fig. 8).

#include "src/compress/compressor.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cp = compso::compress;
namespace ct = compso::tensor;

namespace {

/// Smoothly varying "scientific data": a sum of two random-phase
/// sinusoids plus a slow random walk — the data SZ's predictor was
/// designed for.
std::vector<float> smooth_data(std::size_t n, ct::Rng& rng) {
  std::vector<float> out(n);
  const float f1 = rng.uniform(0.001F, 0.01F);
  const float f2 = rng.uniform(0.01F, 0.05F);
  const float ph1 = rng.uniform(0.0F, 6.28F);
  const float ph2 = rng.uniform(0.0F, 6.28F);
  float walk = 0.0F;
  for (std::size_t i = 0; i < n; ++i) {
    walk += rng.normal(0.0F, 0.002F);
    const auto x = static_cast<float>(i);
    out[i] = std::sin(f1 * x + ph1) + 0.3F * std::sin(f2 * x + ph2) + walk;
  }
  return out;
}

std::vector<float> kfac_grad(std::size_t n, std::uint64_t seed) {
  ct::Rng rng(seed);
  return ct::synthetic_gradient(n, ct::GradientProfile::kfac(), rng);
}

// ---- identity ----

TEST(Identity, ExactRoundtrip) {
  ct::Rng rng(1);
  const auto data = kfac_grad(10000, 1);
  const auto c = cp::make_identity();
  const auto payload = c->compress(data, rng);
  EXPECT_EQ(c->decompress(payload), data);
  EXPECT_NEAR(c->compression_ratio(data, rng), 1.0, 0.01);
}

// ---- COMPSO ----

TEST(Compso, RoundtripPreservesCountAndBound) {
  ct::Rng rng(2);
  const auto data = kfac_grad(50000, 2);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const auto payload = c->compress(data, rng);
  const auto rec = c->decompress(payload);
  ASSERT_EQ(rec.size(), data.size());
  // Total error <= max(filter threshold, SR step): both are
  // O(eb * abs_max).
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double bound = 2.0 * 4e-3 * abs_max;  // SR step dominates
  EXPECT_LE(ct::max_abs_error(data, rec), bound * (1.0 + 1e-6));
}

TEST(Compso, FilteredValuesBecomeZero) {
  ct::Rng rng(3);
  const auto data = kfac_grad(20000, 3);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const auto rec = c->decompress(c->compress(data, rng));
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double thr = 4e-3 * abs_max;
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::fabs(data[i]) < thr) {
      EXPECT_EQ(rec[i], 0.0F);
      ++zeros;
    }
  }
  EXPECT_GT(zeros, data.size() / 4);  // the filter is doing real work
}

TEST(Compso, SrOnlyModeSkipsFilter) {
  ct::Rng rng(4);
  const auto data = kfac_grad(20000, 4);
  cp::CompsoParams p;
  p.use_filter = false;
  const auto c = cp::make_compso(p);
  const auto rec = c->decompress(c->compress(data, rng));
  // Without the filter no value is force-zeroed; SR keeps small values
  // stochastically, so some near-zero inputs stay nonzero.
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double bound = 2.0 * 4e-3 * abs_max;
  EXPECT_LE(ct::max_abs_error(data, rec), bound * (1.0 + 1e-6));
}

TEST(Compso, HighRatioOnKfacGradients) {
  // Paper headline: ~22x average compression ratio on KFAC gradients.
  ct::Rng rng(5);
  const auto data = kfac_grad(1 << 18, 5);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const double cr = c->compression_ratio(data, rng);
  EXPECT_GT(cr, 10.0);
}

TEST(Compso, FilterImprovesRatio) {
  ct::Rng rng(6);
  const auto data = kfac_grad(1 << 17, 6);
  cp::CompsoParams with;
  cp::CompsoParams without;
  without.use_filter = false;
  const double cr_with = cp::make_compso(with)->compression_ratio(data, rng);
  const double cr_without =
      cp::make_compso(without)->compression_ratio(data, rng);
  EXPECT_GT(cr_with, cr_without);
}

TEST(Compso, TighterBoundLowersRatio) {
  ct::Rng rng(7);
  const auto data = kfac_grad(1 << 16, 7);
  cp::CompsoParams loose;
  loose.filter_bound = loose.quant_bound = 1e-2;
  cp::CompsoParams tight;
  tight.filter_bound = tight.quant_bound = 1e-4;
  EXPECT_GT(cp::make_compso(loose)->compression_ratio(data, rng),
            cp::make_compso(tight)->compression_ratio(data, rng));
}

TEST(Compso, WorksWithEveryEncoder) {
  ct::Rng rng(8);
  const auto data = kfac_grad(1 << 14, 8);
  for (auto kind : compso::codec::kAllCodecKinds) {
    cp::CompsoParams p;
    p.encoder = kind;
    const auto c = cp::make_compso(p);
    const auto rec = c->decompress(c->compress(data, rng));
    ASSERT_EQ(rec.size(), data.size()) << compso::codec::to_string(kind);
  }
}

TEST(Compso, EmptyAndTinyInputs) {
  ct::Rng rng(9);
  const auto c = cp::make_compso(cp::CompsoParams{});
  for (std::size_t n : {0UL, 1UL, 2UL, 9UL}) {
    std::vector<float> data(n, 0.25F);
    const auto rec = c->decompress(c->compress(data, rng));
    EXPECT_EQ(rec.size(), n);
  }
}

TEST(Compso, AllZeroInput) {
  ct::Rng rng(10);
  std::vector<float> data(1000, 0.0F);
  const auto c = cp::make_compso(cp::CompsoParams{});
  const auto rec = c->decompress(c->compress(data, rng));
  for (float v : rec) EXPECT_EQ(v, 0.0F);
}

// ---- QSGD ----

TEST(Qsgd, RoundtripWithBound) {
  ct::Rng rng(11);
  const auto data = kfac_grad(30000, 11);
  const auto c = cp::make_qsgd(8);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  EXPECT_LE(ct::max_abs_error(data, rec), abs_max / 127.0 * (1.0 + 1e-6));
}

TEST(Qsgd, FourBitHasHigherRatioButMoreError) {
  ct::Rng rng(12);
  const auto data = kfac_grad(1 << 16, 12);
  const auto c8 = cp::make_qsgd(8);
  const auto c4 = cp::make_qsgd(4);
  EXPECT_GT(c4->compression_ratio(data, rng),
            c8->compression_ratio(data, rng));
  const auto r8 = c8->decompress(c8->compress(data, rng));
  const auto r4 = c4->decompress(c4->compress(data, rng));
  EXPECT_GT(ct::rmse(data, r4), ct::rmse(data, r8));
}

TEST(Qsgd, UnbiasedReconstruction) {
  // SR makes QSGD unbiased: averaging many compressions approaches input.
  const std::vector<float> data{0.013F, -0.004F, 0.020F, 0.001F};
  const auto c = cp::make_qsgd(4);
  std::vector<double> acc(data.size(), 0.0);
  const int trials = 20000;
  ct::Rng rng(13);
  for (int t = 0; t < trials; ++t) {
    const auto rec = c->decompress(c->compress(data, rng));
    for (std::size_t i = 0; i < data.size(); ++i) acc[i] += rec[i];
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(acc[i] / trials, data[i], 4e-4) << "i=" << i;
  }
}

// ---- SZ ----

TEST(Sz, RoundtripRespectsErrorBound) {
  ct::Rng rng(14);
  const auto data = kfac_grad(30000, 14);
  const double eb = 4e-3;
  const auto c = cp::make_sz(eb);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  const auto ex = ct::extrema(std::span<const float>(data));
  const double range = static_cast<double>(ex.max) - ex.min;
  // RN on the prediction error: bound is eb * range per element.
  EXPECT_LE(ct::max_abs_error(data, rec), eb * range * (1.0 + 1e-5));
}

TEST(Sz, LooseBoundCompressesMore) {
  ct::Rng rng(15);
  const auto data = kfac_grad(1 << 16, 15);
  EXPECT_GT(cp::make_sz(1e-1)->compression_ratio(data, rng),
            cp::make_sz(4e-3)->compression_ratio(data, rng));
}

TEST(Sz, SmoothDataCompressesWell) {
  // SZ's Lorenzo predictor was designed for smooth scientific data.
  ct::Rng rng(16);
  const auto data = smooth_data(1 << 16, rng);
  EXPECT_GT(cp::make_sz(1e-3)->compression_ratio(data, rng), 3.0);
}

// ---- CocktailSGD ----

TEST(Cocktail, RoundtripKeepsSampledPositionsOnly) {
  // Use values far from zero so 8-bit quantization cannot produce exact
  // zeros: every sampled position stays nonzero, every dropped one is 0.
  ct::Rng rng(17);
  std::vector<float> data(20000);
  for (auto& v : data) {
    v = rng.uniform(0.5F, 1.0F) * (rng.uniform() < 0.5F ? -1.0F : 1.0F);
  }
  const auto c = cp::make_cocktail(0.2, 8);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  std::size_t nonzero = 0;
  for (float v : rec) nonzero += v != 0.0F ? 1 : 0;
  // ~20% of positions survive (binomial sampling jitter allowed).
  EXPECT_NEAR(static_cast<double>(nonzero) / static_cast<double>(rec.size()),
              0.2, 0.02);
}

TEST(Cocktail, ConstantRatioNearTwenty) {
  // Paper §5.2: CocktailSGD maintains a constant ratio of ~20x
  // (20% sparsity x 8-bit quantization).
  ct::Rng rng(18);
  const auto data = kfac_grad(1 << 17, 18);
  const double cr = cp::make_cocktail(0.2, 8)->compression_ratio(data, rng);
  EXPECT_NEAR(cr, 20.0, 2.0);
}

// ---- TopK ----

TEST(TopK, KeepsLargestMagnitudes) {
  std::vector<float> data{0.1F, -5.0F, 0.2F, 3.0F, -0.05F, 1.0F};
  ct::Rng rng(19);
  const auto c = cp::make_topk(0.5);
  const auto rec = c->decompress(c->compress(data, rng));
  EXPECT_EQ(rec[1], -5.0F);
  EXPECT_EQ(rec[3], 3.0F);
  EXPECT_EQ(rec[5], 1.0F);
  EXPECT_EQ(rec[0], 0.0F);
  EXPECT_EQ(rec[2], 0.0F);
  EXPECT_EQ(rec[4], 0.0F);
}

TEST(TopK, ExactValuesPreserved) {
  ct::Rng rng(20);
  const auto data = kfac_grad(10000, 20);
  const auto c = cp::make_topk(0.1);
  const auto rec = c->decompress(c->compress(data, rng));
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (rec[i] != 0.0F) {
      EXPECT_EQ(rec[i], data[i]);
    }
  }
}

// ---- cross-method orderings (Fig. 3 left / §5.2) ----

TEST(Ordering, CompsoBeatsAccuracyPreservingBaselines) {
  // At accuracy-preserving settings (SZ 4e-3, QSGD 8-bit) COMPSO's ratio
  // is far ahead (paper: ~22x vs 5-16x).
  ct::Rng rng(21);
  const auto data = kfac_grad(1 << 18, 21);
  const double compso =
      cp::make_compso(cp::CompsoParams{})->compression_ratio(data, rng);
  const double sz = cp::make_sz(4e-3)->compression_ratio(data, rng);
  const double qsgd = cp::make_qsgd(8)->compression_ratio(data, rng);
  EXPECT_GT(compso, sz);
  EXPECT_GT(compso, qsgd);
}

TEST(Ordering, Qsgd4BitBeatsQsgd8BitOnRatio) {
  ct::Rng rng(22);
  const auto data = kfac_grad(1 << 16, 22);
  EXPECT_GT(cp::make_qsgd(4)->compression_ratio(data, rng),
            cp::make_qsgd(8)->compression_ratio(data, rng));
}

// ---- GPU throughput model (Fig. 8 orderings) ----

TEST(GpuModel, FusedCudaBeatsPytorchDispatch) {
  const auto dev = compso::gpusim::DeviceModel::a100();
  const std::size_t in = 64U << 20;
  const auto qsgd = cp::make_qsgd(8);        // fused kernel profile
  const auto cocktail = cp::make_cocktail(0.2, 8);  // PyTorch profile
  EXPECT_GT(qsgd->modeled_throughput(dev, in, in / 8),
            cocktail->modeled_throughput(dev, in, in / 20));
}

TEST(GpuModel, QsgdFasterThanCompsoWhichBeatsCocktail) {
  // §5.3: QSGD (fewer ops, no filter) > COMPSO > CocktailSGD (~1.7x gap).
  const auto dev = compso::gpusim::DeviceModel::a100();
  const std::size_t in = 64U << 20;
  const double t_qsgd =
      cp::make_qsgd(8)->modeled_throughput(dev, in, in / 8);
  const double t_compso = cp::make_compso(cp::CompsoParams{})
                              ->modeled_throughput(dev, in, in / 22);
  const double t_cocktail =
      cp::make_cocktail(0.2, 8)->modeled_throughput(dev, in, in / 20);
  EXPECT_GT(t_qsgd, t_compso);
  EXPECT_GT(t_compso, t_cocktail);
  EXPECT_GT(t_compso / t_cocktail, 1.3);  // paper reports ~1.7x
}

TEST(GpuModel, ThroughputGrowsWithDataSize) {
  // Launch overhead amortizes: throughput rises with size (Fig. 8 shape).
  const auto dev = compso::gpusim::DeviceModel::a100();
  const auto c = cp::make_compso(cp::CompsoParams{});
  const double t_small = c->modeled_throughput(dev, 1U << 20, (1U << 20) / 22);
  const double t_large = c->modeled_throughput(dev, 128U << 20, (128U << 20) / 22);
  EXPECT_GT(t_large, t_small);
}

// ---- fused pipeline vs the multi-pass reference oracle ----
//
// make_compso is the fused single-pass implementation; make_compso_reference
// is the original multi-pass pipeline kept as the bit-exactness oracle.
// For any fixed Rng state the two must produce byte-identical payloads and
// identical reconstructions.

void expect_bit_identical(const cp::CompsoParams& params,
                          const std::vector<float>& data,
                          std::uint64_t seed) {
  const auto fused = cp::make_compso(params);
  const auto reference = cp::make_compso_reference(params);
  ct::Rng rng_f(seed);
  ct::Rng rng_r(seed);
  const auto payload_f = fused->compress(data, rng_f);
  const auto payload_r = reference->compress(data, rng_r);
  ASSERT_EQ(payload_f, payload_r);
  // Both consumed the same number of draws: the streams stay aligned.
  EXPECT_EQ(rng_f(), rng_r());
  // Cross-decode both ways; the fused decoder and the reference decoder
  // must agree bit-for-bit on the same payload.
  EXPECT_EQ(fused->decompress(payload_r), reference->decompress(payload_f));
  EXPECT_EQ(fused->decompress(payload_f), reference->decompress(payload_f));
}

TEST(FusedOracle, BitIdenticalPayloadsAcrossSizes) {
  // Cover: empty, tiny, sub-block, exactly one block, block+tail, many
  // blocks (the blockwise extrema + bitmap byte paths all get exercised).
  for (std::size_t n :
       {0UL, 1UL, 7UL, 8UL, 9UL, 100UL, 4096UL, 4100UL, 70001UL}) {
    const auto data = kfac_grad(n, 0xC0FFEE + n);
    expect_bit_identical(cp::CompsoParams{}, data, 42 + n);
  }
}

TEST(FusedOracle, BitIdenticalWithoutFilter) {
  cp::CompsoParams p;
  p.use_filter = false;
  expect_bit_identical(p, kfac_grad(20000, 11), 7);
  p.use_filter = true;
  p.filter_bound = 0.0;  // second way to disable the filter
  expect_bit_identical(p, kfac_grad(20000, 12), 8);
}

TEST(FusedOracle, BitIdenticalOnEdgeInputs) {
  // All-zero buffer (abs_max == 0 early-out, no rng draws).
  expect_bit_identical(cp::CompsoParams{}, std::vector<float>(5000, 0.0F),
                       3);
  // Constant buffer (everything survives the filter).
  expect_bit_identical(cp::CompsoParams{}, std::vector<float>(5000, 1.5F),
                       4);
  // Buffer where everything but one value is filtered.
  std::vector<float> spike(5000, 1e-8F);
  spike[1234] = 100.0F;
  expect_bit_identical(cp::CompsoParams{}, spike, 5);
  // Negative extremes and denormals.
  std::vector<float> mixed = kfac_grad(9999, 6);
  mixed[0] = -3.5e4F;
  mixed[1] = 1e-40F;
  mixed[2] = -1e-40F;
  expect_bit_identical(cp::CompsoParams{}, mixed, 6);
}

TEST(FusedOracle, BitIdenticalWithEveryEncoder) {
  using compso::codec::CodecKind;
  const auto data = kfac_grad(30000, 21);
  for (CodecKind kind : compso::codec::kAllCodecKinds) {
    cp::CompsoParams p;
    p.encoder = kind;
    expect_bit_identical(p, data, 1000 + static_cast<std::uint64_t>(kind));
  }
}

TEST(FusedOracle, BitIdenticalAcrossBounds) {
  const auto data = kfac_grad(25000, 31);
  for (double eb : {1e-1, 1e-2, 4e-3, 1e-4, 1e-6}) {
    cp::CompsoParams p;
    p.filter_bound = eb;
    p.quant_bound = eb;
    expect_bit_identical(p, data, 77);
  }
}

TEST(FusedOracle, CompressIntoReusesBufferAndMatches) {
  const auto c = cp::make_compso(cp::CompsoParams{});
  cp::Bytes buf;
  std::vector<float> rec;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto data = kfac_grad(10000 + 1000 * i, i);
    ct::Rng a(i);
    ct::Rng b(i);
    c->compress_into(data, a, buf);
    EXPECT_EQ(buf, c->compress(data, b));
    c->decompress_into(buf, rec);
    EXPECT_EQ(rec, c->decompress(buf));
  }
}

TEST(FusedOracle, PathologicalBoundFallsBackToReference) {
  // A quantization bound tight enough to overflow int32 codes must route
  // make_compso to the multi-pass implementation (and still roundtrip).
  cp::CompsoParams p;
  p.quant_bound = 1e-12;
  p.filter_bound = 0.0;
  const auto c = cp::make_compso(p);
  EXPECT_EQ(c->name(), "COMPSO");
  std::vector<float> data = {1.0F, -0.5F, 0.25F, 0.0F};
  ct::Rng rng(9);
  const auto rec = c->decompress(c->compress(data, rng));
  ASSERT_EQ(rec.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(rec[i], data[i], 1e-6);
  }
}

// ---- parameter validation ----

TEST(Validation, BadParamsThrow) {
  EXPECT_THROW((void)cp::make_cocktail(0.0, 8), std::invalid_argument);
  EXPECT_THROW((void)cp::make_cocktail(1.5, 8), std::invalid_argument);
  EXPECT_THROW((void)cp::make_topk(0.0), std::invalid_argument);
  EXPECT_THROW((void)cp::make_sz(0.0), std::invalid_argument);
  cp::CompsoParams p;
  p.quant_bound = 0.0;
  EXPECT_THROW((void)cp::make_compso(p), std::invalid_argument);
}

}  // namespace
