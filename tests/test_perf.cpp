// Tests for the performance model: lookup table, Eq. 5 speedup, end-to-end
// formula, aggregation-factor search, encoder scoring.

#include "src/perf/perf_model.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pf = compso::perf;
namespace cm = compso::comm;
namespace cp = compso::compress;
namespace ct = compso::tensor;

namespace {

cm::Communicator plat1(std::size_t gpus) {
  return cm::Communicator(cm::Topology::with_gpus(gpus),
                          cm::NetworkModel::platform1());
}

TEST(LookupTable, ThroughputIncreasesWithMessageSize) {
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  EXPECT_LT(table.throughput(4 << 10), table.throughput(64 << 20));
}

TEST(LookupTable, InterpolationIsMonotoneAndBounded) {
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  double prev = 0.0;
  for (std::size_t b = 1 << 10; b <= (std::size_t{1} << 28); b <<= 1) {
    const double t = table.throughput(b);
    EXPECT_GE(t, prev * 0.999) << b;
    prev = t;
  }
  // Interpolated values lie between endpoints.
  const double t1 = table.throughput(3 << 20);
  EXPECT_GT(t1, table.throughput(1 << 20) * 0.99);
  EXPECT_LT(t1, table.throughput(16 << 20) * 1.01);
}

TEST(LookupTable, MatchesDirectTimingQuery) {
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const std::size_t bytes = 8 << 20;
  EXPECT_NEAR(table.allgather_time(bytes) / comm.allgather_time(bytes), 1.0,
              0.05);
}

TEST(LookupTable, BadRangeThrows) {
  const auto comm = plat1(4);
  EXPECT_THROW(pf::CommLookupTable(comm, 1024, 512), std::invalid_argument);
  EXPECT_THROW(pf::CommLookupTable(comm, 0, 1024), std::invalid_argument);
}

TEST(LookupTable, NarrowRangeHasNoDuplicateSamplePoints) {
  // A narrow [min, max] with many points rounds adjacent log-spaced sample
  // sizes to the same byte value; interpolation then divided by
  // log2(x1) - log2(x0) == 0 and returned NaN.
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm, 1024, 2048, 24);
  for (std::size_t b = 1024; b <= 2048; b += 64) {
    const double t = table.throughput(b);
    EXPECT_TRUE(std::isfinite(t)) << b;
    EXPECT_GT(t, 0.0) << b;
  }
}

TEST(Profiler, AveragesObservations) {
  pf::OnlineProfiler p;
  p.record(100, 10, 1.0, 0.5, 2.0, 10.0);
  p.record(300, 10, 1.0, 0.5, 3.0, 10.0);
  const auto w = p.finish();
  EXPECT_EQ(w.iterations, 2U);
  EXPECT_NEAR(w.compression_ratio, 20.0, 1e-9);
  EXPECT_NEAR(w.comp_throughput, 200.0, 1e-9);  // 400 bytes / 2 s
  EXPECT_NEAR(w.comm_fraction, 0.25, 1e-9);     // 5 / 20
}

TEST(Profiler, EmptyProfileIsNeutral) {
  pf::OnlineProfiler p;
  const auto w = p.finish();
  EXPECT_EQ(w.iterations, 0U);
  EXPECT_EQ(w.compression_ratio, 1.0);
}

/// Eq. 5's communication speedup of one group.
double eq5_speedup(std::size_t orig_bytes, std::size_t comp_bytes,
                   const pf::CommLookupTable& table, double comp_throughput,
                   double decomp_throughput) {
  const auto t = pf::eq5_times(orig_bytes, comp_bytes, table, comp_throughput,
                               decomp_throughput);
  return t.orig / t.compressed();
}

TEST(Eq5, SpeedupGrowsWithCompressionRatio) {
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const std::size_t orig = 64 << 20;
  const double fast_codec = 200e9;
  const double s10 =
      eq5_speedup(orig, orig / 10, table, fast_codec, fast_codec);
  const double s20 =
      eq5_speedup(orig, orig / 20, table, fast_codec, fast_codec);
  EXPECT_GT(s20, s10);
  EXPECT_GT(s10, 4.0);
}

TEST(Eq5, SlowCompressorErasesGain) {
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const std::size_t orig = 64 << 20;
  const double s_fast = eq5_speedup(orig, orig / 20, table, 200e9, 200e9);
  const double s_slow = eq5_speedup(orig, orig / 20, table, 0.3e9, 0.3e9);
  EXPECT_GT(s_fast, s_slow * 2.0);
}

TEST(Eq5, NoCompressionIsUnitSpeedup) {
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const std::size_t orig = 64 << 20;
  // Same size, infinitely fast codec -> exactly 1.
  EXPECT_NEAR(eq5_speedup(orig, orig, table, 1e18, 1e18), 1.0, 1e-6);
}

TEST(EndToEnd, PaperExample) {
  // §4.4: 50% comm ratio and 10x comm speedup -> ~1.8x end-to-end.
  EXPECT_NEAR(pf::end_to_end_speedup(0.5, 10.0), 1.0 / (0.5 + 0.05), 1e-9);
  EXPECT_NEAR(pf::end_to_end_speedup(0.5, 10.0), 1.818, 0.01);
}

TEST(EndToEnd, BoundsRespected) {
  EXPECT_NEAR(pf::end_to_end_speedup(0.0, 100.0), 1.0, 1e-9);
  EXPECT_NEAR(pf::end_to_end_speedup(1.0, 8.0), 8.0, 1e-9);
  // Amdahl ceiling: never beyond 1/(1-r).
  EXPECT_LT(pf::end_to_end_speedup(0.4, 1e9), 1.0 / 0.6 + 1e-6);
}

TEST(Aggregation, PrefersAggregatingSmallLayers) {
  // Many small layers: per-call overhead dominates at m=1, so the chosen
  // factor should be > 1.
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  std::vector<std::size_t> layer_bytes(64, 64 << 10);  // 64 KiB layers
  pf::WarmupProfile profile;
  profile.compression_ratio = 20.0;
  profile.comm_fraction = 0.45;
  const auto compso = cp::make_compso({});
  const auto decision = pf::choose_aggregation_factor(
      layer_bytes, profile, *compso, compso::gpusim::DeviceModel::a100(),
      table);
  EXPECT_GT(decision.factor, 1U);
  EXPECT_GT(decision.est_end_to_end, 1.0);
  EXPECT_EQ(decision.candidate_end_to_end.size(), 6U);
}

TEST(Aggregation, EstimateImprovesOverNoAggregationForTinyLayers) {
  const auto comm = plat1(64);
  pf::CommLookupTable table(comm);
  std::vector<std::size_t> layer_bytes(128, 16 << 10);
  pf::WarmupProfile profile;
  profile.compression_ratio = 22.0;
  profile.comm_fraction = 0.5;
  const auto compso = cp::make_compso({});
  const auto d = pf::choose_aggregation_factor(
      layer_bytes, profile, *compso, compso::gpusim::DeviceModel::a100(),
      table, {1, 4, 16});
  ASSERT_EQ(d.candidate_end_to_end.size(), 3U);
  EXPECT_GT(d.candidate_end_to_end[1], d.candidate_end_to_end[0]);
}

TEST(EncoderScoring, AnsWinsOnGradientLikeData) {
  // Table 2's outcome: ANS is the best overall encoder for the COMPSO
  // lossy-stage output (entropy-coder CR + near-Bitcomp throughput).
  ct::Rng rng(5);
  const auto grad = ct::synthetic_gradient(1 << 17,
                                           ct::GradientProfile::kfac(), rng);
  // Emulate the lossy-stage byte stream with quantized-code-like bytes.
  std::vector<std::uint8_t> stream;
  stream.reserve(grad.size());
  for (float g : grad) {
    const int code = static_cast<int>(g / 1e-3F);
    stream.push_back(static_cast<std::uint8_t>(
        std::clamp(code + 128, 0, 255)));
  }
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const auto scores =
      pf::score_encoders(stream, compso::gpusim::DeviceModel::a100(), table);
  ASSERT_EQ(scores.size(), 8U);
  EXPECT_EQ(scores.front().kind, compso::codec::CodecKind::kAns);
}

TEST(EncoderScoring, EntropyCodersBeatDictionaryOnRatio) {
  ct::Rng rng(6);
  const auto grad = ct::synthetic_gradient(1 << 16,
                                           ct::GradientProfile::kfac(), rng);
  std::vector<std::uint8_t> stream;
  for (float g : grad) {
    stream.push_back(static_cast<std::uint8_t>(
        std::clamp(static_cast<int>(g / 1e-3F) + 128, 0, 255)));
  }
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const auto scores =
      pf::score_encoders(stream, compso::gpusim::DeviceModel::a100(), table);
  double ans_cr = 0.0, lz4_cr = 0.0;
  for (const auto& s : scores) {
    if (s.kind == compso::codec::CodecKind::kAns) ans_cr = s.compression_ratio;
    if (s.kind == compso::codec::CodecKind::kLz4) lz4_cr = s.compression_ratio;
  }
  EXPECT_GT(ans_cr, lz4_cr);
}

TEST(EncoderScoring, BitcompFastestThroughput) {
  ct::Rng rng(7);
  std::vector<std::uint8_t> stream(1 << 16);
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.uniform_index(32));
  const auto comm = plat1(16);
  pf::CommLookupTable table(comm);
  const auto scores =
      pf::score_encoders(stream, compso::gpusim::DeviceModel::a100(), table);
  double best_tput = 0.0;
  compso::codec::CodecKind best{};
  for (const auto& s : scores) {
    if (s.comp_throughput > best_tput) {
      best_tput = s.comp_throughput;
      best = s.kind;
    }
  }
  EXPECT_EQ(best, compso::codec::CodecKind::kBitcomp);
}

}  // namespace
