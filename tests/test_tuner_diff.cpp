// Differential test of the §4.4 decision path: brute-force Eq. 5 over every
// registered codec and every aggregation candidate with an independent
// reimplementation of the selection math, and assert that score_encoders
// -> profile_warmup -> choose_aggregation_factor, run on the same inputs,
// picks the arg-max on both network platforms.
//
// Tie-breaks under test:
//  - encoder: the decision takes the front of the scores sorted by
//    est_total_time; exact ties are unordered among themselves, so the
//    assertion is by value (the front score's time equals the brute-force
//    minimum);
//  - aggregation: choose_aggregation_factor keeps a candidate only on a
//    strictly greater estimate, so exact ties resolve to the smallest m —
//    asserted directly with a degenerate all-tie input.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace cc = compso::core;
namespace cm = compso::comm;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace codec = compso::codec;
namespace perf = compso::perf;
namespace quant = compso::quant;

namespace {

constexpr std::size_t kWarmupRounds = 5;
constexpr double kCommFraction = 0.4;

/// The stage-0 lossy byte stream encoders are scored on: filter +
/// error-bounded quantization + packed codes + bitmap.
std::vector<std::uint8_t> stage0_lossy_stream(const cc::AdaptiveSchedule& sched,
                                              std::span<const float> grad,
                                              ct::Rng& rng) {
  const auto stage0 = sched.at(0);
  const double abs_max = ct::extrema(grad).abs_max;
  const auto filt = quant::apply_filter(grad, stage0.filter_bound, abs_max);
  const quant::ErrorBoundedQuantizer q(stage0.quant_bound,
                                       quant::RoundingMode::kStochastic);
  const auto block = q.quantize(filt.survivors, rng, abs_max);
  auto stream = quant::pack_codes(block.codes, block.bit_width);
  stream.insert(stream.end(), filt.bitmap.begin(), filt.bitmap.end());
  return stream;
}

/// Warm-up profile with the sample's allgather time as comm and
/// comm / kCommFraction as the iteration total.
perf::WarmupProfile warmup(const cp::GradientCompressor& compressor,
                           std::span<const float> grad,
                           const compso::gpusim::DeviceModel& dev,
                           const perf::CommLookupTable& table, ct::Rng& rng) {
  const double comm_s = table.allgather_time(grad.size() * sizeof(float));
  return perf::profile_warmup(compressor, grad, dev, comm_s,
                              comm_s / kCommFraction, kWarmupRounds, rng);
}

/// Independent Eq. 5 estimate for aggregation factor m: group consecutive
/// layers into chunks of m, per chunk s = t_orig / (t_comp_comm +
/// t_compress + t_decompress), end-to-end ((1-r) + r/s)^-1.
double brute_force_e2e(std::size_t m,
                       const std::vector<std::size_t>& layer_bytes,
                       const perf::WarmupProfile& profile,
                       const cp::GradientCompressor& compressor,
                       const compso::gpusim::DeviceModel& dev,
                       const perf::CommLookupTable& table) {
  double t_orig = 0.0, t_new = 0.0;
  for (std::size_t i = 0; i < layer_bytes.size(); i += m) {
    std::size_t chunk = 0;
    for (std::size_t j = i; j < std::min(i + m, layer_bytes.size()); ++j) {
      chunk += layer_bytes[j];
    }
    if (chunk == 0) continue;
    const auto comp_chunk = static_cast<std::size_t>(
        static_cast<double>(chunk) / std::max(profile.compression_ratio, 1.0));
    t_orig += table.allgather_time(chunk);
    const double comp_tput =
        compressor.modeled_throughput(dev, chunk, comp_chunk);
    const double decomp_tput =
        compressor.modeled_throughput(dev, comp_chunk, chunk);
    t_new += table.allgather_time(comp_chunk) +
             static_cast<double>(chunk) / comp_tput +
             static_cast<double>(comp_chunk) / decomp_tput;
  }
  const double s = t_new > 0.0 ? t_orig / t_new : 1.0;
  return perf::end_to_end_speedup(profile.comm_fraction, s);
}

/// Mixed layer sizes so aggregation actually changes chunk shapes.
std::vector<std::size_t> mixed_layer_bytes(std::size_t layers) {
  std::vector<std::size_t> layer_bytes;
  for (std::size_t i = 0; i < layers; ++i) {
    layer_bytes.push_back((i % 3 == 0) ? (1 << 20) : (1 << 14));
  }
  return layer_bytes;
}

void check_decision_against_brute_force(const cm::NetworkModel& net) {
  cm::Communicator comm(cm::Topology::with_gpus(16), net);
  const auto sched = cc::AdaptiveSchedule::step_lr(25);
  const perf::CommLookupTable table(comm);
  const auto dev = compso::gpusim::DeviceModel::a100();

  ct::Rng grad_rng(8);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), grad_rng);
  const auto layer_bytes = mixed_layer_bytes(24);
  ct::Rng rng(2026);

  // --- encoder: brute-force every registered codec individually ---
  const auto stream = stage0_lossy_stream(sched, grad, rng);
  const auto scores = perf::score_encoders(stream, dev, table);
  double best_time = std::numeric_limits<double>::infinity();
  for (codec::CodecKind kind : codec::kAllCodecKinds) {
    const auto single = perf::score_encoders(
        stream, dev, table, std::span<const codec::CodecKind>(&kind, 1));
    ASSERT_EQ(single.size(), 1U);
    best_time = std::min(best_time, single.front().est_total_time);
  }
  ASSERT_EQ(scores.size(), 8U);
  EXPECT_DOUBLE_EQ(scores.front().est_total_time, best_time);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_LE(scores[i - 1].est_total_time, scores[i].est_total_time);
  }

  // --- warm-up: the k rounds folded by hand from a replayed Rng ---
  const auto compressor =
      cp::make_compso(sched.params_at(0, scores.front().kind));
  ct::Rng replay = rng;
  const auto profile = warmup(*compressor, grad, dev, table, rng);
  const std::size_t n = grad.size() * sizeof(float);
  const double in_bytes = static_cast<double>(n);
  double orig = 0.0, comp = 0.0, comp_s = 0.0, decomp_s = 0.0;
  for (std::size_t k = 0; k < kWarmupRounds; ++k) {
    const auto payload = compressor->compress(grad, replay);
    orig += in_bytes;
    comp += static_cast<double>(payload.size());
    comp_s += in_bytes /
              compressor->modeled_throughput(dev, n, payload.size());
    decomp_s += static_cast<double>(payload.size()) /
                compressor->modeled_throughput(dev, payload.size(), n);
  }
  EXPECT_EQ(profile.iterations, kWarmupRounds);
  EXPECT_DOUBLE_EQ(profile.compression_ratio, orig / comp);
  EXPECT_DOUBLE_EQ(profile.comp_throughput, orig / comp_s);
  EXPECT_DOUBLE_EQ(profile.decomp_throughput, comp / decomp_s);
  EXPECT_DOUBLE_EQ(profile.comm_fraction, kCommFraction);

  // --- aggregation: brute-force Eq. 5 over every candidate m ---
  const auto decision = perf::choose_aggregation_factor(
      layer_bytes, profile, *compressor, dev, table);
  EXPECT_EQ(decision.candidate_end_to_end.size(), 6U);
  double best_e2e = 0.0;
  std::size_t best_m = 1;
  for (std::size_t m : {1UL, 2UL, 4UL, 8UL, 16UL, 32UL}) {
    const double e2e =
        brute_force_e2e(m, layer_bytes, profile, *compressor, dev, table);
    if (e2e > best_e2e) {  // strict >: ties keep the smallest factor.
      best_e2e = e2e;
      best_m = m;
    }
  }
  EXPECT_GE(decision.factor, 1U);
  EXPECT_EQ(decision.factor, best_m);
  EXPECT_DOUBLE_EQ(decision.est_end_to_end, best_e2e);
  EXPECT_GT(best_e2e, 1.0);
}

TEST(TunerDiff, MatchesBruteForceOnPlatform1) {
  check_decision_against_brute_force(cm::NetworkModel::platform1());
}

TEST(TunerDiff, MatchesBruteForceOnPlatform2) {
  check_decision_against_brute_force(cm::NetworkModel::platform2());
}

TEST(TunerDiff, AggregationTieBreaksToSmallestFactor) {
  // With no layers every candidate estimates the identical end-to-end
  // speedup; the strict-> argmax must keep the first (smallest) factor.
  cm::Communicator comm(cm::Topology::with_gpus(8),
                        cm::NetworkModel::platform1());
  const perf::CommLookupTable table(comm);
  const auto dev = compso::gpusim::DeviceModel::a100();
  ct::Rng rng(9);
  const auto grad =
      ct::synthetic_gradient(1 << 12, ct::GradientProfile::kfac(), rng);
  const auto compressor = cp::make_compso({});
  const auto profile = warmup(*compressor, grad, dev, table, rng);
  const auto decision =
      perf::choose_aggregation_factor({}, profile, *compressor, dev, table);
  EXPECT_EQ(decision.factor, 1U);
}

TEST(TunerDiff, CandidateListMatchesPaper) {
  // The default candidate list is the paper's {1, 2, 4, 8, 16, 32}: the
  // default call scores exactly what the explicit list scores, on more
  // layers than the largest candidate, where every estimate differs.
  cm::Communicator comm(cm::Topology::with_gpus(16),
                        cm::NetworkModel::platform1());
  const perf::CommLookupTable table(comm);
  const auto dev = compso::gpusim::DeviceModel::a100();
  ct::Rng rng(8);
  const auto grad =
      ct::synthetic_gradient(1 << 14, ct::GradientProfile::kfac(), rng);
  const auto compressor = cp::make_compso({});
  const auto profile = warmup(*compressor, grad, dev, table, rng);
  const auto layer_bytes = mixed_layer_bytes(40);
  const auto by_default = perf::choose_aggregation_factor(
      layer_bytes, profile, *compressor, dev, table);
  const auto explicit_list = perf::choose_aggregation_factor(
      layer_bytes, profile, *compressor, dev, table, {1, 2, 4, 8, 16, 32});
  const auto& e2e = by_default.candidate_end_to_end;
  ASSERT_EQ(e2e.size(), 6U);
  for (std::size_t i = 1; i < e2e.size(); ++i) {
    ASSERT_NE(e2e[i - 1], e2e[i]);
  }
  EXPECT_EQ(e2e, explicit_list.candidate_end_to_end);
}

}  // namespace
