// Seeded randomized-linear compressors (DESIGN.md §17): unbiasedness and
// variance of the count-sketch / random-projection estimators over ≥1000
// independent seeded draws, counter-derived seed-stream determinism (same
// payload bytes at any engine thread count, counters surviving checkpoint
// resume), and typed PayloadError rejection of truncated / corrupted
// payloads.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

namespace core = compso::core;
namespace ckpt = compso::codec::ckpt;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace sd = compso::compress::sketch_detail;

namespace {

std::vector<float> test_vector(std::size_t n, std::uint64_t seed) {
  ct::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

core::FtTrainerConfig sketch_config(core::CompressorFamily family,
                                    std::size_t threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 99};
  cfg.optimizer = core::OptimizerKind::kSgd;
  cfg.family = family;
  cfg.total_iterations = 30;
  cfg.engine_threads = threads;
  return cfg;
}

// --- estimator properties (≥1000 seeded draws) -----------------------------

/// Runs `draws` independent compress/decompress round trips (each draw
/// advances the stream counter, so each payload gets a fresh seed) and
/// returns per-coordinate mean and mean-squared-error of the estimate.
struct DrawStats {
  std::vector<double> mean;
  std::vector<double> mse;
};

DrawStats accumulate_draws(const cp::GradientCompressor& c,
                           std::span<const float> x, int draws) {
  DrawStats s{std::vector<double>(x.size(), 0.0),
              std::vector<double>(x.size(), 0.0)};
  ct::Rng rng(5);  // counter-derived seeds: the Rng is never actually drawn.
  cp::Bytes payload;
  std::vector<float> decoded;
  for (int d = 0; d < draws; ++d) {
    c.compress_stream_into(0, x, rng, payload);
    c.decompress_into(payload, decoded);
    for (std::size_t i = 0; i < x.size(); ++i) {
      s.mean[i] += decoded[i];
      const double err = static_cast<double>(decoded[i]) - x[i];
      s.mse[i] += err * err;
    }
  }
  for (auto& m : s.mean) m /= draws;
  for (auto& m : s.mse) m /= draws;
  return s;
}

TEST(Sketch, CountSketchEstimatorIsUnbiased) {
  constexpr int kDraws = 1500;
  const auto x = test_vector(64, 3);
  const auto c = cp::make_count_sketch(0.25, 3, 0xA11CE);
  const auto s = accumulate_draws(*c, x, kDraws);
  // Monte-Carlo tolerance: the per-draw estimator variance is bounded by
  // ||x||²/w per row; with 1500 draws the mean settles well inside 0.25.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s.mean[i], x[i], 0.25) << "coordinate " << i;
  }
}

TEST(Sketch, RandomProjectionEstimatorIsUnbiased) {
  constexpr int kDraws = 1500;
  const auto x = test_vector(64, 4);
  const auto c = cp::make_random_projection(0.25, 0xB0B);
  const auto s = accumulate_draws(*c, x, kDraws);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s.mean[i], x[i], 0.3) << "coordinate " << i;
  }
}

TEST(Sketch, VarianceShrinksWithSketchSize) {
  // 4x the sketch budget → roughly 4x less estimator variance. Assert a
  // conservative 2x improvement in summed MSE so Monte-Carlo noise can't
  // flake the test.
  constexpr int kDraws = 1000;
  const auto x = test_vector(64, 6);
  const auto small = cp::make_count_sketch(0.125, 3, 0xC0);
  const auto large = cp::make_count_sketch(0.5, 3, 0xC0);
  const auto s_small = accumulate_draws(*small, x, kDraws);
  const auto s_large = accumulate_draws(*large, x, kDraws);
  double mse_small = 0.0, mse_large = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mse_small += s_small.mse[i];
    mse_large += s_large.mse[i];
  }
  EXPECT_LT(mse_large, mse_small / 2.0);
}

TEST(Sketch, DrawsAreIndependentAcrossCounterAdvance) {
  // Consecutive payloads on one stream must differ (fresh seed per draw)
  // while replaying the same counter (fresh compressor, same base seed)
  // reproduces byte-identical payloads.
  const auto x = test_vector(128, 7);
  const auto a = cp::make_count_sketch(0.25, 3, 42);
  ct::Rng rng(1);
  cp::Bytes p1, p2;
  a->compress_stream_into(9, x, rng, p1);
  a->compress_stream_into(9, x, rng, p2);
  EXPECT_NE(p1, p2);

  const auto b = cp::make_count_sketch(0.25, 3, 42);
  cp::Bytes q1, q2;
  b->compress_stream_into(9, x, rng, q1);
  b->compress_stream_into(9, x, rng, q2);
  EXPECT_EQ(p1, q1);
  EXPECT_EQ(p2, q2);

  // Distinct streams at equal counters also decorrelate.
  cp::Bytes other_stream;
  b->compress_stream_into(10, x, rng, other_stream);
  EXPECT_NE(q1, other_stream);
}

// --- geometry / wire-format contract ---------------------------------------

TEST(Sketch, GeometryHelpersMatchPayloadLayout) {
  // Bucket width scales the total sketch size to ~ratio·n across rows, and
  // never collapses to zero.
  EXPECT_EQ(sd::count_sketch_width(0, 0.25, 3), 0U);  // empty input, no data.
  EXPECT_EQ(sd::count_sketch_width(1200, 0.25, 3), 100U);
  EXPECT_EQ(sd::projection_rows(256, 0.25), 64U);
  EXPECT_GE(sd::projection_rows(1, 0.01), 1U);
  // mix64 is a bijective finalizer: no fixed-point collisions among a few
  // small inputs (sanity, not a statistical test).
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 64; ++i) seen.insert(sd::mix64(i));
  EXPECT_EQ(seen.size(), 64U);
}

TEST(Sketch, RoundTripPreservesCountAndDecodesFinite) {
  ct::Rng rng(3);
  for (const auto* which : {"cs", "rp"}) {
    const auto c = std::string(which) == "cs"
                       ? cp::make_count_sketch(0.25, 3, 77)
                       : cp::make_random_projection(0.25, 77);
    for (const std::size_t n : {1UL, 255UL, 256UL, 257UL, 1000UL}) {
      const auto x = test_vector(n, n + 1);
      const auto decoded = c->decompress(c->compress(x, rng));
      ASSERT_EQ(decoded.size(), n) << which;
      for (const float v : decoded) EXPECT_TRUE(std::isfinite(v)) << which;
    }
  }
}

TEST(Sketch, TruncatedAndCorruptedPayloadsThrowTyped) {
  ct::Rng rng(4);
  const auto x = test_vector(500, 9);
  for (const auto* which : {"cs", "rp"}) {
    const auto c = std::string(which) == "cs"
                       ? cp::make_count_sketch(0.25, 3, 5)
                       : cp::make_random_projection(0.25, 5);
    const auto payload = c->compress(x, rng);
    // Every truncation length, from empty to one-byte-short.
    for (std::size_t len = 0; len < payload.size();
         len += 1 + len / 16) {
      cp::Bytes cut(payload.begin(), payload.begin() + len);
      EXPECT_THROW(c->decompress(cut), compso::PayloadError)
          << which << " len=" << len;
    }
    // Seeded single-byte corruptions: the CRC (or geometry validation)
    // must catch every one.
    ct::Rng mut(11);
    for (int trial = 0; trial < 300; ++trial) {
      auto damaged = payload;
      const std::size_t at = mut.uniform_index(damaged.size());
      damaged[at] ^= static_cast<std::uint8_t>(1U << mut.uniform_index(8));
      EXPECT_THROW(c->decompress(damaged), compso::PayloadError)
          << which << " trial=" << trial;
    }
  }
}

// --- seed-state checkpoint contract ----------------------------------------

TEST(Sketch, SeedStateRoundTripsAndRejectsDamage) {
  const auto c = cp::make_count_sketch(0.25, 3, 123);
  auto* stateful = dynamic_cast<cp::StatefulCompressor*>(c.get());
  ASSERT_NE(stateful, nullptr);
  const auto x = test_vector(64, 1);
  ct::Rng rng(1);
  cp::Bytes payload;
  c->compress_stream_into(0, x, rng, payload);
  c->compress_stream_into(0, x, rng, payload);
  c->compress_stream_into(7, x, rng, payload);

  ckpt::Bytes state;
  stateful->serialize_state(state);

  // Restoring into a fresh instance resumes the exact counter positions:
  // the next payload per stream matches what the original produces next.
  const auto c2 = cp::make_count_sketch(0.25, 3, 123);
  {
    compso::codec::wire::Reader reader(state);
    dynamic_cast<cp::StatefulCompressor*>(c2.get())->deserialize_state(reader);
    EXPECT_EQ(reader.remaining(), 0U);
  }
  cp::Bytes next_a, next_b;
  c->compress_stream_into(0, x, rng, next_a);
  c2->compress_stream_into(0, x, rng, next_b);
  EXPECT_EQ(next_a, next_b);
  c->compress_stream_into(7, x, rng, next_a);
  c2->compress_stream_into(7, x, rng, next_b);
  EXPECT_EQ(next_a, next_b);

  // Damage is rejected with the typed error.
  for (std::size_t cut : {1UL, 4UL, state.size() - 1}) {
    ckpt::Bytes damaged(state.begin(), state.end() - cut);
    compso::codec::wire::Reader reader(damaged);
    EXPECT_THROW(
        dynamic_cast<cp::StatefulCompressor*>(c2.get())->deserialize_state(
            reader),
        compso::PayloadError);
  }
  ckpt::Bytes bad_magic = state;
  bad_magic[0] ^= 0xFF;
  compso::codec::wire::Reader reader(bad_magic);
  EXPECT_THROW(
      dynamic_cast<cp::StatefulCompressor*>(c2.get())->deserialize_state(
          reader),
      compso::PayloadError);
}

// --- trainer integration: determinism matrix --------------------------------

TEST(Sketch, TrainerBitExactAcrossEngineThreads) {
  for (const auto family : {core::CompressorFamily::kCountSketch,
                            core::CompressorFamily::kRandomProjection}) {
    std::vector<float> base;
    for (const std::size_t threads : {0UL, 2UL, 8UL}) {
      core::FaultTolerantTrainer trainer(sketch_config(family, threads));
      trainer.run(10);
      const auto params = trainer.parameters();
      if (threads == 0) {
        base = params;
        continue;
      }
      ASSERT_EQ(params.size(), base.size());
      EXPECT_EQ(
          std::memcmp(params.data(), base.data(), base.size() * sizeof(float)),
          0)
          << "threads=" << threads;
    }
  }
}

TEST(Sketch, TrainerResumeReplaysSeedCounters) {
  // Save at 5, resume, run the tail: the "compressor" CKPT section carries
  // the per-stream counters, so the resumed run's payload seeds — and the
  // whole trajectory — rejoin the straight run bit-exactly.
  core::FaultTolerantTrainer straight(
      sketch_config(core::CompressorFamily::kCountSketch, 2));
  straight.run(12);

  core::FaultTolerantTrainer saver(
      sketch_config(core::CompressorFamily::kCountSketch, 2));
  saver.run(5);
  const auto frame = saver.checkpoint();
  core::FaultTolerantTrainer resumed(
      sketch_config(core::CompressorFamily::kCountSketch, 2));
  resumed.restore(frame);
  ASSERT_EQ(resumed.iteration(), 5U);
  resumed.run(7);

  const auto a = straight.parameters();
  const auto b = resumed.parameters();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

}  // namespace
