// Fault-storm soak (DESIGN.md §14): ≥200 training steps under a seeded
// storm of crashes, recoveries, heartbeat silences, stragglers, dropped
// payloads, and a NaN poisoning — every membership rung fires (suspicion,
// probe backoff, deadline exclusion, eviction, readmission, resync), and
// the run stays bit-deterministic end to end:
//
//  - obs transcripts and metrics exports are byte-identical at 1/2/8
//    engine threads (the tracer rides the simulated comm clock);
//  - final parameters are bit-identical across thread counts, and every
//    replica — including ranks that crashed and rejoined mid-storm —
//    matches the lead bitwise;
//  - a checkpoint/restore in the middle of the storm continues to the
//    identical final parameters.
//
// The plan uses only resume-safe fault kinds (crash / recover / silence /
// straggler / drop / nan-gradient): none consumes the injector's RNG, so
// the resumed leg faces the exact storm the uninterrupted run saw.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace obs = compso::obs;

namespace {

constexpr std::size_t kStormSteps = 200;
constexpr std::uint64_t kStormSeed = 2026;

core::FtTrainerConfig storm_config(std::size_t engine_threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 10,
              .classes = 3,
              .hidden = 10,
              .depth = 2,
              .noise = 0.6F,
              .seed = 909};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = kStormSteps;
  cfg.engine_threads = engine_threads;
  return cfg;
}

/// Three full crash->evict->recover->rejoin cycles, three silences long
/// enough to reach the suspicion/probe rungs, one deadline-blowing and one
/// benign straggler, three dropped payloads, one NaN gradient.
cm::FaultPlan storm_plan() {
  return cm::FaultPlan{}
      .crash(10, 1)
      .drop(15, 2)
      .recover(25, 1)
      .silence(40, 2, 3)
      .nan_gradient(50, 2)
      .crash(60, 3)
      .straggler(75, 2, 12.0)
      .drop(85, 0)
      .recover(90, 3)
      .silence(120, 0, 4)
      .straggler(140, 0, 2.0)
      .drop(155, 1)
      .silence(170, 3, 2)
      .crash(180, 0)
      .recover(190, 0);
}

struct StormResult {
  std::string trace;
  std::string metrics;
  std::vector<float> params;
};

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

StormResult run_storm(std::size_t engine_threads) {
  core::FaultTolerantTrainer trainer(storm_config(engine_threads));
  trainer.set_fault_plan(storm_plan(), kStormSeed);
  obs::MetricsRegistry registry;
  const auto clock = cm::sim_time_clock(trainer.comm().clocks());
  obs::Tracer tracer(&clock);
  trainer.set_obs({.metrics = &registry, .tracer = &tracer});

  trainer.run(kStormSteps);

  // The storm must actually have walked every rung of the ladder.
  const auto& rc = trainer.comm().recovery();
  EXPECT_EQ(rc.evictions, 3U);
  EXPECT_EQ(rc.readmissions, 3U);
  EXPECT_GE(rc.suspicions, 6U);
  EXPECT_GE(rc.heartbeat_misses, 6U);
  EXPECT_GE(rc.deadline_waits, 4U);
  EXPECT_GE(rc.deadline_exclusions, 4U);
  EXPECT_GE(rc.resyncs, 4U);
  EXPECT_EQ(rc.drops_injected, 3U);
  EXPECT_EQ(rc.straggler_events, 2U);
  EXPECT_GE(rc.nonfinite_skips, 1U);

  // Everybody healed: full group, all healthy, every replica bit-equal to
  // the lead (the rejoiners trained on from a survivor's exact state).
  EXPECT_EQ(trainer.comm().active_count(), 4U);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(trainer.comm().membership().phase(r), cm::RankPhase::kHealthy)
        << "rank " << r;
    EXPECT_TRUE(bit_equal(trainer.parameters(), trainer.replica_parameters(r)))
        << "rank " << r;
  }
  EXPECT_EQ(obs::validate_trace(tracer.trace_json()), std::nullopt);
  return {tracer.trace_json(), registry.to_json(), trainer.parameters()};
}

TEST(FaultStorm, TranscriptsAndParamsByteIdenticalAcrossEngineThreads) {
  const auto one = run_storm(1);
  const auto two = run_storm(2);
  const auto eight = run_storm(8);
  EXPECT_EQ(one.trace, two.trace);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.metrics, two.metrics);
  EXPECT_EQ(one.metrics, eight.metrics);
  EXPECT_TRUE(bit_equal(one.params, two.params));
  EXPECT_TRUE(bit_equal(one.params, eight.params));
}

TEST(FaultStorm, SaveResumeMidStormReachesIdenticalFinalParams) {
  // Golden: the uninterrupted storm.
  core::FaultTolerantTrainer golden(storm_config(0));
  golden.set_fault_plan(storm_plan(), kStormSeed);
  golden.run(kStormSteps);

  // Interrupted: checkpoint halfway through (after the first crash cycle
  // and silence, before the second crash), restore into a fresh trainer,
  // ride out the rest of the storm.
  core::FaultTolerantTrainer first_half(storm_config(0));
  first_half.set_fault_plan(storm_plan(), kStormSeed);
  first_half.run(101);
  const auto frame = first_half.checkpoint();

  core::FaultTolerantTrainer resumed(storm_config(0));
  resumed.restore(frame);
  resumed.set_fault_plan(storm_plan(), kStormSeed);
  ASSERT_EQ(resumed.iteration(), 101U);
  resumed.run(kStormSteps - 101);

  EXPECT_TRUE(bit_equal(golden.parameters(), resumed.parameters()));
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(
        bit_equal(golden.replica_parameters(r), resumed.replica_parameters(r)))
        << "rank " << r;
  }
  // The counters ride the checkpoint too: the resumed run's totals match
  // the uninterrupted run's exactly.
  EXPECT_EQ(resumed.comm().recovery().evictions,
            golden.comm().recovery().evictions);
  EXPECT_EQ(resumed.comm().recovery().readmissions,
            golden.comm().recovery().readmissions);
  EXPECT_EQ(resumed.comm().recovery().resyncs,
            golden.comm().recovery().resyncs);
}

}  // namespace
