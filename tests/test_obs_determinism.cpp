// Deterministic observability across the COMPSO pipeline (DESIGN.md §12):
// with the tracer driven by the simulated comm clock, the exported
// trace.json and metrics snapshot are byte-identical at any engine thread
// count and across checkpoint/resume, and the byte counters reconcile
// exactly with the Communicator's CommStats / RecoveryStats.
//
// The fault plans here use drop / straggler / nan-gradient events only:
// kCorruptPayload consumes the injector's RNG to synthesize damage, so
// payload bytes after a corrupt event depend on injector RNG state, which
// a resumed run does not replay.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace obs = compso::obs;

namespace {

core::FtTrainerConfig obs_config(std::size_t engine_threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 4242};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 40;
  cfg.engine_threads = engine_threads;
  return cfg;
}

cm::FaultPlan resume_safe_plan() {
  return cm::FaultPlan{}
      .drop(2, 1)
      .straggler(4, 2, 0.25)
      .nan_gradient(6, 0);
}

struct Exports {
  std::string trace;
  std::string metrics;
};

/// Runs `steps` iterations with a fresh registry + tracer attached,
/// tracer driven by the simulated comm clock (deterministic).
Exports run_with_obs(std::size_t engine_threads, std::size_t steps,
                     bool with_faults) {
  core::FaultTolerantTrainer trainer(obs_config(engine_threads));
  if (with_faults) trainer.set_fault_plan(resume_safe_plan(), 77);

  obs::MetricsRegistry registry;
  const auto clock = cm::sim_time_clock(trainer.comm().clocks());
  obs::Tracer tracer(&clock);
  trainer.set_obs({.metrics = &registry, .tracer = &tracer});

  trainer.run(steps);
  return {tracer.trace_json(), registry.to_json()};
}

TEST(ObsDeterminism, ExportsByteIdenticalAcrossEngineThreadCounts) {
  const auto one = run_with_obs(1, 10, /*with_faults=*/false);
  const auto two = run_with_obs(2, 10, /*with_faults=*/false);
  const auto eight = run_with_obs(8, 10, /*with_faults=*/false);
  EXPECT_EQ(one.trace, two.trace);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.metrics, two.metrics);
  EXPECT_EQ(one.metrics, eight.metrics);
  EXPECT_EQ(obs::validate_trace(one.trace), std::nullopt);
}

TEST(ObsDeterminism, ExportsByteIdenticalAcrossThreadCountsUnderFaults) {
  const auto one = run_with_obs(1, 10, /*with_faults=*/true);
  const auto eight = run_with_obs(8, 10, /*with_faults=*/true);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(one.metrics, eight.metrics);
}

TEST(ObsDeterminism, CommByteCountersReconcileExactlyWithCommStats) {
  core::FaultTolerantTrainer trainer(obs_config(0));
  obs::MetricsRegistry registry;
  const auto clock = cm::sim_time_clock(trainer.comm().clocks());
  obs::Tracer tracer(&clock);
  trainer.set_obs({.metrics = &registry, .tracer = &tracer});

  trainer.run(8);
  const auto& stats = trainer.comm().stats();
  // The obs counters increment with the exact expressions CommStats uses,
  // so bytes reconcile to the bit (times only approximately: per-call
  // llround-to-ns sums differ from the rounded sum of seconds).
  EXPECT_EQ(registry.counter("comm.allreduce.bytes"), stats.allreduce_bytes);
  EXPECT_EQ(registry.counter("comm.allgather.bytes"), stats.allgather_bytes);
  EXPECT_GT(registry.counter("comm.allreduce.calls"), 0U);
  EXPECT_GT(registry.counter("comm.allgather.calls"), 0U);
  const double sim_s =
      static_cast<double>(registry.counter("comm.allreduce.sim_ns")) * 1e-9;
  EXPECT_NEAR(sim_s, stats.allreduce_s, 1e-6 * (1.0 + stats.allreduce_s));
}

TEST(ObsDeterminism, RecoveryCountersReconcileWithRecoveryStats) {
  core::FaultTolerantTrainer trainer(obs_config(0));
  trainer.set_fault_plan(cm::FaultPlan{}
                             .drop(1, 1)
                             .drop(3, 2)
                             .truncate(4, 0)
                             .straggler(5, 3, 0.5)
                             .nan_gradient(6, 1),
                         123);
  obs::MetricsRegistry registry;
  const auto clock = cm::sim_time_clock(trainer.comm().clocks());
  obs::Tracer tracer(&clock);
  trainer.set_obs({.metrics = &registry, .tracer = &tracer});

  trainer.run(10);
  const auto& rc = trainer.comm().recovery();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"recovery.corrupt_injected", rc.corrupt_injected},
      {"recovery.drops_injected", rc.drops_injected},
      {"recovery.truncations_injected", rc.truncations_injected},
      {"recovery.straggler_events", rc.straggler_events},
      {"recovery.decode_retries", rc.decode_retries},
      {"recovery.decode_failures", rc.decode_failures},
      {"recovery.fallback_steps", rc.fallback_steps},
      {"recovery.degraded_layers", rc.degraded_layers},
      {"recovery.evictions", rc.evictions},
      {"recovery.nonfinite_skips", rc.nonfinite_skips},
      {"recovery.bound_tightenings", rc.bound_tightenings},
      {"recovery.checkpoint_saves", rc.checkpoint_saves},
      {"recovery.checkpoint_restores", rc.checkpoint_restores},
  };
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(registry.counter(name), value) << name;
  }
  // The plan must actually have exercised the interesting paths.
  EXPECT_EQ(rc.drops_injected, 2U);
  EXPECT_EQ(rc.straggler_events, 1U);
  EXPECT_GE(rc.nonfinite_skips, 1U);
  EXPECT_GE(rc.bound_tightenings, 1U);
}

TEST(ObsDeterminism, SaveResumeExportsByteIdentical) {
  constexpr std::size_t kSplit = 8, kTail = 8;

  // Uninterrupted run: train to the split point, then attach fresh obs
  // and record the tail.
  core::FaultTolerantTrainer a(obs_config(0));
  a.set_fault_plan(resume_safe_plan(), 77);
  a.run(kSplit);
  obs::MetricsRegistry reg_a;
  const auto clock_a = cm::sim_time_clock(a.comm().clocks());
  obs::Tracer tracer_a(&clock_a);
  a.set_obs({.metrics = &reg_a, .tracer = &tracer_a});
  a.run(kTail);

  // Interrupted run: train to the split point, checkpoint, restore into a
  // fresh trainer, attach fresh obs at the same logical step, record the
  // same tail.
  core::FaultTolerantTrainer b(obs_config(0));
  b.set_fault_plan(resume_safe_plan(), 77);
  b.run(kSplit);
  const auto frame = b.checkpoint();

  core::FaultTolerantTrainer c(obs_config(0));
  c.restore(frame);
  c.set_fault_plan(resume_safe_plan(), 77);
  ASSERT_EQ(c.iteration(), kSplit);
  obs::MetricsRegistry reg_c;
  const auto clock_c = cm::sim_time_clock(c.comm().clocks());
  obs::Tracer tracer_c(&clock_c);
  c.set_obs({.metrics = &reg_c, .tracer = &tracer_c});
  c.run(kTail);

  // The checkpoint carries the simulated per-rank clocks, so the resumed
  // trainer replays the exact absolute timeline: every llround-to-ns
  // conversion sees bit-identical doubles and the exports match bytewise.
  // (Relative timestamps alone would not survive — llround((T+dt)e9) -
  // llround(T*1e9) need not equal llround(dt*1e9).)
  EXPECT_EQ(tracer_a.trace_json(), tracer_c.trace_json());
  EXPECT_EQ(reg_a.to_json(), reg_c.to_json());
  EXPECT_EQ(obs::validate_trace(tracer_a.trace_json()), std::nullopt);
}

/// The metrics export without the pool's own counters, which only a run
/// with engine threads has.
std::string without_pool_counters(const obs::MetricsRegistry& registry) {
  std::istringstream in(registry.to_json());
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"pool.") == std::string::npos) out += line + '\n';
  }
  return out;
}

// Numerical health of the eigh refresh: on every refresh step each
// factor's QL iteration count lands in kfac.eigh_iterations and a factor
// that hit the cap in kfac.eigh_nonconverged, and the subnormal census
// (kfac.subnormal_values) reads 0 because every thread of the step runs
// flushed. All of it is recorded on the main thread, so the snapshot stays
// byte-identical at any engine thread count.
TEST(ObsDeterminism, EighHealthCoversEveryFactorOfEveryRefresh) {
  std::string serial_metrics;
  for (const std::size_t threads : {0UL, 2UL, 4UL}) {
    SCOPED_TRACE(testing::Message() << "engine threads " << threads);
    core::FaultTolerantTrainer trainer(obs_config(threads));
    obs::MetricsRegistry registry;
    const auto clock = cm::sim_time_clock(trainer.comm().clocks());
    obs::Tracer tracer(&clock);
    trainer.set_obs({.metrics = &registry, .tracer = &tracer});
    const auto& kfac = *trainer.kfac();

    std::uint64_t refreshes = 0, sweeps = 0, nonconverged = 0;
    for (std::size_t t = 0; t < 12; ++t) {
      trainer.step();
      if (registry.counter("kfac.eigh_refreshes") == refreshes) continue;
      ++refreshes;
      for (std::size_t s = 0; s < kfac.layer_count(); ++s) {
        for (const auto* eig : {&kfac.layer_state(s).eigen_a(),
                                &kfac.layer_state(s).eigen_g()}) {
          sweeps += static_cast<std::uint64_t>(eig->sweeps_used);
          nonconverged += eig->converged ? 0 : 1;
        }
      }
    }
    ASSERT_EQ(refreshes, 3U);  // steps 0, 5 and 10.
    const auto snap = registry.snapshot();
    const auto& hist = snap.histograms.at("kfac.eigh_iterations");
    EXPECT_EQ(hist.count, 2 * kfac.layer_count() * refreshes);
    EXPECT_EQ(hist.sum, sweeps);
    EXPECT_GT(sweeps, 0U);
    EXPECT_EQ(snap.counters.at("kfac.eigh_nonconverged"), nonconverged);
    EXPECT_EQ(snap.counters.at("kfac.subnormal_values"), 0U);
    if (threads == 0) {
      serial_metrics = registry.to_json();
    } else {
      EXPECT_EQ(without_pool_counters(registry), serial_metrics);
    }
  }
}

}  // namespace
