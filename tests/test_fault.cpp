// Fault injection and recovery: deterministic FaultPlans, transport-level
// damage in the collectives, rank eviction (world-shrink), and the
// end-to-end recovery policies of the fault-tolerant trainer — bounded
// decode retries (bit-exact vs a fault-free run), uncompressed fallback /
// layer degradation, non-finite step skips with adaptive-bound tightening,
// and the crash drill from the ISSUE acceptance criteria.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cm = compso::comm;
namespace core = compso::core;

namespace {

core::FtTrainerConfig small_config(core::OptimizerKind kind) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 4242};
  cfg.optimizer = kind;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 40;
  return cfg;
}

double relative_l2(const std::vector<float>& a, const std::vector<float>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / (den + 1e-12));
}

TEST(FaultPlan, RandomIsDeterministicAndInRange) {
  const auto a = cm::FaultPlan::random(16, 10, 4, 99);
  const auto b = cm::FaultPlan::random(16, 10, 4, 99);
  ASSERT_EQ(a.events().size(), 16U);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].iteration, b.events()[i].iteration);
    EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_LT(a.events()[i].iteration, 10U);
    EXPECT_LT(a.events()[i].rank, 4U);
    EXPECT_NE(a.events()[i].kind, cm::FaultKind::kCrash);  // transient only
  }
}

TEST(FaultInjector, EventsAreOneShot) {
  cm::FaultInjector injector(cm::FaultPlan{}.corrupt(3, 1), 1);
  injector.begin_iteration(3);
  EXPECT_TRUE(injector.pending(cm::FaultKind::kCorruptPayload));
  EXPECT_FALSE(injector.take(cm::FaultKind::kCorruptPayload, 0));
  EXPECT_TRUE(injector.take(cm::FaultKind::kCorruptPayload, 1));
  EXPECT_FALSE(injector.take(cm::FaultKind::kCorruptPayload, 1));
  EXPECT_EQ(injector.fired_count(), 1U);
}

// Whole-payload transport events land on round 0 of the next chunked
// allgatherv: the entry of every other rank, and every other round, is
// delivered intact.
TEST(FaultInjector, DropRemovesEntryFromGatheredStream) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  cm::FaultInjector injector(cm::FaultPlan{}.drop(0, 2), 5);
  comm.set_fault_injector(&injector);
  comm.begin_iteration(0);
  std::vector<std::vector<std::uint8_t>> send(4);
  std::vector<std::span<const std::uint8_t>> frames;
  for (std::size_t r = 0; r < 4; ++r) {
    send[r].assign(4, static_cast<std::uint8_t>(r));
    frames.emplace_back(send[r]);
  }
  std::vector<std::vector<std::uint8_t>> recv;
  comm.allgatherv_chunks(frames, recv, 1);  // not round 0: event waits.
  EXPECT_EQ(comm.recovery().drops_injected, 0U);
  EXPECT_EQ(recv[2], send[2]);
  comm.allgatherv_chunks(frames, recv, 0);
  EXPECT_EQ(comm.recovery().drops_injected, 1U);
  EXPECT_TRUE(recv[2].empty());  // rank 2's bytes vanished in flight
  for (std::size_t r : {0UL, 1UL, 3UL}) EXPECT_EQ(recv[r], send[r]);
  // A retry of the same round sees clean data (one-shot event).
  comm.allgatherv_chunks(frames, recv, 0);
  EXPECT_EQ(recv[2], send[2]);
  EXPECT_EQ(comm.recovery().drops_injected, 1U);
}

TEST(FaultInjector, TruncateShortensOneEntry) {
  cm::Communicator comm(cm::Topology::with_gpus(3),
                        cm::NetworkModel::platform1());
  cm::FaultInjector injector(cm::FaultPlan{}.truncate(1, 0), 5);
  comm.set_fault_injector(&injector);
  comm.begin_iteration(1);
  std::vector<std::vector<std::uint8_t>> send(3);
  std::vector<std::span<const std::uint8_t>> frames;
  for (auto& s : send) {
    s.assign(8, 0x7F);
    frames.emplace_back(s);
  }
  std::vector<std::vector<std::uint8_t>> recv;
  comm.allgatherv_chunks(frames, recv, 0);
  EXPECT_EQ(comm.recovery().truncations_injected, 1U);
  EXPECT_LT(recv[0].size(), 8U);
  EXPECT_EQ(recv[1], send[1]);  // only rank 0's entry lost bytes
  EXPECT_EQ(recv[2], send[2]);
}

TEST(Eviction, CollectivesRunOverSurvivors) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  comm.evict(1);
  comm.evict(1);  // idempotent
  EXPECT_EQ(comm.recovery().evictions, 1U);
  EXPECT_EQ(comm.active_count(), 3U);
  EXPECT_EQ(comm.active_ranks(), (std::vector<std::size_t>{0, 2, 3}));

  std::vector<std::vector<float>> bufs(4, std::vector<float>(2, 1.0F));
  bufs[1] = {100.0F, 100.0F};  // dead rank's buffer must not contribute
  std::vector<std::span<float>> views;
  for (auto& b : bufs) views.push_back(b);
  comm.allreduce_sum(views);
  for (std::size_t r : comm.active_ranks()) {
    EXPECT_FLOAT_EQ(bufs[r][0], 3.0F);
  }
  EXPECT_FLOAT_EQ(bufs[1][0], 100.0F);  // dead rank receives nothing
}

TEST(Eviction, LastRankCannotBeEvicted) {
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  comm.evict(0);
  EXPECT_THROW(comm.evict(1), std::logic_error);
}

// A crash is detected, not announced: the plan only stops the rank's
// heartbeats, and eviction comes out of the membership ladder — missed
// beats at the crash step (deadline wait + step exclusion), suspicion at
// the second miss, backed-off probes, then eviction. The FaultPlan is
// never consulted as an oracle.
TEST(Eviction, CrashDetectionWalksTheHeartbeatLadder) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  cm::FaultInjector injector(cm::FaultPlan{}.crash(2, 3), 5);
  comm.set_fault_injector(&injector);
  comm.begin_iteration(1);
  EXPECT_TRUE(comm.is_active(3));
  EXPECT_TRUE(comm.is_participating(3));

  // Crash step: first missed heartbeat. The group waits out the straggler
  // deadline, then continues without rank 3 — no eviction yet.
  comm.begin_iteration(2);
  EXPECT_TRUE(comm.is_active(3));
  EXPECT_FALSE(comm.is_participating(3));
  EXPECT_EQ(comm.membership().phase(3), cm::RankPhase::kHealthy);
  EXPECT_EQ(comm.recovery().heartbeat_misses, 1U);
  EXPECT_EQ(comm.recovery().deadline_waits, 1U);
  EXPECT_EQ(comm.recovery().deadline_exclusions, 1U);
  EXPECT_EQ(comm.recovery().evictions, 0U);

  // Second miss: suspicion. Probes back off (t+1, then t+2) and only
  // their exhaustion evicts.
  comm.begin_iteration(3);
  EXPECT_EQ(comm.membership().phase(3), cm::RankPhase::kSuspect);
  EXPECT_EQ(comm.recovery().suspicions, 1U);
  EXPECT_EQ(comm.recovery().evictions, 0U);
  comm.begin_iteration(4);  // probe 1 fails, interval doubles
  EXPECT_EQ(comm.recovery().evictions, 0U);
  comm.begin_iteration(5);  // inside backoff window: no probe
  comm.begin_iteration(6);  // probe 2 fails -> evict
  EXPECT_FALSE(comm.is_active(3));
  EXPECT_EQ(comm.membership().phase(3), cm::RankPhase::kEvicted);
  EXPECT_EQ(comm.recovery().evictions, 1U);
  // After eviction the ledger stops charging misses for the dead rank.
  const auto misses = comm.recovery().heartbeat_misses;
  comm.begin_iteration(7);
  EXPECT_EQ(comm.recovery().heartbeat_misses, misses);
}

// Transient transport faults are absorbed by the bounded re-send retry:
// the same compressed payloads go through a fresh collective, so the run's
// arithmetic — and therefore its final parameters — is bit-exact vs a
// fault-free run. Stragglers only move simulated clocks.
TEST(Recovery, TransientFaultsAreBitExactAfterRetry) {
  for (const auto kind : {core::OptimizerKind::kKfac,
                          core::OptimizerKind::kSgd}) {
    core::FaultTolerantTrainer clean(small_config(kind));
    clean.run(12);

    core::FaultTolerantTrainer faulty(small_config(kind));
    faulty.set_fault_plan(cm::FaultPlan{}
                              .corrupt(3, 0)
                              .truncate(5, 1)
                              .drop(7, 0)
                              .straggler(4, 2, 2.5),
                          77);
    faulty.run(12);

    const auto& rc = faulty.comm().recovery();
    EXPECT_EQ(rc.corrupt_injected, 1U);
    EXPECT_EQ(rc.truncations_injected, 1U);
    EXPECT_EQ(rc.drops_injected, 1U);
    EXPECT_EQ(rc.straggler_events, 1U);
    EXPECT_GE(rc.decode_retries, 3U);
    EXPECT_EQ(rc.decode_failures, 0U);
    EXPECT_EQ(rc.nonfinite_skips, 0U);
    EXPECT_EQ(faulty.parameters(), clean.parameters());
    // The straggler's stall is visible in the simulated clock.
    EXPECT_GT(faulty.comm().clocks().max_time(),
              clean.comm().clocks().max_time() + 2.0);
  }
}

TEST(Recovery, RetriesExhaustedFallsBackAndDegrades) {
  // The ladder at its constants: one-shot corruptions of rank 1's payload,
  // one per attempt of the step's first layer exchange, exhaust the
  // kMaxDecodeRetries re-sends, so that layer-step falls back; the same on
  // kFallbackAfter consecutive steps degrades the layer.
  namespace opt = compso::optim;
  const std::size_t first = 2;
  cm::FaultPlan plan;
  for (std::size_t t = first; t < first + opt::kFallbackAfter; ++t) {
    for (std::size_t k = 0; k <= opt::kMaxDecodeRetries; ++k) {
      plan.corrupt(t, 1);
    }
  }
  core::FaultTolerantTrainer trainer(small_config(core::OptimizerKind::kSgd));
  trainer.set_fault_plan(plan, 31);
  const auto& rc = trainer.comm().recovery();
  trainer.run(first + 1);
  // Exhaustion, then fallback: every attempt of one step failed.
  EXPECT_EQ(rc.decode_retries, opt::kMaxDecodeRetries);
  EXPECT_EQ(rc.decode_failures, 1U);
  EXPECT_EQ(rc.fallback_steps, 1U);
  EXPECT_EQ(rc.degraded_layers, 0U);
  trainer.run(opt::kFallbackAfter - 2);
  EXPECT_EQ(rc.degraded_layers, 0U);
  // Degradation on the kFallbackAfter-th consecutive failing step.
  trainer.run(1);
  EXPECT_EQ(rc.corrupt_injected,
            opt::kFallbackAfter * (opt::kMaxDecodeRetries + 1));
  EXPECT_EQ(rc.decode_retries, opt::kFallbackAfter * opt::kMaxDecodeRetries);
  EXPECT_EQ(rc.decode_failures, opt::kFallbackAfter);
  EXPECT_EQ(rc.fallback_steps, opt::kFallbackAfter);
  EXPECT_EQ(rc.degraded_layers, 1U);
  trainer.run(2);
  for (const float p : trainer.parameters()) {
    ASSERT_TRUE(std::isfinite(p));
  }
}

TEST(Recovery, NanGradientSkipsStepAndTightensBounds) {
  for (const auto kind : {core::OptimizerKind::kKfac,
                          core::OptimizerKind::kSgd}) {
    core::FaultTolerantTrainer trainer(small_config(kind));
    trainer.set_fault_plan(cm::FaultPlan{}.nan_gradient(2, 1), 13);
    trainer.run(8);
    const auto& rc = trainer.comm().recovery();
    EXPECT_GE(rc.nonfinite_skips, 1U);
    EXPECT_EQ(rc.bound_tightenings, 1U);
    EXPECT_TRUE(trainer.bounds_tightened());
    for (const float p : trainer.parameters()) {
      ASSERT_TRUE(std::isfinite(p));
    }
  }
}

TEST(Recovery, PolicyDisabledFailsFast) {
  auto cfg = small_config(core::OptimizerKind::kKfac);
  cfg.recovery.enabled = false;
  {
    core::FaultTolerantTrainer trainer(cfg);
    trainer.set_fault_plan(cm::FaultPlan{}.corrupt(1, 0), 3);
    EXPECT_THROW(trainer.run(4), compso::PayloadError);
  }
  {
    core::FaultTolerantTrainer trainer(cfg);
    trainer.set_fault_plan(cm::FaultPlan{}.nan_gradient(1, 0), 3);
    EXPECT_THROW(trainer.run(4), compso::NonFiniteError);
  }
}

// The ISSUE acceptance drill: corruption + straggler + one crash, end to
// end. The run completes without throwing, RecoveryStats records each
// event, and the final parameters stay within a loose bound of the
// fault-free run (the post-crash average is over 3 of 4 ranks).
TEST(Recovery, EndToEndFaultDrill) {
  auto cfg = small_config(core::OptimizerKind::kKfac);
  core::FaultTolerantTrainer clean(cfg);
  clean.run(16);

  core::FaultTolerantTrainer faulty(cfg);
  faulty.set_fault_plan(cm::FaultPlan{}
                            .corrupt(3, 0)
                            .straggler(5, 1, 4.0)
                            .crash(9, 3),
                        2024);
  std::vector<double> losses;
  ASSERT_NO_THROW(losses = faulty.run(16));
  ASSERT_EQ(losses.size(), 16U);
  for (const double l : losses) {
    ASSERT_TRUE(std::isfinite(l));
  }

  const auto& rc = faulty.comm().recovery();
  EXPECT_EQ(rc.corrupt_injected, 1U);
  EXPECT_EQ(rc.straggler_events, 1U);
  EXPECT_EQ(rc.evictions, 1U);
  EXPECT_GE(rc.faults_injected(), 2U);
  EXPECT_GE(rc.recovery_actions(), 2U);
  EXPECT_EQ(faulty.comm().active_count(), 3U);
  EXPECT_FALSE(rc.to_string().empty());

  // 7 of 16 iterations ran on the shrunken world: trajectories diverge,
  // but stay in the same basin. The bound is loose by design — the exact
  // drift depends on the stochastic-rounding dither schedule, which is an
  // implementation detail (e.g. per-task counter-derived Rng streams).
  const auto a = faulty.parameters();
  const auto b = clean.parameters();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LT(relative_l2(a, b), 0.75);
  EXPECT_GT(faulty.evaluate(), 0.5);
}

}  // namespace
