// Elastic membership: heartbeat liveness, the straggler-degradation ladder,
// and rank rejoin with checkpoint-sourced re-sync (DESIGN.md §14).
//
// Two levels of coverage:
//  - Membership unit tests drive tick() directly with hand-built clocks to
//    pin the ladder mechanics (miss counting, suspicion threshold, probe
//    backoff spacing, straggle strikes, serialize round-trip).
//  - Trainer-level tests run the whole pipeline through FaultPlan events
//    and assert the end-to-end contracts: detection happens only through
//    heartbeats, a redeemed / readmitted rank re-enters bit-identical to a
//    survivor, and a checkpoint taken mid-rejoin resumes exactly.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace wire = compso::codec::wire;

namespace {

core::FtTrainerConfig small_config(std::size_t engine_threads = 0) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 10,
              .classes = 3,
              .hidden = 10,
              .depth = 2,
              .noise = 0.6F,
              .seed = 321};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 4;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 30;
  cfg.engine_threads = engine_threads;
  return cfg;
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// --- Membership unit level -------------------------------------------------

TEST(MembershipUnit, SilenceWalksSuspicionAndExponentialProbeBackoff) {
  cm::Membership m(4);
  const std::vector<std::uint8_t> active(4, 1);
  std::vector<double> clocks(4, 0.0);

  // Heartbeats from rank 1 are lost for iterations [1, 6) while the rank
  // keeps computing (control-plane partition).
  m.silence(1, 1, 5);

  // t=1: first miss. One missed beat alone does not exclude — the rank is
  // still computing, still inside the deadline, so it participates.
  auto d = m.tick(1, clocks, active);
  EXPECT_EQ(d.misses, 1U);
  EXPECT_EQ(d.participating[1], 1);
  EXPECT_TRUE(d.suspected.empty());
  EXPECT_EQ(m.phase(1), cm::RankPhase::kHealthy);

  // t=2: second consecutive miss hits kSuspectAfterMisses — the rank is
  // suspected and sits out without charging anyone a deadline wait.
  d = m.tick(2, clocks, active);
  ASSERT_EQ(d.suspected.size(), 1U);
  EXPECT_EQ(d.suspected[0], 1U);
  EXPECT_EQ(d.participating[1], 0);
  EXPECT_EQ(d.waited_for, 0U);
  EXPECT_EQ(m.phase(1), cm::RankPhase::kSuspect);

  // t=3: first probe (kProbeBackoffInitial = 1 after suspicion) fails;
  // no eviction yet (kEvictAfterProbes = 2).
  d = m.tick(3, clocks, active);
  EXPECT_TRUE(d.evicted.empty());

  // t=4: inside the widened backoff window (interval doubled to 2) —
  // no probe fires, so nothing can advance the ladder.
  d = m.tick(4, clocks, active);
  EXPECT_TRUE(d.evicted.empty());

  // t=5: second probe fails -> evict. Exactly exponential spacing: probes
  // at t=3 and t=5, never t=4.
  d = m.tick(5, clocks, active);
  ASSERT_EQ(d.evicted.size(), 1U);
  EXPECT_EQ(d.evicted[0], 1U);
  // The tick only *decides*; the Communicator applies the mask flip.
  m.mark_evicted(1);
  EXPECT_EQ(m.phase(1), cm::RankPhase::kEvicted);

  // t=6: the silence expires and the evicted rank heartbeats again — the
  // tick reports it for readmission (the Communicator applies it).
  std::vector<std::uint8_t> without = active;
  without[1] = 0;
  d = m.tick(6, clocks, without);
  ASSERT_EQ(d.readmitted.size(), 1U);
  EXPECT_EQ(d.readmitted[0], 1U);

  // Apply the readmission the way Communicator::readmit_at does, with t=6
  // as the resync step; the next tick promotes the rank back to healthy.
  m.mark_rejoining(1, 6);
  d = m.tick(7, clocks, active);
  EXPECT_EQ(m.phase(1), cm::RankPhase::kHealthy);
  EXPECT_EQ(d.participating[1], 1);
}

TEST(MembershipUnit, ConsecutiveDeadlineExclusionsSuspectAStraggler) {
  cm::Membership m(3);
  const std::vector<std::uint8_t> active(3, 1);
  // Rank 2 heartbeats fine but its clock is hopelessly behind the group's
  // arrival window (far past kStragglerDeadlineS = 8).
  std::vector<double> clocks = {0.0, 0.0, 100.0};

  // Strikes 1 and 2: excluded (continue-without), participants wait the
  // deadline once per step, but no suspicion yet.
  for (std::size_t t = 1; t <= 2; ++t) {
    const auto d = m.tick(t, clocks, active);
    EXPECT_EQ(d.participating[2], 0) << t;
    EXPECT_EQ(d.waited_for, 1U) << t;
    EXPECT_TRUE(d.suspected.empty()) << t;
    EXPECT_EQ(m.phase(2), cm::RankPhase::kHealthy) << t;
  }

  // Strike 3 hits kStraggleSuspectAfter: the rank is suspected and nobody
  // waits for it any more.
  auto d = m.tick(3, clocks, active);
  ASSERT_EQ(d.suspected.size(), 1U);
  EXPECT_EQ(d.suspected[0], 2U);
  EXPECT_EQ(m.phase(2), cm::RankPhase::kSuspect);

  // The straggler catches up: heartbeat + within deadline redeems it into
  // the rejoin ladder (it missed steps, so its replica is stale and must
  // re-sync — never a silent re-entry).
  clocks[2] = 0.5;
  d = m.tick(4, clocks, active);
  ASSERT_EQ(d.redeemed.size(), 1U);
  EXPECT_EQ(d.redeemed[0], 2U);
  EXPECT_EQ(m.phase(2), cm::RankPhase::kRejoining);
  EXPECT_EQ(d.participating[2], 0);

  d = m.tick(5, clocks, active);
  EXPECT_EQ(m.phase(2), cm::RankPhase::kHealthy);
  EXPECT_EQ(d.participating[2], 1);
}

TEST(MembershipUnit, SerializeRoundTripsMidLadderAndRejectsDamage) {
  cm::Membership m(4);
  const std::vector<std::uint8_t> active(4, 1);
  std::vector<double> clocks(4, 0.0);
  m.set_alive(3, false);
  m.tick(1, clocks, active);
  m.tick(2, clocks, active);  // rank 3 now kSuspect with a probe scheduled.
  m.mark_rejoining(2, 2);     // and rank 2 frozen mid-rejoin.

  std::vector<std::uint8_t> body;
  m.serialize(body);

  cm::Membership copy(4);
  wire::Reader reader{wire::ByteView(body)};
  copy.deserialize(reader);
  EXPECT_EQ(copy.phase(3), cm::RankPhase::kSuspect);
  EXPECT_EQ(copy.phase(2), cm::RankPhase::kRejoining);
  EXPECT_EQ(copy.misses(3), m.misses(3));

  // Round-trip exactness: re-serializing the copy yields identical bytes.
  std::vector<std::uint8_t> body2;
  copy.serialize(body2);
  EXPECT_EQ(body, body2);

  // World-size mismatch is a typed error, not a silent partial read.
  cm::Membership wrong_world(3);
  wire::Reader r2{wire::ByteView(body)};
  EXPECT_THROW(wrong_world.deserialize(r2), compso::PayloadError);

  // A phase byte outside the enum is rejected. Layout: u64 count, then
  // per-rank records starting with the phase byte.
  std::vector<std::uint8_t> damaged = body;
  damaged[8] = 7;
  cm::Membership victim(4);
  wire::Reader r3{wire::ByteView(damaged)};
  EXPECT_THROW(victim.deserialize(r3), compso::PayloadError);
}

// --- Trainer level ---------------------------------------------------------

TEST(MembershipTrainer, ShortSilenceIsInvisibleToTraining) {
  // One lost heartbeat stays below the suspicion threshold: the silenced
  // rank keeps participating and the trajectory is bit-identical to clean.
  core::FaultTolerantTrainer clean(small_config());
  clean.run(10);

  core::FaultTolerantTrainer silenced(small_config());
  silenced.set_fault_plan(cm::FaultPlan{}.silence(4, 2, 1), 7);
  silenced.run(10);

  const auto& rc = silenced.comm().recovery();
  EXPECT_EQ(rc.heartbeat_misses, 1U);
  EXPECT_EQ(rc.suspicions, 0U);
  EXPECT_EQ(rc.deadline_waits, 0U);
  EXPECT_EQ(rc.evictions, 0U);
  EXPECT_TRUE(bit_equal(clean.parameters(), silenced.parameters()));
}

TEST(MembershipTrainer, LongSilenceSuspectsThenRedeemsWithResync) {
  // Heartbeats lost for iterations [4, 7): a miss at 4 (still within the
  // suspicion budget, so the rank keeps training), a second miss at 5 that
  // makes it a suspect, a failed probe at 6, redemption into the rejoin
  // ladder when the beat returns at 7, healthy again at 8 — never evicted.
  core::FaultTolerantTrainer trainer(small_config());
  trainer.set_fault_plan(cm::FaultPlan{}.silence(4, 2, 3), 7);
  trainer.run(12);

  const auto& rc = trainer.comm().recovery();
  EXPECT_EQ(rc.heartbeat_misses, 2U);
  EXPECT_EQ(rc.suspicions, 1U);
  EXPECT_EQ(rc.evictions, 0U);
  EXPECT_EQ(rc.readmissions, 0U);
  EXPECT_GE(rc.resyncs, 1U);
  EXPECT_EQ(trainer.comm().membership().phase(2), cm::RankPhase::kHealthy);
  EXPECT_TRUE(trainer.comm().is_participating(2));
  // The redeemed rank's replica was re-synced from a survivor: bit-equal.
  EXPECT_TRUE(bit_equal(trainer.parameters(), trainer.replica_parameters(2)));
}

TEST(MembershipTrainer, StragglerPastDeadlineIsExcludedThenResynced) {
  // A 12 s hiccup blows through the 8 s barrier deadline: participants
  // wait the full deadline once, continue without the rank, and pull it
  // back through the rejoin ladder the next step (stale replicas never
  // silently re-enter). Heartbeats stayed fine throughout, so the
  // suspicion ladder must not fire.
  core::FaultTolerantTrainer trainer(small_config());
  trainer.set_fault_plan(cm::FaultPlan{}.straggler(5, 2, 12.0), 7);
  trainer.run(10);

  const auto& rc = trainer.comm().recovery();
  EXPECT_EQ(rc.deadline_waits, 1U);
  EXPECT_EQ(rc.deadline_exclusions, 1U);
  EXPECT_EQ(rc.heartbeat_misses, 0U);
  EXPECT_EQ(rc.suspicions, 0U);
  EXPECT_EQ(rc.evictions, 0U);
  EXPECT_GE(rc.resyncs, 1U);
  EXPECT_EQ(trainer.comm().membership().phase(2), cm::RankPhase::kHealthy);
  EXPECT_TRUE(bit_equal(trainer.parameters(), trainer.replica_parameters(2)));
}

std::vector<float> crash_recover_params(std::size_t engine_threads) {
  core::FaultTolerantTrainer trainer(small_config(engine_threads));
  trainer.set_fault_plan(cm::FaultPlan{}.crash(3, 1).recover(8, 1), 7);
  trainer.run(14);
  EXPECT_EQ(trainer.comm().recovery().evictions, 1U);
  EXPECT_EQ(trainer.comm().recovery().readmissions, 1U);
  EXPECT_GE(trainer.comm().recovery().resyncs, 1U);
  EXPECT_TRUE(trainer.comm().is_active(1));
  EXPECT_EQ(trainer.comm().membership().phase(1), cm::RankPhase::kHealthy);
  // The readmitted rank trained on from a survivor's exact state.
  EXPECT_TRUE(bit_equal(trainer.parameters(), trainer.replica_parameters(1)));
  return trainer.parameters();
}

TEST(MembershipTrainer, CrashEvictRecoverReadmitsBitExactly) {
  // crash@3 walks the heartbeat ladder to eviction at 7; recover@8 brings
  // the heartbeats back, the rank is readmitted into the rejoin step at 8
  // and participates from 9. The whole cycle is bit-deterministic across
  // engine thread counts.
  const auto one = crash_recover_params(1);
  const auto two = crash_recover_params(2);
  const auto eight = crash_recover_params(8);
  EXPECT_TRUE(bit_equal(one, two));
  EXPECT_TRUE(bit_equal(one, eight));
}

TEST(MembershipTrainer, SaveResumeMidRejoinIsBitExact) {
  const auto plan = cm::FaultPlan{}.crash(3, 1).recover(8, 1);

  // Uninterrupted reference.
  core::FaultTolerantTrainer a(small_config());
  a.set_fault_plan(plan, 7);
  a.run(14);

  // Interrupted run: checkpoint right after the resync step (iteration 8),
  // while rank 1 is still frozen in kRejoining — the nastiest split point.
  core::FaultTolerantTrainer b(small_config());
  b.set_fault_plan(plan, 7);
  b.run(9);
  ASSERT_EQ(b.comm().membership().phase(1), cm::RankPhase::kRejoining);
  const auto frame = b.checkpoint();

  core::FaultTolerantTrainer c(small_config());
  c.restore(frame);
  c.set_fault_plan(plan, 7);
  ASSERT_EQ(c.iteration(), 9U);
  ASSERT_EQ(c.comm().membership().phase(1), cm::RankPhase::kRejoining);
  c.run(5);

  EXPECT_EQ(c.comm().membership().phase(1), cm::RankPhase::kHealthy);
  EXPECT_TRUE(bit_equal(a.parameters(), c.parameters()));
  EXPECT_TRUE(bit_equal(a.replica_parameters(1), c.replica_parameters(1)));
}

TEST(MembershipTrainer, SetActiveMaskValidatesAndRoutesThroughMembership) {
  core::FaultTolerantTrainer trainer(small_config());
  trainer.run(2);
  auto& comm = trainer.comm();

  // Wrong world size and an empty group are rejected loudly.
  EXPECT_THROW(comm.set_active_mask({1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(comm.set_active_mask({0, 0, 0, 0}), std::invalid_argument);

  // A 1->0 edge is an eviction, a 0->1 edge a readmission — both visible
  // in the membership ledger and the recovery counters, never a silent
  // mask flip.
  const auto evictions_before = comm.recovery().evictions;
  comm.set_active_mask({1, 1, 0, 1});
  EXPECT_EQ(comm.recovery().evictions, evictions_before + 1);
  EXPECT_EQ(comm.membership().phase(2), cm::RankPhase::kEvicted);
  EXPECT_FALSE(comm.is_participating(2));

  const auto readmissions_before = comm.recovery().readmissions;
  comm.set_active_mask({1, 1, 1, 1});
  EXPECT_EQ(comm.recovery().readmissions, readmissions_before + 1);
  EXPECT_EQ(comm.membership().phase(2), cm::RankPhase::kHealthy);
  EXPECT_TRUE(comm.is_active(2));
}

}  // namespace
