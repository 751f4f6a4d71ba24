// Tests of the benchmark's own arithmetic (bench_stats.hpp). Build and run:
//
//   cmake --build .bench_build/trainbench --target trainbench_tests
//   .bench_build/trainbench/trainbench_tests

#include "trainbench/bench_stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace trainbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(TailPercentile, HighestLadderStepWithTenBeyond) {
  // p99 needs n >= 1000 to leave 10 beyond; p95 needs n >= 200.
  EXPECT_EQ(tail_percentile_for(10000), 99.9);
  EXPECT_EQ(tail_percentile_for(9999), 99.0);
  EXPECT_EQ(tail_percentile_for(1000), 99.0);
  EXPECT_EQ(tail_percentile_for(999), 95.0);
  EXPECT_EQ(tail_percentile_for(200), 95.0);
  EXPECT_EQ(tail_percentile_for(199), 90.0);
  EXPECT_EQ(tail_percentile_for(100), 90.0);
  EXPECT_EQ(tail_percentile_for(40), 75.0);
  EXPECT_EQ(tail_percentile_for(20), 50.0);
  // Too few samples for ten beyond any ladder step: the median.
  EXPECT_EQ(tail_percentile_for(5), 50.0);
  EXPECT_EQ(tail_percentile_for(0), 50.0);
}

TEST(TailPercentile, NearestRankValueAndCounts) {
  const Tail t = tail_timing(ramp(200), 200);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 190.0);  // rank ceil(0.95 * 200) = 190
  EXPECT_EQ(t.samples, 200U);
  EXPECT_EQ(t.beyond, 10U);
}

TEST(TailPercentile, ChosenForTheGuaranteedCountNotTheActualOne) {
  // A fast run that took 1500 steps reports the same percentile as the
  // 200-step minimum, with more samples beyond it.
  const Tail t = tail_timing(ramp(1500), 200);
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 1425.0);
  EXPECT_EQ(t.beyond, 75U);
  // A run shorter than the guarantee falls back to its own count.
  EXPECT_EQ(tail_timing(ramp(150), 200).percentile, 90.0);
}

TEST(TailPercentile, StaysInsideTheRefreshModeOfAKfacWindow) {
  // One slow refresh step every 10 steps. At exactly 100 steps p90 sits on
  // the boundary between the modes and reads a plain step; from 200 steps
  // on p95 is a refresh step.
  std::vector<double> steps;
  for (std::size_t i = 0; i < 200; ++i) {
    steps.push_back(i % 10 == 0 ? 300.0 : 6.0);
  }
  EXPECT_EQ(tail_timing(steps, 200).value, 300.0);
  steps.resize(100);
  const Tail at_boundary = tail_timing(steps, 100);
  EXPECT_EQ(at_boundary.percentile, 90.0);
  EXPECT_EQ(at_boundary.value, 6.0);
}

TEST(TailPercentile, Empty) {
  const Tail t = tail_timing({}, 200);
  EXPECT_EQ(t.samples, 0U);
  EXPECT_EQ(t.value, 0.0);
}

TEST(Window, ClosesOnlyOnWholePeriods) {
  const Window w{.period = 10, .min_steps = 200, .seconds = 20.0};
  EXPECT_FALSE(w.done(0, 0.0));
  EXPECT_FALSE(w.done(200, 19.9));  // too short in time
  EXPECT_FALSE(w.done(201, 25.0));  // mid-period
  EXPECT_FALSE(w.done(209, 25.0));
  EXPECT_TRUE(w.done(210, 25.0));
  EXPECT_TRUE(w.done(200, 20.0));
  EXPECT_FALSE(w.done(190, 60.0));  // too few steps, however long
}

TEST(Window, EveryClosedWindowHoldsTheSameRefreshShare) {
  const Window w{.period = 10, .min_steps = 0, .seconds = 0.5};
  for (std::size_t steps = 1; steps <= 1000; ++steps) {
    if (w.done(steps, 1.0)) {
      EXPECT_EQ(steps % 10, 0U);  // refreshes = steps / 10 exactly
    }
  }
}

TEST(Failures, CleanStepIsNotAFailure) {
  compso::comm::RecoveryStats before;
  before.heartbeat_misses = 3;  // detection-plane counters are not actions
  compso::comm::RecoveryStats after = before;
  after.heartbeat_misses = 4;
  EXPECT_FALSE(step_failed(before, after));
}

TEST(Failures, EveryRecoveryActionCountsAsAFailedStep) {
  using compso::comm::RecoveryStats;
  const std::vector<std::uint64_t RecoveryStats::*> actions = {
      &RecoveryStats::decode_retries,      &RecoveryStats::decode_failures,
      &RecoveryStats::fallback_steps,      &RecoveryStats::degraded_layers,
      &RecoveryStats::nonfinite_skips,     &RecoveryStats::bound_tightenings,
      &RecoveryStats::evictions,           &RecoveryStats::deadline_exclusions,
      &RecoveryStats::readmissions,        &RecoveryStats::resyncs};
  for (const auto field : actions) {
    RecoveryStats before;
    RecoveryStats after;
    after.*field = 1;
    EXPECT_TRUE(step_failed(before, after));
  }
}

TEST(Failures, TallyCountsStepsNotActions) {
  FailureTally tally;
  EXPECT_EQ(tally.failed_frac(), 0.0);
  for (int i = 0; i < 95; ++i) tally.record(false);
  tally.record(true);  // one step, however many actions it took
  EXPECT_EQ(tally.attempted, 96U);
  EXPECT_EQ(tally.failed, 1U);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 1.0 / 96.0);
  EXPECT_DOUBLE_EQ(tally.clean_frac(), 95.0 / 96.0);
}

}  // namespace
}  // namespace trainbench
