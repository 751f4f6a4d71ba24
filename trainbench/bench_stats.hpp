#pragma once
// The benchmark's own arithmetic, kept apart from main.cpp so it can be
// tested on its own (stats_test.cpp): tail-percentile selection,
// whole-period timing windows, and failure accounting.

#include "src/comm/communicator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace trainbench {

/// Median of `v` (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// 1-based nearest rank of the p-th percentile of n samples: ceil(p/100 * n).
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto k = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(k, 1, n);
}

inline constexpr std::size_t kMinBeyond = 10;
inline constexpr std::array<double, 6> kTailLadder = {99.9, 99.0, 95.0,
                                                      90.0, 75.0, 50.0};

/// The highest ladder percentile that leaves at least kMinBeyond of `n`
/// samples ranked above it, so the value is set by a population of slow
/// steps rather than by one outlier. The median when `n` is too small.
inline double tail_percentile_for(std::size_t n) {
  for (const double p : kTailLadder) {
    if (n > 0 && n - nearest_rank(n, p) >= kMinBeyond) return p;
  }
  return kTailLadder.back();
}

/// A tail timing and the sample counts behind it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;  ///< n.
  std::size_t beyond = 0;   ///< samples ranked above the percentile.
};

/// Tail timing of `samples`. The percentile is chosen for `guaranteed`
/// samples, the fewest any run of the workload takes, so every run reports
/// the same percentile whatever the host's speed, and a faster run only
/// puts more samples beyond it.
inline Tail tail_timing(std::vector<double> samples, std::size_t guaranteed) {
  Tail t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.percentile = tail_percentile_for(std::min(guaranteed, samples.size()));
  const std::size_t k = nearest_rank(samples.size(), t.percentile);
  t.value = samples[k - 1];
  t.beyond = samples.size() - k;
  return t;
}

/// Whole-period timing window. A KFAC run refreshes its eigenbasis every
/// `period` steps, so a window that starts on a refresh step and holds only
/// whole periods always contains the same mix of refresh and plain steps.
/// The window closes at the first period boundary where it has run for at
/// least `seconds` and holds at least `min_steps` steps.
struct Window {
  std::size_t period = 1;
  std::size_t min_steps = 0;
  double seconds = 0.0;

  /// True once `steps` (counted from the window start) and `elapsed_s`
  /// close the window.
  bool done(std::size_t steps, double elapsed_s) const {
    return steps % period == 0 && steps >= min_steps && elapsed_s >= seconds;
  }
};

/// True when the step between two snapshots took any recovery action: a
/// decode retry, an exhausted retry ladder, an uncompressed fallback, a
/// degraded layer, a skipped non-finite update, a bound tightening, or a
/// membership action. On a clean workload every one of these is a failure.
inline bool step_failed(const compso::comm::RecoveryStats& before,
                        const compso::comm::RecoveryStats& after) {
  return after.decode_retries != before.decode_retries ||
         after.decode_failures != before.decode_failures ||
         after.fallback_steps != before.fallback_steps ||
         after.degraded_layers != before.degraded_layers ||
         after.nonfinite_skips != before.nonfinite_skips ||
         after.bound_tightenings != before.bound_tightenings ||
         after.evictions != before.evictions ||
         after.deadline_exclusions != before.deadline_exclusions ||
         after.readmissions != before.readmissions ||
         after.resyncs != before.resyncs;
}

/// Steps attempted and steps with any recovery action.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void record(bool failed_step) {
    ++attempted;
    if (failed_step) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  double clean_frac() const {
    return attempted == 0 ? 0.0 : 1.0 - failed_frac();
  }
};

}  // namespace trainbench
