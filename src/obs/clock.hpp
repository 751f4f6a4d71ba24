#pragma once
// Pluggable time source for the observability layer (DESIGN.md §12).
//
// Every span timestamp and every timing metric flows through a Clock, so
// the same instrumentation serves two regimes:
//  - SteadyClock for real runs (wall-clock durations in the exports);
//  - a deterministic clock (FunctionClock over the comm layer's SimClocks,
//    or ManualClock in unit tests) for bit-reproducible exports: the
//    simulated time advances only at collectives, identically at any
//    engine thread count, so traces and metric snapshots compare
//    byte-for-byte across configurations.
//
// `deterministic()` is a contract, not a hint: when it returns true, the
// instrumentation layer only reads the clock from deterministic program
// points (e.g. the StepGraph then records its compute tasks only as
// logical-tick spans on the optimizer thread; it times their execution
// on a racing worker only under a wall clock).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>

namespace compso::obs {

/// Nanoseconds from a double of seconds, rounded to nearest (the sim
/// clocks count seconds as doubles; the exports count integer ns so sums
/// stay order-independent and bit-exact).
inline std::uint64_t seconds_to_ns(double seconds) noexcept {
  if (!(seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic reading in nanoseconds (an arbitrary epoch; the Tracer
  /// subtracts its own origin).
  virtual std::uint64_t now_ns() const = 0;
  /// True when repeated runs of the same program read identical values at
  /// the same program points (see file comment).
  virtual bool deterministic() const noexcept { return false; }
};

/// Wall clock for real runs.
class SteadyClock final : public Clock {
 public:
  std::uint64_t now_ns() const override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// Adapter over any time source — notably the comm layer's SimClocks
/// (see comm::sim_time_clock), which obs cannot name without a cyclic
/// module dependency.
class FunctionClock final : public Clock {
 public:
  FunctionClock(std::function<std::uint64_t()> read, bool deterministic)
      : read_(std::move(read)), deterministic_(deterministic) {}

  std::uint64_t now_ns() const override { return read_(); }
  bool deterministic() const noexcept override { return deterministic_; }

 private:
  std::function<std::uint64_t()> read_;
  bool deterministic_;
};

/// Hand-advanced clock for unit tests.
class ManualClock final : public Clock {
 public:
  std::uint64_t now_ns() const override { return t_; }
  bool deterministic() const noexcept override { return true; }
  void set_ns(std::uint64_t t) noexcept { t_ = t; }
  void advance_ns(std::uint64_t dt) noexcept { t_ += dt; }

 private:
  std::uint64_t t_ = 0;
};

}  // namespace compso::obs
