#pragma once
// MetricsRegistry (DESIGN.md §12): counters, gauges and fixed-bucket
// histograms shared by the whole pipeline — the comm layer, the thread
// pool, the step scheduler, the optimizers, the trainers and the bench
// binaries all account into one registry, so a BENCH_*.json and a test
// assertion read the very same cells.
//
// Threading model: counter and histogram cells live in per-thread shards.
// A thread's first touch of a metric name takes the shard mutex to create
// the cell and caches the cell pointer thread-locally; every subsequent
// increment is a single relaxed atomic fetch_add — the lock-free hot
// path. snapshot() merges the shards by summing per name. Because every
// merged quantity is an unsigned integer, the merge is order-independent:
// the snapshot of a run is bit-identical no matter how work was spread
// across threads. (That is why observe() takes integer values —
// nanoseconds, bytes — and why there is no floating-point accumulation
// anywhere in the sharded path.)
//
// Gauges are last-writer-wins and guarded by the registry mutex; they are
// meant for single-threaded reporting points (the tuner's per-candidate
// scores), not for hot paths.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace compso::obs {

class MetricsRegistry {
 public:
  /// Power-of-four bucket boundaries: bucket i counts values v with
  /// 4^(i-1) <= v < 4^i (bucket 0 counts v == 0), saturating in the last
  /// bucket. 16 buckets cover [0, 4^15) — about 1.07e9, i.e. ~1s in
  /// nanoseconds or ~1GB in bytes per observation.
  static constexpr std::size_t kHistogramBuckets = 16;

  struct HistogramSnapshot {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };

  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to the named counter (lock-free after the calling
  /// thread's first touch of the name).
  void add(std::string_view name, std::uint64_t delta = 1);

  /// Records one integer observation into the named histogram.
  void observe(std::string_view name, std::uint64_t value);

  /// Sets the named gauge (last writer wins; registry mutex).
  void set_gauge(std::string_view name, double value);

  /// Merged view across every thread's shard. Deterministic: names are
  /// sorted, merged values are integer sums.
  Snapshot snapshot() const;

  /// Merged value of one counter (0 when never touched).
  std::uint64_t counter(std::string_view name) const;

  /// Deterministic JSON document of the snapshot (sorted names, ASCII
  /// only, fully escaped). Byte-identical for identical snapshots.
  std::string to_json() const;

  /// Zeroes every cell and clears the gauges. Existing cells stay
  /// allocated so other threads' cached pointers remain valid; reset is
  /// meant for quiescent points (between runs), not concurrent use.
  void reset();

  static std::size_t bucket_index(std::uint64_t value) noexcept;

 private:
  struct Histogram {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
  };

  struct Shard {
    std::mutex m;  ///< guards map structure (cell creation), not values.
    std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>,
             std::less<>>
        counters;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists;
  };

  Shard& local_shard() const;
  std::atomic<std::uint64_t>& counter_cell(std::string_view name) const;
  Histogram& histogram_cell(std::string_view name) const;

  const std::uint64_t id_;  ///< process-unique; keys the thread caches.
  mutable std::mutex mu_;   ///< guards shards_ vector and gauges_.
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  std::map<std::string, double> gauges_;
};

}  // namespace compso::obs
