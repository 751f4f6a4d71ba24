#pragma once
// Span tracer (DESIGN.md §12). Records complete ("X") and instant ("i")
// events on integer tracks and exports them as a chrome://tracing /
// Perfetto-compatible trace.json.
//
// Determinism contract: every event carries a (track, seq) pair. seq is
// claimed when the event begins, at a deterministic program point (span
// construction on the optimizer thread, a StepGraph scheduling event),
// and the export sorts by (track, seq) — never by timestamp and never by
// completion order. Under a deterministic Clock the exported document is
// therefore byte-identical at any engine thread count, because both the
// payload (names, integer args, simulated timestamps) and the order are
// functions of the program, not of the scheduler.
//
// Timestamps are stored relative to the origin captured by reset(), so a
// tracer attached at step N of a resumed run exports the same document
// as one attached at step N of an uninterrupted run.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/clock.hpp"

namespace compso::obs {

/// Track 0 is the main (optimizer) thread. Under a wall clock each
/// StepGraph compute task t also records its execution span on
/// kTaskTrackBase + t, so its events sort independently of which worker
/// executed it.
inline constexpr std::uint32_t kMainTrack = 0;
inline constexpr std::uint32_t kTaskTrackBase = 1;
/// Step-scheduler tick tracks (optim::StepGraph): the graph's
/// main-thread tasks record on kSchedTrackBase and each graph task t on
/// kSchedTrackBase + 1 + t, far above any realistic graph size so the
/// tick and execution families never collide.
inline constexpr std::uint32_t kSchedTrackBase = 0x40000000U;

class Tracer {
 public:
  /// Integer event arguments (bytes, counts, ids). Integers only, so the
  /// exported args never depend on floating-point formatting.
  using Args = std::vector<std::pair<std::string, std::uint64_t>>;

  struct Event {
    std::string name;
    std::string cat;
    std::uint32_t track = kMainTrack;
    std::uint64_t seq = 0;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    char phase = 'X';  ///< 'X' complete, 'i' instant.
    Args args;
  };

  /// RAII span: claims its (track, seq) and start timestamp on
  /// construction, records the complete event on destruction (or end()).
  /// A default-constructed Span is inert — the null-safe path when no
  /// tracer is attached.
  class Span {
   public:
    Span() = default;
    Span(Tracer* tracer, std::uint32_t track, std::string name,
         std::string cat);
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

    void add_arg(std::string_view key, std::uint64_t value);
    /// Records the event now; the destructor becomes a no-op.
    void end();

   private:
    Tracer* tracer_ = nullptr;
    std::uint32_t track_ = kMainTrack;
    std::uint64_t seq_ = 0;
    std::uint64_t ts_ns_ = 0;
    std::string name_;
    std::string cat_;
    Args args_;
  };

  Tracer();
  explicit Tracer(const Clock* clock);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Points the tracer at a new time source (not owned; pass nullptr to
  /// fall back to the built-in steady clock). Call reset() afterwards so
  /// the origin is re-read from the new clock.
  void set_clock(const Clock* clock);

  const Clock& clock() const noexcept { return *clock_; }

  /// Drops all events, re-reads the time origin, and restarts every
  /// track's sequence counter.
  void reset();

  /// Current time relative to the reset() origin (saturating at 0 if the
  /// clock moved backwards across a set_clock).
  std::uint64_t now_rel_ns() const;

  Span span(std::uint32_t track, std::string name, std::string cat) {
    return Span(this, track, std::move(name), std::move(cat));
  }

  /// Records a complete event whose timestamps the caller already chose
  /// (relative to the reset origin). Claims the track's next seq — call
  /// from deterministic program points when byte-stable exports matter.
  void complete(std::uint32_t track, std::string name, std::string cat,
                std::uint64_t ts_ns, std::uint64_t dur_ns, Args args = {});

  /// Records an instant event at the current time.
  void instant(std::uint32_t track, std::string name, std::string cat,
               Args args = {});

  std::size_t event_count() const;

  /// Snapshot of the recorded events sorted by (track, seq).
  std::vector<Event> events() const;

  /// chrome://tracing JSON document: {"displayTimeUnit":…,
  /// "traceEvents":[…]} with ts/dur in microseconds, printed from the
  /// integer nanosecond values so the text is byte-deterministic.
  std::string trace_json() const;

 private:
  friend class Span;

  std::uint64_t claim_seq_locked(std::uint32_t track);
  void record(Event e);

  const Clock* clock_;
  SteadyClock fallback_clock_;
  mutable std::mutex mu_;
  std::uint64_t origin_ns_ = 0;
  std::map<std::uint32_t, std::uint64_t> next_seq_;
  std::vector<Event> events_;
};

/// Structural validation of a trace document (used by tests and the
/// bench smoke gate): parses, checks the traceEvents array and per-event
/// required fields. Returns an error description, or std::nullopt when
/// the document is a valid trace.
std::optional<std::string> validate_trace(std::string_view json);

}  // namespace compso::obs
