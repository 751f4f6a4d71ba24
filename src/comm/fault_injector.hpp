#pragma once
// Deterministic, seeded fault injection for the simulated cluster.
//
// A FaultPlan is a list of (iteration, rank, kind) events; a FaultInjector
// owns a plan plus a seeded Rng and hands faults to the Communicator at
// well-defined points:
//
//  - kCorruptPayload   mutate rank r's bytes inside the next byte
//                      collective of the iteration (its round-0 chunk frame
//                      of the next chunked allgatherv).
//  - kDropEntry        rank r's round-0 chunk frame vanishes in flight.
//  - kTruncateEntry    rank r's round-0 chunk frame loses its tail.
//  - kStraggler        rank r's SimClocks clock jumps forward by slowdown_s
//                      at the start of the iteration, delaying every
//                      synchronizing collective that follows.
//  - kCrash            rank r dies at the iteration start: it stops
//                      producing heartbeats and stops arriving at the step
//                      barrier. Detection and eviction happen through the
//                      membership layer's heartbeat ladder (membership.hpp)
//                      — the plan is never consulted as an oracle.
//  - kSilence          rank r keeps computing but its heartbeats are lost
//                      for `duration` iterations (a control-plane
//                      partition). Short silences are invisible; long ones
//                      drive the suspicion ladder.
//  - kRecover          a crashed rank comes back online: it heartbeats
//                      again and the membership layer readmits it through
//                      the rejoin/resync ladder.
//  - kNanGradient      rank r's local gradient is poisoned with NaNs before
//                      the optimizer step (consumed by the training loop,
//                      not the Communicator) — exercises the non-finite
//                      guard and the step-skip / bound-tightening policies.
//
// Events are one-shot: each fires at most once, so a bounded retry of the
// same collective sees clean data — exactly the transient-fault model the
// recovery policies are written against. kCrash / kSilence / kRecover are
// one-shot *edges* into the persistent physical-health state the
// membership layer keeps; none of them consumes the injector's RNG, so
// they are safe across checkpoint resume (unlike kCorruptPayload, whose
// damage bytes depend on unreplayed RNG state).
//
// Payload corruption defaults to flipping a random bit inside the first 16
// bytes of the chunk (guaranteed to trip the wire-format magic/CRC layer).
// Callers that want realistic whole-payload damage install the PR-1 fuzz
// mutator via set_mutator (see compress::mutate_payload); comm stays
// dependency-free of the compress layer.

#include "src/tensor/rng.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace compso::comm {

enum class FaultKind : std::uint8_t {
  kCorruptPayload,
  kDropEntry,
  kTruncateEntry,
  kStraggler,
  kCrash,
  kNanGradient,
  kSilence,
  kRecover,
};

const char* to_string(FaultKind kind) noexcept;

/// Sentinel chunk index: the event targets the whole payload — it lands
/// on round 0 of the next chunked exchange — not one chosen chunk.
inline constexpr std::size_t kNoChunk = ~std::size_t{0};

struct FaultEvent {
  std::size_t iteration = 0;
  std::size_t rank = 0;
  FaultKind kind = FaultKind::kCorruptPayload;
  double slowdown_s = 0.0;    ///< kStraggler only: simulated-clock delay.
  std::size_t duration = 0;   ///< kSilence only: iterations without heartbeat.
  /// Chunk-granular faults (DESIGN.md §15): when != kNoChunk, the event
  /// targets chunk round `chunk` of rank's chunked collective and is
  /// consumed by take_chunk, never by the whole-payload take().
  std::size_t chunk = kNoChunk;
};

/// A deterministic schedule of fault events. Build explicitly with the
/// fluent adders, or sample a random drill with FaultPlan::random.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultEvent event);
  FaultPlan& corrupt(std::size_t iteration, std::size_t rank);
  FaultPlan& drop(std::size_t iteration, std::size_t rank);
  FaultPlan& truncate(std::size_t iteration, std::size_t rank);
  FaultPlan& straggler(std::size_t iteration, std::size_t rank,
                       double slowdown_s);
  FaultPlan& crash(std::size_t iteration, std::size_t rank);
  FaultPlan& nan_gradient(std::size_t iteration, std::size_t rank);
  /// Suppresses rank's heartbeats for iterations [iteration, iteration +
  /// duration) while it keeps computing (control-plane partition).
  FaultPlan& silence(std::size_t iteration, std::size_t rank,
                     std::size_t duration);
  /// Brings a crashed rank back online at `iteration`; the membership layer
  /// sees its heartbeats again and readmits it through the rejoin ladder.
  FaultPlan& recover(std::size_t iteration, std::size_t rank);

  /// Chunk-granular transient faults: damage lands on chunk round `chunk`
  /// of rank's chunked collective only (consumed via take_chunk), leaving
  /// every other chunk of the same payload clean — the model the per-chunk
  /// retry ladder is written against.
  FaultPlan& corrupt_chunk(std::size_t iteration, std::size_t rank,
                           std::size_t chunk);
  FaultPlan& drop_chunk(std::size_t iteration, std::size_t rank,
                        std::size_t chunk);
  FaultPlan& truncate_chunk(std::size_t iteration, std::size_t rank,
                            std::size_t chunk);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  /// Samples `count` transient faults (corrupt/drop/truncate/straggler)
  /// uniformly over iterations [0, iterations) and ranks [0, world).
  static FaultPlan random(std::size_t count, std::size_t iterations,
                          std::size_t world, std::uint64_t seed);

 private:
  std::vector<FaultEvent> events_;
};

/// Mutates `payload` in place into a corrupted variant using `rng`.
using PayloadMutator =
    std::function<void(std::vector<std::uint8_t>& payload, tensor::Rng& rng)>;

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Replaces the default header-bit-flip corruption with a custom mutator
  /// (e.g. the payload-fuzz mutator from the compress layer).
  void set_mutator(PayloadMutator mutator) { mutator_ = std::move(mutator); }

  /// Arms the events scheduled for iteration `t`. Called once per training
  /// iteration (Communicator::begin_iteration forwards here).
  void begin_iteration(std::size_t t) noexcept { iteration_ = t; }
  std::size_t iteration() const noexcept { return iteration_; }

  /// Consumes the pending whole-payload event of `kind` for `rank` at the
  /// current iteration, if any. Returns true when the event fired
  /// (one-shot). Chunk-scoped events are never matched here.
  bool take(FaultKind kind, std::size_t rank) noexcept;

  /// Consumes the pending event of `kind` for `rank` scoped to chunk round
  /// `chunk` at the current iteration (one-shot, like take()).
  bool take_chunk(FaultKind kind, std::size_t rank,
                  std::size_t chunk) noexcept;

  /// Consumes and returns every pending event of `kind` at the current
  /// iteration (used for crash / straggler processing at iteration start).
  std::vector<FaultEvent> take_all(FaultKind kind);

  /// True if any event of `kind` is pending for the current iteration.
  bool pending(FaultKind kind) const noexcept;

  /// Applies the corruption mutator to `payload` (no-op on empty input).
  void corrupt_payload(std::vector<std::uint8_t>& payload);

  /// Truncates `payload` to a strict prefix (at least one byte dropped).
  void truncate_payload(std::vector<std::uint8_t>& payload);

  /// Events that actually fired so far (for reporting / assertions).
  std::size_t fired_count() const noexcept { return fired_; }

  tensor::Rng& rng() noexcept { return rng_; }

 private:
  std::vector<FaultEvent> events_;
  std::vector<bool> used_;
  std::size_t iteration_ = 0;
  std::size_t fired_ = 0;
  tensor::Rng rng_;
  PayloadMutator mutator_;
};

}  // namespace compso::comm
