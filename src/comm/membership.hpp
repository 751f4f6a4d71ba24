#pragma once
// Deterministic liveness and elastic-membership layer (DESIGN.md §14).
//
// Production failure detectors cannot read the fault plan; they watch
// heartbeats. This layer reproduces that split inside the simulator:
//
//  - The *physical plane* records what the simulated cluster actually does:
//    which ranks are alive (kCrash / kRecover events) and whose heartbeats
//    are suppressed in flight (kSilence). The Communicator feeds injector
//    events into it at `begin_iteration`.
//  - The *detection plane* sees only the heartbeat ledger and the per-rank
//    simulated clocks. Suspicion, probing with exponential backoff, and
//    eviction are decided exclusively from missed heartbeats — never from
//    the FaultPlan.
//
// Degradation ladder for a rank that does not arrive at the step barrier
// (kStragglerDeadlineS is below; the other thresholds are constants in
// membership.cpp):
//
//   1. wait until deadline      participants wait kStragglerDeadlineS
//                               (charged to their simulated clocks);
//   2. continue-without         the step runs over the remaining
//                               participants with renormalized averages;
//   3. suspect                  after kSuspectAfterMisses consecutive
//                               missed heartbeats (or
//                               kStraggleSuspectAfter consecutive deadline
//                               exclusions) the rank is suspected and
//                               nobody waits for it any more;
//   4. evict                    after kEvictAfterProbes failed probes,
//                               spaced with exponential backoff
//                               (kProbeBackoffInitial iterations, times
//                               kProbeBackoffFactor after each failure),
//                               the rank is removed from the group.
//
// A suspected rank that heartbeats again (and is within the deadline) is
// redeemed; an evicted rank that heartbeats again is readmitted. Both paths
// go through the kRejoining phase: the rank sits out exactly one step while
// the optimizers re-sync its replica from a survivor (in-graph CKPT-frame
// copy, see DistKfac/DistSgd), then rejoins as a full participant. Any rank
// that misses at least one step's collectives is marked stale and must take
// the rejoin path — a stale replica can never silently re-enter the group.
//
// Everything here runs on the optimizer thread once per iteration and is a
// pure function of (prior state, clocks, heartbeats), so the whole
// ladder is bit-deterministic across engine thread counts and serializes
// into the PR-2 checkpoint (save/resume mid-rejoin is exact).

#include "src/codec/wire.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace compso::comm {

enum class RankPhase : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kEvicted = 2,
  kRejoining = 3,
};

const char* to_string(RankPhase phase) noexcept;

/// How long participants wait at the step barrier for a late rank before
/// continuing without it (simulated seconds). Also the lag bound for
/// redemption.
inline constexpr double kStragglerDeadlineS = 8.0;

/// What one membership tick decided; the Communicator applies the mask,
/// clock waits, evictions, and readmissions, and mirrors the counters into
/// RecoveryStats / obs.
struct MembershipDecisions {
  /// Per-rank: 1 = full participant in this step's compute + collectives.
  std::vector<std::uint8_t> participating;
  /// Heartbeat misses observed this tick (detection-plane events).
  std::uint64_t misses = 0;
  /// Ranks whose suspicion ladder completed this tick (evict rung).
  std::vector<std::size_t> evicted;
  /// Evicted ranks that heartbeated again (readmit + rejoin ladder).
  std::vector<std::size_t> readmitted;
  /// Ranks newly suspected this tick.
  std::vector<std::size_t> suspected;
  /// Suspected / striking ranks redeemed into kRejoining this tick.
  std::vector<std::size_t> redeemed;
  /// Active ranks excluded from this step (continue-without rung).
  std::vector<std::size_t> excluded;
  /// Healthy-but-absent ranks participants waited the full deadline for.
  std::size_t waited_for = 0;
};

class Membership {
 public:
  explicit Membership(std::size_t world);

  std::size_t world_size() const noexcept { return rs_.size(); }

  // --- physical plane (fed from FaultPlan events; not read by detection) ---
  void set_alive(std::size_t rank, bool alive) noexcept;
  /// Suppresses rank's heartbeats for iterations [t, t + duration).
  void silence(std::size_t rank, std::size_t t, std::size_t duration) noexcept;
  bool alive(std::size_t rank) const noexcept;
  /// True when the rank emits a heartbeat visible at iteration `t`.
  bool heartbeat_visible(std::size_t rank, std::size_t t) const noexcept;

  // --- detection plane ---
  /// Runs one liveness tick for iteration `t` over the group: ingests the
  /// heartbeat ledger, advances the suspicion/probe ladder, and decides this
  /// step's participation. `clock_times` are the per-rank simulated clocks;
  /// `active` is the current group mask. Guarantees at least one
  /// participant.
  MembershipDecisions tick(std::size_t t, std::span<const double> clock_times,
                           const std::vector<std::uint8_t>& active);

  RankPhase phase(std::size_t rank) const noexcept;
  std::uint64_t misses(std::size_t rank) const noexcept;

  // --- transitions driven from outside the tick ---
  /// Marks an externally evicted rank (Communicator::evict).
  void mark_evicted(std::size_t rank) noexcept;
  /// Starts the rejoin ladder: the rank sits out iteration `t` (resync step)
  /// and is promoted back to kHealthy at the next tick.
  void mark_rejoining(std::size_t rank, std::size_t t) noexcept;
  /// Resets a rank to a clean healthy record (mask-driven reactivation).
  void mark_healthy(std::size_t rank) noexcept;

  // --- checkpoint round-trip (bit-exact, including mid-rejoin) ---
  void serialize(std::vector<std::uint8_t>& out) const;
  void deserialize(codec::wire::Reader& reader);

 private:
  struct RankState {
    RankPhase phase = RankPhase::kHealthy;
    std::uint8_t alive = 1;
    std::uint8_t stale = 0;  ///< missed >=1 step's collectives; must resync.
    std::uint64_t silenced_until = 0;
    std::uint64_t misses = 0;          ///< consecutive heartbeat misses.
    std::uint64_t strikes = 0;         ///< consecutive deadline exclusions.
    std::uint64_t probes_failed = 0;
    std::uint64_t probe_interval = 0;  ///< current backoff spacing (iters).
    std::uint64_t next_probe = 0;
    std::uint64_t last_heartbeat = 0;
    std::uint64_t rejoin_iter = 0;     ///< iteration spent in kRejoining.
  };

  std::vector<RankState> rs_;
};

}  // namespace compso::comm
