#pragma once
// Simulated communicator: the functional collectives the optimizers use
// over all ranks' buffers, plus an analytic timing model for each.
//
// SPMD style: because the simulator is deterministic and single-process, a
// collective is invoked once with every rank's buffer. Data really moves
// (so downstream math sees exactly what a real cluster would see), and all
// participating clocks advance by the modeled collective time.
//
// Three collectives move data: the KAISA factor/gradient allreduce, the
// DP-KFAC reduce-to-owner, and the chunked byte allgatherv COMPSO
// compresses. Their times come from comm/collectives (ring algorithms, the
// NCCL default at these scales, unless selection is on):
//  - ring allreduce:    2*(p-1)/p * n bytes through each rank's slowest link
//  - ring allgather(v): each rank receives (total - own) bytes
//  - reduce-to-root:    Rabenseifner reduce-scatter + gather
// plus a pipelined broadcast that the perf model prices but nothing runs.
// The bottleneck link is inter-node whenever the topology spans nodes.

#include "src/comm/collectives.hpp"
#include "src/comm/fault_injector.hpp"
#include "src/comm/membership.hpp"
#include "src/comm/network_model.hpp"
#include "src/comm/topology.hpp"
#include "src/obs/obs.hpp"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace compso::comm {

/// Per-rank simulated clocks. Collectives synchronize: they start at the
/// latest participant clock and all participants end together.
class SimClocks {
 public:
  explicit SimClocks(std::size_t world) : t_(world, 0.0) {}

  std::size_t world_size() const noexcept { return t_.size(); }
  double at(std::size_t rank) const noexcept { return t_[rank]; }
  std::span<const double> times() const noexcept { return t_; }
  void advance(std::size_t rank, double dt) noexcept { t_[rank] += dt; }
  double max_time() const noexcept;
  /// Advance the masked clocks to max(masked clock) + dt; the rest are
  /// frozen (evicted / excluded ranks do not march with the group).
  void sync_advance_masked(double dt,
                           const std::vector<std::uint8_t>& mask) noexcept;
  void reset() noexcept { for (auto& t : t_) t = 0.0; }

 private:
  std::vector<double> t_;
};

/// Per-collective accumulated simulated time, for the Fig. 1 breakdown.
struct CommStats {
  double allreduce_s = 0.0;
  double allgather_s = 0.0;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t allgather_bytes = 0;

  double total_s() const noexcept { return allreduce_s + allgather_s; }
};

/// Counters for every fault observed and every recovery action taken,
/// surfaced alongside CommStats. The comm layer fills the injection /
/// eviction rows; the optimizers and the fault-tolerant trainer fill the
/// policy rows (retries, fallbacks, skips) through Communicator::recovery().
struct RecoveryStats {
  // --- faults injected by the transport (FaultInjector hooks) ---
  std::uint64_t corrupt_injected = 0;
  std::uint64_t drops_injected = 0;
  std::uint64_t truncations_injected = 0;
  std::uint64_t straggler_events = 0;
  // --- recovery actions ---
  std::uint64_t decode_retries = 0;    ///< re-sent collectives after decode failure.
  std::uint64_t decode_failures = 0;   ///< retries exhausted on a collective.
  std::uint64_t fallback_steps = 0;    ///< layer-steps on the uncompressed path.
  std::uint64_t degraded_layers = 0;   ///< layers permanently on fallback.
  std::uint64_t evictions = 0;         ///< ranks removed by the liveness ladder.
  std::uint64_t nonfinite_skips = 0;   ///< layer updates skipped on NaN/Inf.
  std::uint64_t bound_tightenings = 0; ///< adaptive-schedule tightenings.
  std::uint64_t checkpoint_saves = 0;
  std::uint64_t checkpoint_restores = 0;
  // --- membership / liveness ladder (DESIGN.md §14) ---
  std::uint64_t heartbeat_misses = 0;    ///< detection-plane missed beats.
  std::uint64_t suspicions = 0;          ///< ranks entering kSuspect.
  std::uint64_t deadline_waits = 0;      ///< barrier waits for absent ranks.
  std::uint64_t deadline_exclusions = 0; ///< continue-without step exclusions.
  std::uint64_t readmissions = 0;        ///< evicted ranks readmitted.
  std::uint64_t resyncs = 0;             ///< rejoining replicas re-synced.

  std::uint64_t faults_injected() const noexcept {
    return corrupt_injected + drops_injected + truncations_injected +
           straggler_events;
  }
  std::uint64_t recovery_actions() const noexcept {
    return decode_retries + fallback_steps + evictions + nonfinite_skips +
           readmissions + resyncs;
  }
  std::string to_string() const;
};

class Communicator {
 public:
  /// Mutates a delivered byte frame in flight — the test hook that models a
  /// corrupting transport, so end-to-end paths can prove the CRC and
  /// payload validation layers catch damaged frames.
  using PayloadFault = std::function<void(std::vector<std::uint8_t>&)>;

  Communicator(Topology topo, NetworkModel net)
      : topo_(topo), net_(std::move(net)), clocks_(topo.world_size()),
        membership_(topo.world_size()), active_(topo.world_size(), 1),
        participating_(topo.world_size(), 1) {}

  const Topology& topology() const noexcept { return topo_; }
  const NetworkModel& network() const noexcept { return net_; }
  std::size_t world_size() const noexcept { return topo_.world_size(); }
  SimClocks& clocks() noexcept { return clocks_; }
  const SimClocks& clocks() const noexcept { return clocks_; }
  CommStats& stats() noexcept { return stats_; }
  const CommStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }
  RecoveryStats& recovery() noexcept { return recovery_; }
  const RecoveryStats& recovery() const noexcept { return recovery_; }

  // --- observability ---
  /// Attaches metrics/tracer hooks (copies the ObsHooks value; the
  /// pointed-at registry and tracer are not owned). Every collective then
  /// records a span plus `comm.<op>.bytes` / `comm.<op>.calls` counters
  /// whose byte totals reconcile exactly with CommStats, and every fault /
  /// eviction site counts a matching `recovery.<field>` metric.
  void set_obs(obs::ObsHooks hooks) noexcept { obs_ = hooks; }
  const obs::ObsHooks& obs() const noexcept { return obs_; }

  // --- rank liveness / elastic membership (DESIGN.md §14) ---
  /// Ranks in the collective group. Evicted ranks keep their buffer slots
  /// in every call (SPMD style) but contribute nothing and receive nothing.
  bool is_active(std::size_t rank) const noexcept {
    return rank < active_.size() && active_[rank] != 0;
  }
  std::size_t active_count() const noexcept;
  std::vector<std::size_t> active_ranks() const;
  std::size_t first_active_rank() const;
  /// Ranks participating in *this step's* compute and collectives: active,
  /// healthy, and arrived at the barrier. Excluded stragglers, suspects,
  /// and ranks mid-rejoin stay active but sit the step out.
  bool is_participating(std::size_t rank) const noexcept {
    return rank < participating_.size() && participating_[rank] != 0;
  }
  std::size_t participant_count() const noexcept;
  std::vector<std::size_t> participant_ranks() const;
  std::size_t first_participant() const;
  /// Ranks running this step's rejoin/resync ladder (active, not yet
  /// participating; the optimizers copy a survivor's state into them).
  const std::vector<std::size_t>& rejoining_ranks() const noexcept {
    return rejoining_;
  }
  bool is_rejoining(std::size_t rank) const noexcept;
  /// Removes a rank from the collective group (idempotent); counts an
  /// eviction in RecoveryStats on the first call per rank.
  void evict(std::size_t rank);
  /// Replaces the liveness mask (checkpoint restore, admin override). The
  /// mask must match the world size and keep at least one rank active;
  /// every 1->0 edge is routed through the membership layer as an eviction
  /// and every 0->1 edge as a readmission, so RecoveryStats/obs never
  /// silently drift from the group state.
  void set_active_mask(const std::vector<std::uint8_t>& mask);
  const std::vector<std::uint8_t>& active_mask() const noexcept {
    return active_;
  }
  Membership& membership() noexcept { return membership_; }
  const Membership& membership() const noexcept { return membership_; }
  /// Recomputes this step's participation from the membership ledger
  /// (restore path: call after Membership::deserialize).
  void refresh_participation();

  // --- fault injection ---
  /// Attaches a fault injector (nullptr detaches). Not owned.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return injector_; }
  /// Starts training iteration `t`: arms the injector's events, feeds
  /// crash/silence/recover edges into the membership layer's physical
  /// plane, advances straggler clocks, and runs one liveness tick — the
  /// heartbeat ledger decides suspicion, deadline exclusion, eviction, and
  /// readmission (never the FaultPlan). Call once per iteration before the
  /// iteration's collectives.
  void begin_iteration(std::size_t t);

  // --- collective algorithm selection (DESIGN.md §16) ---
  /// Installs the algorithm selection setting. Selection only changes the
  /// modeled time: every algorithm delivers the canonical sum, so the
  /// bytes the functional collectives move are the same either way. The
  /// default-constructed config keeps selection OFF: every collective is
  /// priced by its legacy ring model, bit-for-bit.
  void set_collective_config(const CollectiveConfig& cfg) noexcept {
    coll_ = cfg;
  }
  /// Algorithm a `bytes`-sized collective of each family would use under
  /// the current config and participant count (selection is
  /// deterministic, so these are pure queries).
  CollectiveAlgo allreduce_algo(std::size_t bytes) const noexcept;
  CollectiveAlgo allgather_algo(std::size_t bytes) const noexcept;

  // --- analytic timing queries (used by the perf-model lookup table) ---
  double allreduce_time(std::size_t bytes) const noexcept;
  double allgather_time(std::size_t bytes_per_rank) const noexcept;
  double allgatherv_time(std::span<const std::size_t> bytes_per_rank)
      const noexcept;
  /// Large-message pipelined broadcast (NCCL-style ring/chunked tree):
  /// latency grows with log2(p), bandwidth term is a single traversal.
  double pipelined_broadcast_time(std::size_t bytes) const noexcept;
  /// Reduce-to-root (sharded factor exchange): binomial tree / ring
  /// reduce-scatter+gather / hierarchical per the selected algorithm.
  double reduce_time(std::size_t bytes) const noexcept;

  // --- functional collectives (move data + advance clocks + stats) ---
  /// In-place sum-allreduce: every participating rank's buffer becomes
  /// the element sum in the canonical (ascending-rank, linear) order.
  /// Evicted and step-excluded ranks neither contribute nor receive.
  void allreduce_sum(std::vector<std::span<float>> bufs);
  /// One round of the chunked variable-size byte allgather (DESIGN.md
  /// §15) — the only byte allgather; optim::ChunkedExchange drives it.
  /// Each participating rank contributes its round-`round` chunk frame
  /// (`send[r]`, empty when that rank has no chunk this round), and on
  /// return `recv[src]` holds the bytes delivered from `src` — every
  /// participant sees the same copy (SPMD), non-participants get empty
  /// entries. Delivery is per-source slot, so damage to one rank's frame
  /// never shifts another's (real allgatherv places segments at
  /// receiver-known offsets). An attached FaultInjector corrupts /
  /// truncates / drops individual frames one-shot: chunk-scoped events
  /// (FaultPlan::*_chunk) match on `round`, whole-payload events land on
  /// round 0. The PayloadFault hook then sees every delivered frame.
  /// Timing and stats: exactly one allgatherv_time over this round's
  /// intended frame sizes — the per-round wire occupancy the network
  /// model charges — accumulated under the "allgather" op, plus
  /// `chunk.rounds` / `chunk.bytes` counters.
  void allgatherv_chunks(
      const std::vector<std::span<const std::uint8_t>>& send,
      std::vector<std::vector<std::uint8_t>>& recv, std::size_t round);
  /// Installs (or clears, with nullptr) the byte-payload fault hook. The
  /// hook sees every frame `allgatherv_chunks` delivers.
  void set_payload_fault(PayloadFault fault) { fault_ = std::move(fault); }
  /// Sum-reduce into `bufs[root]` only: root's buffer becomes the element
  /// sum over participating ranks in the canonical (ascending-rank,
  /// linear) order — bit-identical to what allreduce_sum would leave in
  /// it. Other participants keep their local contribution. Root must be
  /// participating. Time and bytes accumulate under the "allreduce" op
  /// (same row of CommStats/obs), so the sharded factor exchange
  /// reconciles against the same counters as the replicated one.
  void reduce_sum(std::vector<std::span<float>> bufs, std::size_t root);

  // --- the canonical sum and the one averaging rule (DESIGN.md §15) ---
  /// The canonical reduction both summing collectives run, computed
  /// locally (no bytes move, no time is charged): participating buffers
  /// summed element-wise in ascending rank order with linear association
  /// — the lead participant's values, then each later participant's —
  /// written to `dst`. Works through a fixed stack tile, so `dst` may be
  /// any participant's buffer and a call allocates nothing.
  void canonical_sum(const std::vector<std::span<float>>& bufs,
                     std::span<float> dst) const;
  /// The optimizers' one averaging rule: out[i] = sum[i] * (1.0F /
  /// participant_count()), where `sum` is a canonical participant sum
  /// (what allreduce_sum, reduce_sum or canonical_sum leave). `out` may be
  /// `sum` itself. Every average of a sum over this step's participants
  /// — the compressed exchange, both raw fallbacks and the KFAC gradient
  /// — goes through here, so at any participant count they round alike.
  void mean_of_sum(std::span<const float> sum, std::span<float> out) const;

 private:
  /// Checks that `bufs` has one buffer per rank and that every
  /// participating buffer is as long as `bufs[ref]`, and returns that
  /// length; `op` names the caller in the exception.
  std::size_t check_buffers(const char* op,
                            const std::vector<std::span<float>>& bufs,
                            std::size_t ref) const;
  /// Records one finished collective into the attached obs hooks: a span
  /// of the modeled duration ending at the current tracer time, plus the
  /// calls/bytes counters and a duration histogram.
  void record_collective(std::string_view op, double dt, std::uint64_t bytes);

  /// Applies the readmit transition with `iter` as the resync step.
  void readmit_at(std::size_t rank, std::size_t iter);

  Topology topo_;
  NetworkModel net_;
  CollectiveConfig coll_;
  SimClocks clocks_;
  CommStats stats_;
  RecoveryStats recovery_;
  PayloadFault fault_;
  FaultInjector* injector_ = nullptr;
  Membership membership_;
  std::vector<std::uint8_t> active_;         ///< 1 = in group, 0 = evicted.
  std::vector<std::uint8_t> participating_;  ///< 1 = in this step's barrier.
  std::vector<std::size_t> rejoining_;       ///< resyncing this step.
  std::size_t last_tick_ = 0;                ///< latest begin_iteration t.
  obs::ObsHooks obs_;
};

/// Deterministic obs clock over the communicator's simulated time: reads
/// max(rank clocks) in integer nanoseconds. Collectives are the only
/// points where simulated time advances, and they run on the optimizer
/// thread, so the clock satisfies the Clock::deterministic() contract.
inline obs::FunctionClock sim_time_clock(const SimClocks& clocks) {
  return obs::FunctionClock(
      [&clocks] { return obs::seconds_to_ns(clocks.max_time()); },
      /*deterministic=*/true);
}

}  // namespace compso::comm
