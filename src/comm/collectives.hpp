#pragma once
// Collective algorithm layer (DESIGN.md §16): alpha-beta time models of
// ring vs recursive-doubling vs hierarchical two-level collectives, with
// message-size- and topology-aware selection, priced through the
// NetworkModel.
//
// Pure functions, so the Communicator, the perf-model lookup tables, and
// the benches price collectives identically. This layer only prices: the
// Communicator moves every collective's bytes, and its reduction order is
// canonical (ascending participating rank, linear association), so the
// selected algorithm changes modeled time but never training bits. With
// selection off (the default) every collective is priced by kRing, the
// flat-ring closed forms.

#include "src/comm/network_model.hpp"
#include "src/comm/topology.hpp"

#include <cstddef>
#include <cstdint>
#include <span>

namespace compso::comm {

enum class CollectiveAlgo : std::uint8_t {
  kRing = 0,               ///< flat ring (the legacy default timing model).
  kRecursiveDoubling = 1,  ///< log2(p) rounds; latency-optimal.
  kHierarchical = 2,       ///< intra-node (NVLink) level, then inter-node.
};

const char* to_string(CollectiveAlgo algo) noexcept;

/// Message-size-aware selection (mxnet kvstore-style switching). The
/// default keeps selection OFF: every collective uses its legacy ring
/// model, so existing timings are untouched until a caller opts in.
struct CollectiveConfig {
  bool auto_select = false;
};

/// Selects the algorithm for a `bytes`-sized allgather-family collective
/// over `participants` ranks of `topo`: at or below 64 KiB the latency
/// term dominates and recursive doubling (log2(p) rounds) beats the
/// ring's p-1; above it, on a topology with several multi-GPU nodes, the
/// two-level hierarchical algorithm wins (its inter-node phase runs over
/// node leaders only, so latency grows with nodes, not ranks). With
/// auto_select off this always returns kRing (the legacy model).
CollectiveAlgo select_algo(const CollectiveConfig& cfg, const Topology& topo,
                           std::size_t participants,
                           std::size_t bytes) noexcept;

/// Cost-based allreduce selection: evaluates the three time models and
/// returns the cheapest (ties prefer kRing, then kRecursiveDoubling).
/// Fixed byte thresholds mis-pick at the extremes — at bandwidth-bound
/// gigabyte messages the hierarchical algorithm's extra intra-node pass
/// costs more than its inter-node saving, so the flat ring wins again —
/// and the models are cheap to evaluate, so selection just prices them.
/// With auto_select off this returns kRing (the legacy model).
CollectiveAlgo select_allreduce_algo(const CollectiveConfig& cfg,
                                     const Topology& topo,
                                     const NetworkModel& net,
                                     std::size_t participants,
                                     std::size_t bytes) noexcept;

// --- alpha-beta time models -------------------------------------------
// All return 0 for p <= 1 or empty messages, like the legacy formulas.

double allreduce_time(CollectiveAlgo algo, const Topology& topo,
                      const NetworkModel& net, std::size_t participants,
                      std::size_t bytes) noexcept;
double allgatherv_time(CollectiveAlgo algo, const Topology& topo,
                       const NetworkModel& net, std::size_t participants,
                       std::span<const std::size_t> bytes_per_rank) noexcept;
/// Equal-chunk allgather (every rank contributes `bytes_per_rank`).
double allgather_time(CollectiveAlgo algo, const Topology& topo,
                      const NetworkModel& net, std::size_t participants,
                      std::size_t bytes_per_rank) noexcept;
/// Reduce-to-root (the sharded factor exchange, DESIGN.md §16): binomial
/// tree for small messages, reduce-scatter + gather-to-root
/// (Rabenseifner) for large ones; the model takes the cheaper of the two.
double reduce_time(CollectiveAlgo algo, const Topology& topo,
                   const NetworkModel& net, std::size_t participants,
                   std::size_t bytes) noexcept;
/// Large-message pipelined broadcast (NCCL-style chunked chain): log2(p)
/// startup rounds and one traversal of the payload through the bottleneck
/// link. The one broadcast model; it needs no algorithm choice.
double pipelined_broadcast_time(const Topology& topo, const NetworkModel& net,
                                std::size_t participants,
                                std::size_t bytes) noexcept;

}  // namespace compso::comm
