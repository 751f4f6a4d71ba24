#include "src/comm/collectives.hpp"

#include <algorithm>
#include <bit>

namespace compso::comm {
namespace {

/// select_algo's threshold: at or below this many bytes the latency term
/// dominates; above it, a multi-node topology's two-level algorithm wins.
constexpr std::size_t kSmallMessageBytes = 64 * 1024;

/// Bottleneck link of a flat collective spanning the whole topology.
/// Node-major rank order gives a ring one inter-node hop per node
/// boundary, and each node's NIC carries one send + one receive per step
/// (full duplex), so the bottleneck is a single inter-node link when the
/// world spans nodes, NVLink otherwise.
LinkParams flat_bottleneck(const Topology& topo,
                           const NetworkModel& net) noexcept {
  if (topo.nodes > 1) return net.inter_node();
  if (topo.world_size() > 1) return net.intra_node();
  return LinkParams{0.0, 1.0};
}

/// ceil(log2(p)) for p >= 1.
double rounds_log2(std::size_t p) noexcept {
  return p <= 1 ? 0.0 : static_cast<double>(std::bit_width(p - 1));
}

/// How the `p` participants spread over the hierarchy: up to
/// `gpus_per_node` per node, never more nodes than the topology has.
struct HierShape {
  std::size_t per_node = 1;  ///< ranks sharing a node (intra level size).
  std::size_t nodes = 1;     ///< node-leader count (inter level size).
};

HierShape hier_shape(const Topology& topo, std::size_t p) noexcept {
  HierShape h;
  h.per_node = std::max<std::size_t>(
      1, std::min(topo.gpus_per_node, p));
  h.nodes = std::max<std::size_t>(
      1, std::min(topo.nodes, (p + h.per_node - 1) / h.per_node));
  return h;
}

/// Ring allreduce over `p` ranks of one link class:
/// reduce-scatter + allgather, 2(p-1) rounds, 2(p-1)/p of the payload
/// through each rank's slowest link.
double ring_allreduce(const LinkParams& link, std::size_t p,
                      std::size_t bytes) noexcept {
  if (p <= 1 || bytes == 0) return 0.0;
  const double pd = static_cast<double>(p);
  const double wire = 2.0 * (pd - 1.0) / pd * static_cast<double>(bytes);
  return 2.0 * (pd - 1.0) * link.latency_s + wire / link.bandwidth_Bps;
}

}  // namespace

const char* to_string(CollectiveAlgo algo) noexcept {
  switch (algo) {
    case CollectiveAlgo::kRing: return "ring";
    case CollectiveAlgo::kRecursiveDoubling: return "recursive_doubling";
    case CollectiveAlgo::kHierarchical: return "hierarchical";
  }
  return "unknown";
}

CollectiveAlgo select_algo(const CollectiveConfig& cfg, const Topology& topo,
                           std::size_t participants,
                           std::size_t bytes) noexcept {
  if (!cfg.auto_select || participants <= 2) return CollectiveAlgo::kRing;
  if (bytes <= kSmallMessageBytes) return CollectiveAlgo::kRecursiveDoubling;
  if (topo.nodes > 1 && topo.gpus_per_node > 1) {
    return CollectiveAlgo::kHierarchical;
  }
  return CollectiveAlgo::kRing;
}

CollectiveAlgo select_allreduce_algo(const CollectiveConfig& cfg,
                                     const Topology& topo,
                                     const NetworkModel& net,
                                     std::size_t participants,
                                     std::size_t bytes) noexcept {
  if (!cfg.auto_select || participants <= 2) return CollectiveAlgo::kRing;
  CollectiveAlgo best = CollectiveAlgo::kRing;
  double best_t =
      allreduce_time(CollectiveAlgo::kRing, topo, net, participants, bytes);
  for (const auto algo : {CollectiveAlgo::kRecursiveDoubling,
                          CollectiveAlgo::kHierarchical}) {
    const double t = allreduce_time(algo, topo, net, participants, bytes);
    if (t < best_t) {
      best = algo;
      best_t = t;
    }
  }
  return best;
}

double allreduce_time(CollectiveAlgo algo, const Topology& topo,
                      const NetworkModel& net, std::size_t participants,
                      std::size_t bytes) noexcept {
  const std::size_t p = participants;
  if (p <= 1 || bytes == 0) return 0.0;
  switch (algo) {
    case CollectiveAlgo::kRing:
      return ring_allreduce(flat_bottleneck(topo, net), p, bytes);
    case CollectiveAlgo::kRecursiveDoubling: {
      // log2(p) full-payload exchange rounds; one extra fold round when p
      // is not a power of two (the excess ranks fold in and out).
      const LinkParams link = flat_bottleneck(topo, net);
      const double rounds =
          rounds_log2(p) + (std::has_single_bit(p) ? 0.0 : 1.0);
      return rounds * (link.latency_s +
                       static_cast<double>(bytes) / link.bandwidth_Bps);
    }
    case CollectiveAlgo::kHierarchical: {
      // Level 1: ring reduce-scatter + allgather inside each node on
      // NVLink. Level 2: ring allreduce over the node leaders on the
      // interconnect — the latency term scales with nodes, not ranks,
      // which is the whole point at 256+ ranks.
      const HierShape h = hier_shape(topo, p);
      return ring_allreduce(net.intra_node(), h.per_node, bytes) +
             ring_allreduce(net.inter_node(), h.nodes, bytes);
    }
  }
  return 0.0;
}

double pipelined_broadcast_time(const Topology& topo, const NetworkModel& net,
                                std::size_t participants,
                                std::size_t bytes) noexcept {
  const std::size_t p = participants;
  if (p <= 1 || bytes == 0) return 0.0;
  const LinkParams link = flat_bottleneck(topo, net);
  return rounds_log2(p) * link.latency_s +
         static_cast<double>(bytes) / link.bandwidth_Bps;
}

namespace {

/// Shared allgather-family model: `total` bytes end up everywhere,
/// `recv_bytes` is the worst rank's receive volume (total - own for the
/// variable-size form, (p-1)*chunk for the equal-chunk form — kept as a
/// caller-computed double so the kRing expressions match the legacy
/// formulas bit for bit).
double allgather_core(CollectiveAlgo algo, const Topology& topo,
                      const NetworkModel& net, std::size_t p, double total,
                      double recv_bytes) noexcept {
  switch (algo) {
    case CollectiveAlgo::kRing: {
      const LinkParams link = flat_bottleneck(topo, net);
      return (static_cast<double>(p) - 1.0) * link.latency_s +
             recv_bytes / link.bandwidth_Bps;
    }
    case CollectiveAlgo::kRecursiveDoubling: {
      // Bruck-style: doubling exchanges, log2(p) latency terms, the same
      // receive volume.
      const LinkParams link = flat_bottleneck(topo, net);
      return rounds_log2(p) * link.latency_s +
             recv_bytes / link.bandwidth_Bps;
    }
    case CollectiveAlgo::kHierarchical: {
      // Gather to the node leader on NVLink, leader exchange on the
      // interconnect, then a node-local broadcast of the remote share.
      // Per-node shares are modeled as uniform (the selection/pricing
      // layer has no per-node placement).
      const HierShape h = hier_shape(topo, p);
      const double td = static_cast<double>(total);
      const double node_share = td / static_cast<double>(h.nodes);
      const double remote = td - node_share;
      double t = 0.0;
      if (h.per_node > 1) {
        const LinkParams intra = net.intra_node();
        t += (static_cast<double>(h.per_node) - 1.0) * intra.latency_s +
             node_share / intra.bandwidth_Bps;            // gather
        t += rounds_log2(h.per_node) * intra.latency_s +
             remote / intra.bandwidth_Bps;                // re-broadcast
      }
      if (h.nodes > 1) {
        const LinkParams inter = net.inter_node();
        t += (static_cast<double>(h.nodes) - 1.0) * inter.latency_s +
             remote / inter.bandwidth_Bps;                // leader exchange
      }
      return t;
    }
  }
  return 0.0;
}

}  // namespace

double allgatherv_time(CollectiveAlgo algo, const Topology& topo,
                       const NetworkModel& net, std::size_t participants,
                       std::span<const std::size_t> bytes_per_rank) noexcept {
  const std::size_t p = participants;
  if (p <= 1 || bytes_per_rank.empty()) return 0.0;
  std::size_t total = 0;
  std::size_t min_own = bytes_per_rank[0];
  for (std::size_t b : bytes_per_rank) {
    total += b;
    min_own = std::min(min_own, b);
  }
  // Each rank receives (total - own) bytes; the rank with the smallest own
  // chunk receives the most (the legacy formula).
  return allgather_core(algo, topo, net, p, static_cast<double>(total),
                        static_cast<double>(total - min_own));
}

double allgather_time(CollectiveAlgo algo, const Topology& topo,
                      const NetworkModel& net, std::size_t participants,
                      std::size_t bytes_per_rank) noexcept {
  const std::size_t p = participants;
  if (p <= 1 || bytes_per_rank == 0) return 0.0;
  const double pd = static_cast<double>(p);
  return allgather_core(algo, topo, net, p,
                        pd * static_cast<double>(bytes_per_rank),
                        (pd - 1.0) * static_cast<double>(bytes_per_rank));
}

double reduce_time(CollectiveAlgo algo, const Topology& topo,
                   const NetworkModel& net, std::size_t participants,
                   std::size_t bytes) noexcept {
  const std::size_t p = participants;
  if (p <= 1 || bytes == 0) return 0.0;
  const LinkParams link = flat_bottleneck(topo, net);
  const double bd = static_cast<double>(bytes);
  // Binomial tree reduce: log2(p) rounds, full payload per round.
  const double tree =
      rounds_log2(p) * (link.latency_s + bd / link.bandwidth_Bps);
  // Rabenseifner: reduce-scatter + gather-to-root (the allreduce cost
  // shape; bandwidth-optimal for large payloads).
  const double pd = static_cast<double>(p);
  const double rab = 2.0 * (pd - 1.0) * link.latency_s +
                     2.0 * (pd - 1.0) / pd * bd / link.bandwidth_Bps;
  switch (algo) {
    case CollectiveAlgo::kRing:
      return rab;
    case CollectiveAlgo::kRecursiveDoubling:
      return tree;
    case CollectiveAlgo::kHierarchical: {
      const HierShape h = hier_shape(topo, p);
      const LinkParams intra = net.intra_node();
      const double intra_t =
          h.per_node > 1
              ? (static_cast<double>(h.per_node) - 1.0) * intra.latency_s +
                    (static_cast<double>(h.per_node) - 1.0) /
                        static_cast<double>(h.per_node) * bd /
                        intra.bandwidth_Bps
              : 0.0;
      const double inter_t =
          h.nodes > 1 ? rounds_log2(h.nodes) *
                            (net.inter_node().latency_s +
                             bd / net.inter_node().bandwidth_Bps)
                      : 0.0;
      return intra_t + inter_t;
    }
  }
  return std::min(tree, rab);
}

}  // namespace compso::comm
