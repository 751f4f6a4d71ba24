#pragma once
// Alpha-beta (latency + bandwidth) network cost model with a two-level
// hierarchy: NVLink inside a node, an interconnect (Slingshot 10/11 in the
// paper's platforms) between nodes.
//
// This is the substitution for the paper's physical clusters: every
// communication time reported by the simulator is computed from these
// parameters, so relative speedups depend only on message sizes, collective
// algorithms, and link speeds — the same terms that drive the paper's
// measurements.

#include "src/comm/topology.hpp"

#include <cstddef>
#include <string>

namespace compso::comm {

/// One link class: startup latency (s) and bandwidth (bytes/s).
struct LinkParams {
  double latency_s = 0.0;
  double bandwidth_Bps = 0.0;

  /// Time to move `bytes` across this link.
  double transfer_time(std::size_t bytes) const noexcept {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

/// Hierarchical network: intra-node (NVLink) + inter-node (NIC) links.
/// `nic_share` models how many GPU ranks of a node can be pumping the NIC
/// concurrently during a collective step (effective per-rank bandwidth =
/// inter.bandwidth / active sharers).
class NetworkModel {
 public:
  NetworkModel(std::string name, LinkParams intra, LinkParams inter)
      : name_(std::move(name)), intra_(intra), inter_(inter) {}

  const std::string& name() const noexcept { return name_; }
  const LinkParams& intra_node() const noexcept { return intra_; }
  const LinkParams& inter_node() const noexcept { return inter_; }

  /// --- Paper Platform presets (§5, "Platforms") ---
  /// Platform 1: 16 nodes, 4xA100/node, Slingshot 10 (100 Gbps).
  static NetworkModel platform1();
  /// Platform 2: 64 nodes, 4xA100/node, Slingshot 11 (200 Gbps).
  static NetworkModel platform2();

 private:
  std::string name_;
  LinkParams intra_;
  LinkParams inter_;
};

/// Makespan of a 3-stage chunk pipeline (compress -> wire -> decode), each
/// stage taking the given per-chunk time: the first chunk pays the full
/// serial fill (a + b + c), and every further chunk adds one beat of the
/// slowest stage. This is the analytic model the chunked transport and the
/// PerfSimulator both use, so they agree by construction (DESIGN.md §15).
double chunk_pipeline_makespan(std::size_t chunks, double compress_s,
                               double wire_s, double decode_s) noexcept;

}  // namespace compso::comm
