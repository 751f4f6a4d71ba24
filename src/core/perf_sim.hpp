#pragma once
// Iteration-time simulator for distributed KFAC training over the paper's
// model workloads (layer-shape tables). Produces:
//  - the Fig. 1 time breakdown (allgather / allreduce / KFAC compute /
//    forward+backward / others),
//  - the Fig. 7 communication speedups under each compressor,
//  - the Fig. 9 end-to-end speedups (COMPSO-f fixed aggregation vs
//    COMPSO-p perf-model aggregation).
//
// Compute times come from the gpusim device model (FLOP and memory-traffic
// counts of the KAISA pipeline), communication times from the comm network
// model, and compression ratios from really compressing synthetic
// KFAC-gradient data (sampled per layer group to bound memory).

#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/gpusim/device_model.hpp"
#include "src/nn/model_zoo.hpp"

#include <vector>

namespace compso::core {

struct PerfConfig {
  nn::ModelShape model;
  comm::Topology topo = comm::Topology::with_gpus(16);
  comm::NetworkModel net = comm::NetworkModel::platform1();
  gpusim::DeviceModel dev = gpusim::DeviceModel::a100();
  std::size_t batch_per_gpu = 4;
  /// KAISA-style update periods: factors are recomputed/all-reduced every
  /// `factor_update_every` iterations; eigendecompositions refresh every
  /// `eigen_refresh_every` factor updates.
  std::size_t factor_update_every = 25;
  std::size_t eigen_refresh_every = 4;
  /// KAISA overlaps the per-layer gradient broadcasts with the remaining
  /// computation (its contribution 2): this fraction of the allgather time
  /// hides behind compute, bounded by the compute actually available.
  /// 0 = fully exposed (the default the Fig. 1/7/9 benches use; the
  /// paper's breakdown already nets out its overlap).
  double comm_overlap = 0.0;
  /// Collective-algorithm selection (DESIGN.md §16). The default keeps
  /// auto-selection off, so every modeled collective prices exactly as the
  /// legacy flat-ring / binomial formulas.
  comm::CollectiveConfig collectives;
};

/// One KFAC training iteration, split the way Fig. 1 reports it.
struct IterationBreakdown {
  double allgather_s = 0.0;   ///< preconditioned-gradient allgather.
  double allreduce_s = 0.0;   ///< factor allreduce (amortized).
  double kfac_compute_s = 0.0;
  double forward_backward_s = 0.0;
  double others_s = 0.0;
  double comp_s = 0.0;        ///< compression (0 without compressor).
  double decomp_s = 0.0;

  double total_s() const noexcept {
    return allgather_s + allreduce_s + kfac_compute_s + forward_backward_s +
           others_s + comp_s + decomp_s;
  }
  double comm_fraction() const noexcept {
    const double t = total_s();
    return t > 0.0 ? (allgather_s + allreduce_s) / t : 0.0;
  }
};

struct CompressedIteration {
  IterationBreakdown breakdown;
  double compression_ratio = 1.0;
  /// Allgather speedup excluding codec overhead (Fig. 7's metric).
  double comm_speedup = 1.0;
  /// End-to-end iteration speedup vs. the uncompressed baseline (Fig. 9).
  double end_to_end_speedup = 1.0;
};

class PerfSimulator {
 public:
  explicit PerfSimulator(PerfConfig config);

  /// Uncompressed distributed-KFAC iteration (the Fig. 1 baseline).
  const IterationBreakdown& baseline() const noexcept { return baseline_; }

  /// Iteration with `compressor` applied to the allgather, aggregating
  /// `aggregation` layers per compression call.
  CompressedIteration with_compressor(
      const compress::GradientCompressor& compressor,
      std::size_t aggregation) const;

  /// Analytic payload pipeline of the per-step compressed stream
  /// (DESIGN.md §15): compression, wire, and decompression charged in
  /// series (the unchunked path, Eq. 5's denominator) vs the chunked
  /// 3-stage makespan over `chunk_bytes`-sized frames. All groups feed
  /// one stream — matching the transport, where the gather concatenates
  /// a rank's groups before framing. Both sides use the identical per-group
  /// compression ratios, modeled codec throughputs, and network model as
  /// with_compressor, so the analytic ratio and the real transport agree
  /// by construction.
  struct ChunkedPipeline {
    double serial_s = 0.0;    ///< unchunked: comp + wire + decomp in series.
    double pipeline_s = 0.0;  ///< chunked 3-stage makespan of the stream.
    double comp_s = 0.0;      ///< codec compress stage (summed groups).
    double decomp_s = 0.0;    ///< codec decompress stage (summed groups).
    std::size_t chunks = 0;   ///< chunk frames in the stream.
    std::size_t comp_bytes = 0;
    double ratio() const noexcept {
      return pipeline_s > 0.0 ? serial_s / pipeline_s : 1.0;
    }
  };
  ChunkedPipeline with_chunked_compressor(
      const compress::GradientCompressor& compressor,
      std::size_t aggregation, std::size_t chunk_bytes) const;

  /// Per-rank peak factor-state memory under the two preconditioning
  /// layouts (DESIGN.md §16): KAISA replicates every layer's covariance
  /// factors on every rank (O(L)), the sharded DP-KFAC layout stores a
  /// layer's factors only on its owner (O(L/P) with cost-balanced
  /// assignment). Charges each layer optim::factor_cost, as
  /// DistKfac::shard_stats does, so the modeled curve and the functional
  /// optimizer agree.
  struct PrecondMemory {
    std::size_t replicated_bytes = 0;    ///< every rank: all factors.
    std::size_t sharded_peak_bytes = 0;  ///< heaviest owner under LPT.
  };
  PrecondMemory precond_memory(std::size_t world) const;

  /// Aggregated layer-group original sizes for the owner with most data.
  std::vector<std::size_t> layer_bytes() const;
  const PerfConfig& config() const noexcept { return cfg_; }

 private:
  IterationBreakdown compute_baseline() const;

  PerfConfig cfg_;
  comm::Communicator comm_;
  IterationBreakdown baseline_;
};

}  // namespace compso::core
