#include "src/core/perf_sim.hpp"

#include "src/codec/chunk.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/tensor/synthetic.hpp"

#include <algorithm>
#include <cmath>

namespace compso::core {
namespace {

/// Factor dimensions beyond this use KAISA's implicit inversion (O(d^2)
/// per refresh) instead of explicit eigendecomposition (O(d^3)).
constexpr std::size_t kExplicitEigenLimit = 4096;

/// Achieved fraction of the device's peak FP32 rate in forward/backward.
constexpr double kFwdBwdEfficiency = 0.45;

/// Seed of the synthetic gradient samples the compression ratios come from.
constexpr std::uint64_t kSampleSeed = 2025;

double eigen_cost_flops(std::size_t dim) noexcept {
  const double d = static_cast<double>(dim);
  if (dim <= kExplicitEigenLimit) return 25.0 * d * d * d;
  return 40.0 * d * d;  // implicit inversion path
}

/// One compression group: `aggregation` consecutive layers (the runtime
/// aggregates each owner's layer stream; consecutive grouping matches
/// KAISA's completion order), priced at the group's modeled size.
struct GroupCost {
  std::size_t orig_bytes = 0;
  std::size_t comp_bytes = 0;
  double comp_s = 0.0;    ///< codec compression time at this size.
  double decomp_s = 0.0;  ///< codec decompression time at this size.
};

/// The one compression-ratio sampler: every compressed view of the
/// iteration prices the same per-group payload sizes. The CR comes from
/// really compressing a bounded sample of synthetic KFAC-gradient data
/// (one rng.split stream per group); codec times come from the GPU
/// pipeline model at the group's size, which is where launch-overhead
/// amortization rewards aggregation.
std::vector<GroupCost> group_costs(const PerfConfig& cfg,
                                   const compress::GradientCompressor& compressor,
                                   std::size_t aggregation) {
  const std::size_t m = std::max<std::size_t>(aggregation, 1);
  tensor::Rng rng(kSampleSeed);
  const auto profile = tensor::GradientProfile::kfac();
  const auto& layers = cfg.model.layers;
  std::vector<GroupCost> out;
  for (std::size_t i = 0; i < layers.size(); i += m) {
    std::size_t group_elems = 0;
    for (std::size_t j = i; j < std::min(i + m, layers.size()); ++j) {
      group_elems += layers[j].kfac_elements();
    }
    if (group_elems == 0) continue;
    GroupCost g;
    g.orig_bytes = group_elems * sizeof(float);
    const std::size_t sample_elems =
        std::min<std::size_t>(group_elems, 1 << 16);
    auto rng_group = rng.split(i + 1);
    const auto sample =
        tensor::synthetic_gradient(sample_elems, profile, rng_group);
    const auto payload = compressor.compress(sample, rng_group);
    const double cr = static_cast<double>(sample.size() * sizeof(float)) /
                      static_cast<double>(std::max<std::size_t>(
                          payload.size(), 1));
    g.comp_bytes = static_cast<std::size_t>(
        std::max(static_cast<double>(g.orig_bytes) / cr, 1.0));
    g.comp_s = static_cast<double>(g.orig_bytes) /
               compressor.modeled_throughput(cfg.dev, g.orig_bytes,
                                             g.comp_bytes);
    g.decomp_s = static_cast<double>(g.comp_bytes) /
                 compressor.modeled_throughput(cfg.dev, g.comp_bytes,
                                               g.orig_bytes);
    out.push_back(g);
  }
  return out;
}

}  // namespace

PerfSimulator::PerfSimulator(PerfConfig config)
    : cfg_(std::move(config)), comm_(cfg_.topo, cfg_.net) {
  comm_.set_collective_config(cfg_.collectives);
  baseline_ = compute_baseline();
}

IterationBreakdown PerfSimulator::compute_baseline() const {
  IterationBreakdown b;
  const double flops_rate = cfg_.dev.fp32_flops * kFwdBwdEfficiency;
  const auto batch = static_cast<double>(cfg_.batch_per_gpu);
  const std::size_t world = cfg_.topo.world_size();

  // --- forward + backward: ~3 GEMM-equivalents (fwd, grad-in, grad-W),
  // each 2 * out * in * work_multiplier flops per sample; embeddings are
  // lookups (memory traffic only).
  double fb_flops = 0.0;
  double fb_bytes = 0.0;
  std::size_t kernel_launches = 0;
  for (const auto& l : cfg_.model.layers) {
    if (l.embedding) {
      fb_bytes += 2.0 * batch * static_cast<double>(l.out) * 4.0;
    } else {
      fb_flops += 6.0 * batch * static_cast<double>(l.work_multiplier) *
                  static_cast<double>(l.out) * static_cast<double>(l.in);
    }
    kernel_launches += 3;
  }
  b.forward_backward_s =
      fb_flops / flops_rate + fb_bytes / cfg_.dev.effective_bandwidth() +
      static_cast<double>(kernel_launches) * cfg_.dev.kernel_launch_s;

  // --- KFAC compute (per rank): covariances + factor maintenance every
  // `factor_update_every` iterations; eigendecomposition every
  // `eigen_refresh_every` factor updates on the owner rank; precondition
  // every iteration on the owner rank. Embedding layers use element-wise
  // preconditioning (a memory pass).
  // Owner work is split across ranks; KAISA balances the assignment, so a
  // rank's share is 1/world of the total eigendecomposition /
  // preconditioning work.
  double cov_flops = 0.0;
  double eig_flops = 0.0;
  double precond_flops = 0.0;
  double elementwise_bytes = 0.0;
  for (const auto& l : cfg_.model.layers) {
    if (l.embedding) {
      elementwise_bytes += static_cast<double>(l.kfac_bytes()) * 3.0;
      continue;
    }
    const double in_aug = static_cast<double>(l.in) + 1.0;
    const double out = static_cast<double>(l.out);
    const double samples = batch * static_cast<double>(l.work_multiplier);
    cov_flops += samples * (in_aug * in_aug + out * out);
    eig_flops += eigen_cost_flops(l.in + 1) + eigen_cost_flops(l.out);
    precond_flops += 4.0 * (out * out * in_aug + out * in_aug * in_aug);
  }
  const auto world_d = static_cast<double>(world);
  eig_flops /= world_d;
  precond_flops /= world_d;
  elementwise_bytes /= world_d;
  const auto factor_every = static_cast<double>(cfg_.factor_update_every);
  const auto eigen_every =
      static_cast<double>(cfg_.factor_update_every * cfg_.eigen_refresh_every);
  b.kfac_compute_s = cov_flops / flops_rate / factor_every +
                     eig_flops / flops_rate / eigen_every +
                     precond_flops / flops_rate +
                     elementwise_bytes / cfg_.dev.effective_bandwidth();

  // --- factor allreduce (only when factors are refreshed; amortized).
  // Factors are symmetric, so only the triangular half is communicated.
  std::size_t factor_bytes = 0;
  for (const auto& l : cfg_.model.layers) {
    if (l.embedding) continue;
    factor_bytes +=
        ((l.in + 1) * (l.in + 2) / 2 + l.out * (l.out + 1) / 2) *
        sizeof(float);
  }
  b.allreduce_s = comm_.allreduce_time(factor_bytes) / factor_every;

  // --- preconditioned-gradient distribution: KAISA broadcasts each
  // layer's result from its owner as soon as it is ready — one pipelined
  // broadcast per layer at baseline (aggregation groups several). A
  // configurable fraction hides behind the remaining compute (KAISA's
  // comp-comm overlap), bounded by the compute available to hide in.
  b.allgather_s = 0.0;
  for (const auto& l : cfg_.model.layers) {
    b.allgather_s += comm_.pipelined_broadcast_time(l.kfac_bytes());
  }
  if (cfg_.comm_overlap > 0.0) {
    const double hideable =
        std::min(b.allgather_s * std::clamp(cfg_.comm_overlap, 0.0, 1.0),
                 b.kfac_compute_s + b.forward_backward_s);
    b.allgather_s -= hideable;
  }

  // --- others: optimizer step, host-side work, data pipeline — a memory
  // pass over the parameters plus a fraction of fwd/bwd.
  const double param_bytes = static_cast<double>(cfg_.model.total_bytes());
  b.others_s = 3.0 * param_bytes / cfg_.dev.effective_bandwidth() +
               0.30 * b.forward_backward_s;
  return b;
}

PerfSimulator::PrecondMemory PerfSimulator::precond_memory(
    std::size_t world) const {
  PrecondMemory out;
  const std::size_t p = std::max<std::size_t>(world, 1);
  // Each layer's factors charged as DistKfac::shard_stats charges them.
  std::vector<std::size_t> bytes;
  std::vector<double> cost;
  for (const auto& l : cfg_.model.layers) {
    if (l.embedding) continue;  // element-wise path: no covariance factors.
    const optim::FactorCost c = optim::factor_cost(l.in + 1, l.out);
    bytes.push_back(c.resident_bytes);
    cost.push_back(c.eigh_cost);
  }
  for (const std::size_t b : bytes) out.replicated_bytes += b;

  // The owner map DistKfac's cost-balanced assignment computes.
  const auto owner = optim::lpt_assign(cost, p);
  std::vector<std::size_t> rank_bytes(p, 0);
  for (std::size_t s = 0; s < bytes.size(); ++s) {
    rank_bytes[owner[s]] += bytes[s];
  }
  out.sharded_peak_bytes =
      *std::max_element(rank_bytes.begin(), rank_bytes.end());
  return out;
}

std::vector<std::size_t> PerfSimulator::layer_bytes() const {
  std::vector<std::size_t> out;
  out.reserve(cfg_.model.layers.size());
  for (const auto& l : cfg_.model.layers) out.push_back(l.kfac_bytes());
  return out;
}

CompressedIteration PerfSimulator::with_compressor(
    const compress::GradientCompressor& compressor,
    std::size_t aggregation) const {
  // The owner compresses once; every receiver decompresses, so
  // decompression sits on each rank's critical path for all groups.
  double allgather_s = 0.0;
  double comp_s = 0.0;
  double decomp_s = 0.0;
  std::size_t total_orig = 0, total_comp = 0;
  for (const GroupCost& g : group_costs(cfg_, compressor, aggregation)) {
    total_orig += g.orig_bytes;
    total_comp += g.comp_bytes;
    allgather_s += comm_.pipelined_broadcast_time(g.comp_bytes);
    comp_s += g.comp_s;
    decomp_s += g.decomp_s;
  }

  CompressedIteration out;
  out.breakdown = baseline_;
  // The same comp-comm overlap that hides the baseline's broadcasts hides
  // the (much smaller) compressed ones.
  if (cfg_.comm_overlap > 0.0) {
    const double hideable =
        std::min(allgather_s * std::clamp(cfg_.comm_overlap, 0.0, 1.0),
                 baseline_.kfac_compute_s + baseline_.forward_backward_s);
    allgather_s -= hideable;
  }
  out.breakdown.allgather_s = allgather_s;
  // Compression runs only for layers this rank owns (1/world of them).
  out.breakdown.comp_s =
      comp_s / static_cast<double>(cfg_.topo.world_size());
  out.breakdown.decomp_s = decomp_s;
  out.compression_ratio = total_comp > 0
                              ? static_cast<double>(total_orig) /
                                    static_cast<double>(total_comp)
                              : 1.0;
  out.comm_speedup = out.breakdown.allgather_s > 0.0
                         ? baseline_.allgather_s / out.breakdown.allgather_s
                         : 1.0;
  out.end_to_end_speedup = baseline_.total_s() / out.breakdown.total_s();
  return out;
}

PerfSimulator::ChunkedPipeline PerfSimulator::with_chunked_compressor(
    const compress::GradientCompressor& compressor, std::size_t aggregation,
    std::size_t chunk_bytes) const {
  const std::size_t cb = std::max<std::size_t>(chunk_bytes, 1);
  // The transport frames the whole concatenated per-step payload as ONE
  // chunk stream (DistKfac's gather concatenates a rank's groups before
  // framing), so the analytic view accumulates the per-group codec costs
  // and payload sizes first and pipelines the totals as a single stream.
  ChunkedPipeline out;
  for (const GroupCost& g : group_costs(cfg_, compressor, aggregation)) {
    out.comp_s += g.comp_s;
    out.decomp_s += g.decomp_s;
    out.comp_bytes += g.comp_bytes;
  }
  if (out.comp_bytes == 0) return out;
  out.serial_s = out.comp_s + comm_.pipelined_broadcast_time(out.comp_bytes) +
                 out.decomp_s;
  // Chunk the *compressed* stream: n frames, each paying its own wire
  // latency (the honest cost of chunking), pipelined 3 stages deep.
  out.chunks = codec::chunk::chunk_count_for(out.comp_bytes, cb);
  const auto nd = static_cast<double>(out.chunks);
  out.pipeline_s = comm::chunk_pipeline_makespan(
      out.chunks, out.comp_s / nd,
      comm_.pipelined_broadcast_time(std::min(out.comp_bytes, cb)),
      out.decomp_s / nd);
  return out;
}

}  // namespace compso::core
