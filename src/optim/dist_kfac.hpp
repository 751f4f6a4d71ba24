#pragma once
// Distributed KFAC in the KAISA style (paper §2.2):
//
//  per iteration, for every trainable layer:
//   1. each rank computes local covariance contributions from its batch;
//   2. factors are all-reduced (averaged) across ranks — every layer's A
//      and G as packed upper triangles in one buffer per rank, so the
//      step runs one factor collective (one reduce per owner under the
//      sharded layout) and one gradient allreduce, not three per layer;
//   3. eigendecompositions are partitioned layer-wise: layer l is owned by
//      rank (l mod world) and refreshed there every `eigen_refresh_every`
//      iterations;
//   4. the owner computes the preconditioned gradient for its layers;
//   5. preconditioned gradients are all-gathered to every rank — this is
//      the communication COMPSO compresses, shipped on the chunked
//      exchange (optim/exchange.hpp).
//
// The simulator runs SPMD over model replicas: data really moves through
// the Communicator (so compression error reaches the weights exactly as on
// a real cluster) and every collective advances the simulated clocks.

#include "src/codec/wire.hpp"
#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/nn/model.hpp"
#include "src/optim/exchange.hpp"
#include "src/optim/kfac.hpp"
#include "src/optim/recovery.hpp"
#include "src/optim/step_graph.hpp"
#include "src/tensor/matrix_ops.hpp"

#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace compso::optim {

/// Greedy LPT (longest processing time first) over `bins` bins: items go
/// heaviest first (ties: lower index), each to the least-loaded bin (ties:
/// lower bin). Returns each item's bin. A pure function of its inputs, so
/// every rank computes the same map; the cost-balanced shard owners and
/// the PerfSimulator's memory curve both come from it.
std::vector<std::size_t> lpt_assign(std::span<const double> cost,
                                    std::size_t bins);

/// One slot's factor accounting (d_a = in + 1, d_g = out): the weight the
/// cost-balanced owners balance on, and what DistKfac::shard_stats and
/// the PerfSimulator's memory curve charge the slot's owner.
struct FactorCost {
  double eigh_cost = 0.0;            ///< d_a^3 + d_g^3, the LPT weight.
  double eigh_flops = 0.0;           ///< 25 * eigh_cost (explicit eigh).
  std::uint64_t resident_bytes = 0;  ///< f32 A, G, eigenvectors, values.
};
FactorCost factor_cost(std::size_t da, std::size_t dg) noexcept;

/// Where each layer's KFAC factor state lives (DESIGN.md §16).
enum class PrecondLayout : std::uint8_t {
  /// KAISA: every rank holds and refreshes every layer's factors —
  /// per-rank factor memory and eigh work grow O(L) with the model.
  kKaisa = 0,
  /// DP-KFAC-style sharding: covariances are reduce-summed to the layer's
  /// owner, which alone holds/refreshes the factors and preconditions the
  /// gradient; the preconditioned update reaches everyone through the
  /// existing owner-grouped gather. Per-rank factor memory and eigh work
  /// are O(L/P). Trajectories are bit-identical to kKaisa (the reduce
  /// uses the same canonical summation order as the allreduce).
  kSharded = 1,
};

/// How layer slots map to owner ranks.
enum class ShardAssignment : std::uint8_t {
  /// Legacy KAISA order: slot s -> participant_ranks()[s % p].
  kRoundRobin = 0,
  /// Greedy LPT on the per-slot eigh cost (d_a^3 + d_g^3): heaviest slot
  /// first to the least-loaded participant. Deterministic (ties break to
  /// the lower slot / lower rank), so every rank computes the same map.
  kCostBalanced = 1,
};

/// Bound on the squared natural-gradient norm of a step, Σ v·g over its
/// layers, with v the preconditioned and g the averaged gradient
/// (DESIGN.md §11.8). A step above it has every v scaled by
/// sqrt(kMaxNaturalGradSq / Σ v·g) before v enters the momentum; its
/// KL term lr²·Σ v·g is then capped at lr²·kMaxNaturalGradSq.
inline constexpr double kMaxNaturalGradSq = 1000.0;

struct DistKfacConfig {
  double damping = 3e-2;          ///< gamma in Eq. 2.
  double stat_decay = 0.9;        ///< running-average factor decay.
  /// Steps between eigen refreshes; at least 1.
  std::size_t eigen_refresh_every = 10;
  /// Layer-aggregation factor m (§4.4): each owner concatenates up to m of
  /// its layers' preconditioned gradients per compression call, amortizing
  /// codec overhead and improving small-layer ratios.
  std::size_t aggregation = 1;
  /// Chunk size of the byte exchanges — the preconditioned-gradient
  /// gather and the compressed factor exchange (DESIGN.md §15): each
  /// rank's send buffer ships as chunk frames of this many body bytes,
  /// one round per chunk; 0 = one chunk per rank. Payload bytes and
  /// training trajectories are bit-identical at any value (the chunk
  /// layer frames the *finished* payload; no RNG stream or float op
  /// changes).
  std::size_t chunk_bytes = 0;
  /// Factor-state layout (see PrecondLayout). The default keeps the
  /// legacy replicated KAISA behavior.
  PrecondLayout layout = PrecondLayout::kKaisa;
  /// Layer -> owner assignment policy (see ShardAssignment). kRoundRobin
  /// reproduces the legacy `participant_ranks()[s % p]` map exactly.
  ShardAssignment assignment = ShardAssignment::kRoundRobin;
};

/// Paper §7 future-work item 2: compressing the intermediate factor
/// matrices A and G before their collective. Because a compressed
/// allreduce is not linear, the factor exchange becomes
/// compress -> allgather -> decompress -> average (the CocktailSGD-style
/// pattern) on each factor's packed upper triangle, trading extra payload
/// count for the compression ratio.

class DistKfac {
 public:
  /// `replicas` are the per-rank model copies (must be structurally
  /// identical; typically created from the same seed). With a `pool`
  /// (not owned) the step's compute tasks — covariances, factor and
  /// gather compression, eigh, preconditioning, decodes — run on its
  /// workers while this thread drives the collectives (compute/
  /// communication overlap, §4.4); with none they run inline. Output is
  /// bit-identical either way: each compression task draws from its own
  /// task_rng() stream, never from the step generator. Throws
  /// std::invalid_argument unless there is one replica per rank and
  /// `config.eigen_refresh_every` is at least 1.
  DistKfac(DistKfacConfig config, comm::Communicator& comm,
           std::vector<nn::Model*> replicas,
           common::ThreadPool* pool = nullptr);

  /// One optimizer step after every rank ran forward/backward on its local
  /// batch. `compressor` == nullptr means no compression (the paper's
  /// "KFAC (No Comp.)" baseline).
  void step(std::size_t iteration, double lr,
            const compress::GradientCompressor* compressor,
            tensor::Rng& rng);

  /// Communication volume of the last step's preconditioned-gradient
  /// allgather (for compression-ratio reporting).
  std::uint64_t last_original_bytes() const noexcept { return orig_bytes_; }
  std::uint64_t last_compressed_bytes() const noexcept { return comp_bytes_; }

  /// Enables factor (A/G) compression for the covariance exchange (§7
  /// future work). Pass nullptr to disable (default: plain allreduce).
  void set_factor_compressor(
      const compress::GradientCompressor* compressor) noexcept {
    factor_compressor_ = compressor;
  }
  /// Factor bytes the last step's compressed exchange replaced — the
  /// packed triangles the uncompressed exchange sends — and the
  /// compressed payload bytes sent in their place.
  std::uint64_t last_factor_original_bytes() const noexcept {
    return factor_orig_bytes_;
  }
  std::uint64_t last_factor_compressed_bytes() const noexcept {
    return factor_comp_bytes_;
  }

  std::size_t layer_count() const noexcept { return layer_indices_.size(); }
  /// Factors and eigendecompositions of trainable layer slot `i`.
  const KfacLayerState& layer_state(std::size_t i) const {
    return *states_.at(i);
  }
  /// Owner rank of trainable layer slot `i` under the configured
  /// assignment policy, over this step's *participating* ranks — so
  /// ownership re-partitions deterministically when the membership layer
  /// excludes a straggler for a step or evicts a crashed rank. The
  /// assignment is cached and refreshed lazily whenever the participation
  /// mask changes. Throws std::out_of_range for i >= layer_count().
  std::size_t owner_of(std::size_t i) const;
  /// The full slot -> owner map (refreshed like owner_of).
  const std::vector<std::size_t>& shard_owners() const;

  /// Per-rank factor memory / eigh cost attribution for the current
  /// layout + assignment — the auditable O(L/P) claim (BENCH_scale.json).
  /// Each slot charges its factor_cost() resident bytes and eigh flops.
  /// Under kKaisa every participant is charged every layer (replicated);
  /// under kSharded only the owner is charged.
  struct ShardStats {
    std::vector<std::size_t> owners;        ///< [slot] -> owner rank.
    std::vector<std::uint64_t> factor_bytes;  ///< [world rank].
    std::vector<double> eigh_flops;           ///< [world rank].
    std::uint64_t peak_factor_bytes = 0;  ///< max over participants.
    double peak_eigh_flops = 0.0;         ///< max over participants.
  };
  ShardStats shard_stats() const;

  /// Recovery policy (see recovery.hpp): bounded re-send retries on decode
  /// failure, fallback to the uncompressed exchange, non-finite step skip.
  /// The preconditioned-gradient gather is one collective for all layers,
  /// so fallback/degradation applies to the whole exchange rather than to
  /// a single layer.
  void set_recovery(const RecoveryPolicy& policy) noexcept {
    policy_ = policy;
  }
  const RecoveryPolicy& recovery_policy() const noexcept { return policy_; }
  bool gather_degraded() const noexcept { return gather_state_.degraded != 0; }

  /// Serializes momentum, KFAC factors + eigendecompositions, and recovery
  /// counters for checkpointing; restore with load_state.
  void save_state(std::vector<std::uint8_t>& out) const;
  void load_state(codec::wire::Reader& reader);

  /// Schedule-shape counters of the last step() (see StepGraph::Stats):
  /// how many collectives ran with compute in flight, how many ran idle.
  const StepGraph::Stats& last_sched_stats() const noexcept {
    return sched_stats_;
  }

 private:
  DistKfacConfig cfg_;
  RecoveryPolicy policy_;
  comm::Communicator& comm_;
  std::vector<nn::Model*> replicas_;
  std::vector<std::size_t> layer_indices_;  ///< trainable layer positions.
  std::vector<std::unique_ptr<KfacLayerState>> states_;
  std::vector<Tensor> momentum_;  ///< per layer, combined-grad shaped.
  std::uint64_t orig_bytes_ = 0;
  std::uint64_t comp_bytes_ = 0;
  const compress::GradientCompressor* factor_compressor_ = nullptr;
  std::uint64_t factor_orig_bytes_ = 0;
  std::uint64_t factor_comp_bytes_ = 0;
  DegradeState gather_state_;  ///< the gather's degradation ladder.

  common::ThreadPool* pool_ = nullptr;
  /// Per-step task counter: every compression job's Rng stream id,
  /// assigned in deterministic order while the step's task graph is
  /// built on the optimizer thread (see step()).
  std::uint64_t task_counter_ = 0;
  /// The step's task graph + the schedule-shape counters of its last run.
  StepGraph graph_;
  StepGraph::Stats sched_stats_;
  // Per-step workspaces (persistent so steady-state steps reuse
  // capacity). Each rank has one factor buffer, the only factor layout:
  // every slot's packed A then G triangles, grouped by owner (ascending
  // rank, then owned slots ascending), and one gradient buffer: every
  // slot's combined gradient in slot order. Factor payloads are indexed
  // [slot][rank]; gather-group buffers are indexed [group].
  std::vector<std::vector<float>> factor_buf_;  ///< [rank].
  std::vector<std::size_t> factor_off_;         ///< [slot] A's offset.
  std::size_t factor_floats_ = 0;               ///< per-rank buffer size.
  std::vector<std::vector<float>> grad_buf_;    ///< [rank].
  std::vector<std::size_t> grad_off_;           ///< [slot].
  std::vector<std::vector<compress::Bytes>> factor_send_a_;
  std::vector<std::vector<compress::Bytes>> factor_send_g_;
  std::vector<Tensor> preconditioned_;          ///< [slot].
  std::vector<std::uint8_t> skip_;              ///< [slot], non-finite.
  std::vector<std::vector<std::size_t>> owned_;  ///< [rank] -> slots.
  /// Cached slot -> owner assignment + the participation mask it was
  /// computed under (lazy refresh; see refresh_assignment).
  mutable std::vector<std::size_t> shard_owner_;
  mutable std::vector<std::uint8_t> shard_mask_;
  /// One gather group: up to `aggregation` consecutive slots of one
  /// owner, compressed as one payload on its own Rng stream.
  struct GatherGroup {
    std::size_t rank;
    std::size_t first;  ///< index into owned_[rank]
    std::size_t count;
    std::uint64_t tid;
  };
  std::vector<GatherGroup> groups_;
  std::vector<std::vector<float>> group_concat_;
  std::vector<compress::Bytes> group_payloads_;
  std::vector<std::vector<float>> group_values_;
  std::vector<compress::Bytes> gather_send_;  ///< [rank] framed groups.
  ChunkedExchange exchange_;

  /// Deterministic slot -> owner map over `ranks` (ascending rank list)
  /// under the configured assignment policy.
  std::vector<std::size_t> compute_owners(
      const std::vector<std::size_t>& ranks) const;
  /// Refreshes the cached assignment if the participation mask changed
  /// since it was computed (eviction/readmission reassigns shards).
  void refresh_assignment() const;

  /// Floats of slot `s`'s packed A and G triangles.
  std::pair<std::size_t, std::size_t> packed_sizes(std::size_t s) const {
    return {tensor::packed_size(states_[s]->factor_a().rows()),
            tensor::packed_size(states_[s]->factor_g().rows())};
  }

  /// The slot's rank (its owner under the sharded layout, else the lead
  /// participant) whose averaged factors and gradient feed its
  /// preconditioning.
  std::size_t root_of(std::size_t s, std::size_t lead) const {
    return cfg_.layout == PrecondLayout::kSharded ? shard_owner_[s] : lead;
  }

  /// Averages floats [begin, end) of every participant's factor_buf_ into
  /// factor_buf_[root]: one reduce to `root` under the sharded layout
  /// (DP-KFAC: only the owner needs the average; the canonical summation
  /// order gives it the bits the allreduce would), else one allreduce
  /// with `root` the lead participant.
  void average_factors(std::size_t begin, std::size_t end, std::size_t root);

  /// Slot `s`'s §7 compressed exchange of one factor (`a` selects A or
  /// G): the chunked exchange of the per-rank payloads, each compressed
  /// from the rank's packed triangle, falling back to average_factors on
  /// the untouched triangles. Either way the factor's slice of
  /// factor_buf_[root] ends up holding the rank average.
  void exchange_compressed_factor(std::size_t s, bool a, std::size_t root);

  /// Blends slot `s`'s averaged triangles in factor_buf_[root] into its
  /// running factors.
  void blend_slot(std::size_t s, std::size_t root);

  /// Stateful-compressor stream key of a gather group: (owner rank, first
  /// owned slot).
  std::uint64_t group_stream(const GatherGroup& grp) const;

  /// Frames group_payloads_ into the per-rank send buffers
  /// ([u64 n][u64 sid x n][u64 psize][payload] groups), exchanges them,
  /// and decodes into preconditioned_. Returns false when the exchange or
  /// the decode failed under an enabled policy.
  bool gather_exchange(const compress::GradientCompressor* compressor);

  /// The factor the update applies to every slot's v this step: 1, or
  /// the one that brings Σ v·g down to kMaxNaturalGradSq (counted in
  /// kfac.clipped_updates).
  float update_scale(std::size_t lead) const;

  /// Decodes the exchanged per-rank streams into preconditioned_ (throws
  /// PayloadError on any framing or payload damage). Framing is parsed
  /// and validated serially; group decompressions fan out over the pool.
  void decode_gathered(const compress::GradientCompressor* compressor);
};

}  // namespace compso::optim
