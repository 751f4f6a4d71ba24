#pragma once
// Distributed first-order baseline: data-parallel SGD with momentum 0.9,
// with an optional gradient compressor in the CocktailSGD style — each
// rank compresses its local gradient, payloads are all-gathered on the
// chunked exchange (optim/exchange.hpp, one chunk per rank), every rank
// decompresses and averages.
// Error feedback (the classic EF-SGD mechanism §6 mentions; COMPSO itself
// does not use EF, but CocktailSGD does) is a property of the compressor:
// pass a compress::make_error_feedback wrapper, whose per-(slot, rank)
// stream residuals the optimizer keys, rolls back on fallback, and resets
// on rejoin (DESIGN.md §17).
//
// Fault tolerance (see recovery.hpp / DESIGN.md §9): with a RecoveryPolicy
// enabled the step survives corrupted or missing chunk frames via bounded
// per-round re-send retries, falls back to the uncompressed allreduce
// after repeated failures (degrading the layer permanently past the
// threshold), skips updates whose averaged gradient went non-finite, and
// averages over the surviving ranks only when the Communicator has
// evicted a crashed rank (gradient-average renormalization).

#include "src/codec/wire.hpp"
#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/nn/model.hpp"
#include "src/optim/exchange.hpp"
#include "src/optim/recovery.hpp"
#include "src/optim/step_graph.hpp"

#include <vector>

namespace compso::optim {

class DistSgd {
 public:
  /// With a `pool` (not owned) layer compressions and decodes run on
  /// its workers while this thread drives layer i's collective and
  /// decode (compute/communication overlap, §4.4); with none they run
  /// inline. Output is bit-identical either way — every compression task
  /// draws from its own task_rng() stream, never from the shared step
  /// generator.
  DistSgd(comm::Communicator& comm, std::vector<nn::Model*> replicas,
          common::ThreadPool* pool = nullptr);

  /// One step after every rank ran forward/backward on its local batch.
  void step(double lr, const compress::GradientCompressor* compressor,
            tensor::Rng& rng);

  void set_recovery(const RecoveryPolicy& policy) noexcept {
    policy_ = policy;
  }
  const RecoveryPolicy& recovery_policy() const noexcept { return policy_; }
  /// True if layer slot `s` has been degraded to the uncompressed path.
  bool layer_degraded(std::size_t s) const noexcept {
    return s < degrade_.size() && degrade_[s].degraded != 0;
  }

  std::uint64_t last_original_bytes() const noexcept { return orig_bytes_; }
  std::uint64_t last_compressed_bytes() const noexcept { return comp_bytes_; }

  /// Schedule-shape counters of the last step() (see StepGraph::Stats):
  /// how many collectives ran with compute in flight, how many ran idle.
  const StepGraph::Stats& last_sched_stats() const noexcept {
    return sched_stats_;
  }

  /// Serializes the full optimizer state (velocity, degradation counters)
  /// for checkpointing; restore with load_state. The byte layout is
  /// internal to the checkpoint format (core/checkpoint.hpp).
  void save_state(std::vector<std::uint8_t>& out) const;
  void load_state(codec::wire::Reader& reader);

 private:
  RecoveryPolicy policy_;
  comm::Communicator& comm_;
  std::vector<nn::Model*> replicas_;
  std::vector<std::size_t> layer_indices_;
  std::vector<std::vector<float>> velocity_;  ///< [slot], flattened [W|b].
  std::vector<DegradeState> degrade_;          ///< [slot].
  std::uint64_t orig_bytes_ = 0;
  std::uint64_t comp_bytes_ = 0;

  common::ThreadPool* pool_ = nullptr;
  /// The step's task graph + the schedule-shape counters of its last run.
  StepGraph graph_;
  StepGraph::Stats sched_stats_;
  // Per-step workspaces (persistent so steady-state steps reuse capacity):
  // gradient snapshots and payloads indexed [slot][rank].
  std::vector<std::vector<std::vector<float>>> step_grads_;
  std::vector<std::vector<compress::Bytes>> send_payloads_;
  /// Reused slot after slot — the per-slot exchanges run serially on the
  /// optimizer thread.
  ChunkedExchange exchange_;
};

}  // namespace compso::optim
