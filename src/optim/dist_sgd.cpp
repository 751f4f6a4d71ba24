#include "src/optim/dist_sgd.hpp"

#include "src/codec/ckpt.hpp"

#include <algorithm>
#include <stdexcept>

namespace compso::optim {
namespace {

namespace ckpt = codec::ckpt;
namespace wire = codec::wire;

/// Momentum coefficient of the update.
constexpr double kMomentum = 0.9;

/// Flattens a layer's [W | b] gradient into a reusable vector.
void flat_gradient_into(nn::Layer& layer, std::vector<float>& out) {
  auto* wg = layer.weight_grad();
  auto* bg = layer.bias_grad();
  out.resize(wg->size() + bg->size());
  std::copy(wg->span().begin(), wg->span().end(), out.begin());
  std::copy(bg->span().begin(), bg->span().end(),
            out.begin() + static_cast<std::ptrdiff_t>(wg->size()));
}

void apply_flat_update(nn::Layer& layer, std::span<const float> update,
                       double lr) {
  auto* w = layer.weight();
  auto* b = layer.bias();
  for (std::size_t i = 0; i < w->size(); ++i) {
    (*w)[i] -= static_cast<float>(lr) * update[i];
  }
  for (std::size_t i = 0; i < b->size(); ++i) {
    (*b)[i] -= static_cast<float>(lr) * update[w->size() + i];
  }
}

}  // namespace

DistSgd::DistSgd(comm::Communicator& comm, std::vector<nn::Model*> replicas,
                 common::ThreadPool* pool)
    : comm_(comm), replicas_(std::move(replicas)), pool_(pool) {
  if (replicas_.size() != comm_.world_size()) {
    throw std::invalid_argument("DistSgd: one replica per rank required");
  }
  layer_indices_ = replicas_[0]->trainable_layers();
  velocity_.resize(layer_indices_.size());
  degrade_.assign(layer_indices_.size(), {});
}

void DistSgd::step(double lr, const compress::GradientCompressor* compressor,
                   tensor::Rng& rng) {
  const std::size_t world = comm_.world_size();
  const std::size_t active = comm_.participant_count();
  const std::size_t slots = layer_indices_.size();
  orig_bytes_ = 0;
  comp_bytes_ = 0;
  const obs::ObsHooks& hooks = comm_.obs();
  hooks.count("sgd.steps");
  auto step_span = hooks.span(obs::kMainTrack, "sgd.step", "sgd");

  // One draw from the step generator seeds every compression task's
  // private stream (task_rng). The draw count per step is therefore
  // fixed (1 with a compressor, 0 without) no matter which layers end up
  // degraded, non-finite or evicted — which is what keeps
  // checkpoint/resume and fault/clean runs bit-exact, and what makes the
  // pooled schedule's output identical to the inline one.
  const std::uint64_t step_seed = compressor != nullptr ? rng() : 0;

  step_grads_.resize(slots);
  send_payloads_.resize(slots);

  // Phase 1: snapshot every layer's [W|b] gradient and decide its path.
  std::vector<std::size_t> layer_n(slots, 0);
  std::vector<std::uint8_t> use_comp(slots, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t li = layer_indices_[s];
    step_grads_[s].resize(world);
    send_payloads_[s].resize(world);
    bool grads_finite = true;
    for (std::size_t r = 0; r < world; ++r) {
      if (!comm_.is_participating(r)) continue;
      flat_gradient_into(replicas_[r]->layer(li), step_grads_[s][r]);
      layer_n[s] = step_grads_[s][r].size();
      // A non-finite local gradient must not enter the compressor (NaN
      // through quantization is undefined); route it through the raw
      // allreduce so the post-average guard below sees it as NaN and
      // handles it as policy says.
      grads_finite = grads_finite && all_finite(step_grads_[s][r]);
    }
    orig_bytes_ += active * layer_n[s] * sizeof(float);
    use_comp[s] =
        compressor != nullptr && degrade_[s].degraded == 0 && grads_finite;
  }

  // Graph build (DESIGN.md §13): one compute task per active (slot, rank)
  // compression and one main-thread exchange+update task per slot, with
  // the exchange depending on the slot's compressions. Task ids are
  // slot * world + rank: fixed by (slot, rank) alone, so eviction or
  // degradation of one layer never shifts another task's Rng stream.
  // Backward-order priorities (higher slot first) mirror the order the
  // gradients become ready in a real backward pass: while the main thread
  // drives slot s's collective + decode, the pool's workers compress
  // slots s-1..0 — the host-side analogue of the paper's
  // compression/communication overlap.
  graph_.clear();
  // Rejoin re-sync (DESIGN.md §14): one resync_layer compute task per
  // layer, which also drops the rejoiner's stateful-compressor streams — a
  // rejoiner starts with an empty compressor memory, exactly like a fresh
  // rank. Each slot's exchange waits on its resync (the exchange both
  // reads the lead's and writes the rejoiner's parameters), so re-sync of
  // later layers overlaps earlier layers' collectives.
  const std::vector<std::size_t> rejoining = comm_.rejoining_ranks();
  const std::size_t lead_rank = comm_.first_participant();
  std::vector<StepGraph::TaskId> resync_ids(slots, 0);
  if (!rejoining.empty()) {
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t li = layer_indices_[s];
      resync_ids[s] = graph_.add_compute(
          "resync" + std::to_string(s), static_cast<int>(s),
          [this, li, s, lead_rank, rejoining, compressor, world] {
            resync_layer(replicas_, li, lead_rank, rejoining);
            if (compressor == nullptr) return;
            for (std::size_t j : rejoining) {
              compressor->reset_stream(static_cast<std::uint64_t>(s) * world +
                                       j);
            }
          });
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t li = layer_indices_[s];
    const std::size_t n = layer_n[s];
    std::vector<StepGraph::TaskId> comp_ids;
    if (use_comp[s]) {
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        comp_ids.push_back(graph_.add_compute(
            "grad_compress" + std::to_string(s), static_cast<int>(s),
            [this, compressor, step_seed, s, r, world] {
              // Stream id == task id: stateful compressors (EF wrapper,
              // sketch seed counters) key cross-step state by it, so it
              // must be fixed by (slot, rank) alone (DESIGN.md §17).
              const std::uint64_t stream =
                  static_cast<std::uint64_t>(s) * world + r;
              tensor::Rng rng = task_rng(step_seed, stream);
              // Compress once; retries re-send these exact payloads, so
              // the training trajectory is identical to a fault-free run.
              compressor->compress_stream_into(stream, step_grads_[s][r], rng,
                                               send_payloads_[s][r]);
            }));
      }
    }
    // Exchange + decode + momentum + update for one slot: collectives and
    // weight writes stay on the optimizer thread. Weight updates never
    // touch gradient buffers, so in-flight compression of other layers
    // (each reading its own snapshots) is unaffected.
    const auto exch = graph_.add_main(
        "exchange" + std::to_string(s), static_cast<int>(s),
        [this, compressor, lr, s, li, n, world, active,
         use = use_comp[s]] {
          const obs::ObsHooks& hooks = comm_.obs();
          std::vector<float> averaged(n, 0.0F);
          bool averaged_ok = false;
          if (use) {
            for (std::size_t r = 0; r < world; ++r) {
              if (!comm_.is_participating(r)) continue;
              comp_bytes_ += send_payloads_[s][r].size();
            }
            averaged_ok = exchange_.average(comm_, policy_, send_payloads_[s],
                                            /*chunk_bytes=*/0, *compressor,
                                            pool_, averaged);
            if (averaged_ok) {
              degrade_[s].failures = 0;
            } else {
              record_fallback(comm_, "sgd.layer_fallback", &degrade_[s]);
              // The raw-gradient fallback below delivers the *full*
              // gradient; a stateful compressor rolls its per-stream
              // state back so the dropped payload's error is not
              // double-counted next step (DESIGN.md §17).
              for (std::size_t r = 0; r < world; ++r) {
                if (!comm_.is_participating(r)) continue;
                compressor->notify_fallback(
                    static_cast<std::uint64_t>(s) * world + r);
              }
            }
          }
          if (!averaged_ok) {
            // Plain ring allreduce of the raw gradients — the primary
            // path when no compressor is attached, and the recovery
            // fallback when decode retries were exhausted (the snapshots
            // are untouched by the compressed attempt, so the fallback
            // reduces the exact local gradients).
            std::vector<std::span<float>> views;
            views.reserve(world);
            for (auto& g : step_grads_[s]) views.push_back(g);
            comm_.allreduce_sum(views);
            comm_.mean_of_sum(step_grads_[s][comm_.first_participant()],
                              averaged);
            comp_bytes_ += active * n * sizeof(float);
          }

          // Non-finite guard: a CRC-clean payload can still carry NaN/Inf
          // (an upstream arithmetic fault); never let it reach the
          // weights silently.
          if (!all_finite(averaged)) {
            if (policy_.enabled) {
              ++comm_.recovery().nonfinite_skips;
              hooks.count("recovery.nonfinite_skips");
              return;  // skip this layer's update; momentum untouched
            }
            // StepGraph::run joins every in-flight task before rethrowing.
            throw NonFiniteError("DistSgd: non-finite averaged gradient");
          }

          auto& vel = velocity_[s];
          if (vel.size() != n) vel.assign(n, 0.0F);
          for (std::size_t i = 0; i < n; ++i) {
            vel[i] = static_cast<float>(kMomentum) * vel[i] + averaged[i];
          }
          for (std::size_t r = 0; r < world; ++r) {
            if (!comm_.is_participating(r) && !comm_.is_rejoining(r)) {
              continue;
            }
            apply_flat_update(replicas_[r]->layer(li), vel, lr);
          }
        },
        /*is_comm=*/true);
    for (const auto c : comp_ids) graph_.depends(exch, c);
    if (!rejoining.empty()) graph_.depends(exch, resync_ids[s]);
  }
  sched_stats_ = graph_.run(pool_, hooks);
  hooks.count("sgd.orig_bytes", orig_bytes_);
  hooks.count("sgd.comp_bytes", comp_bytes_);
}

void DistSgd::save_state(std::vector<std::uint8_t>& out) const {
  wire::put_u64(out, velocity_.size());
  for (const auto& v : velocity_) ckpt::put_floats(out, v);
  for (const auto& d : degrade_) wire::put_u8(out, d.degraded);
  for (const auto& d : degrade_) wire::put_u64(out, d.failures);
}

void DistSgd::load_state(codec::wire::Reader& reader) {
  const auto slots = reader.bounded_u64(1 << 20, "sgd velocity slots");
  if (slots != velocity_.size()) {
    throw PayloadError("DistSgd: checkpoint layer count mismatch");
  }
  for (auto& v : velocity_) v = ckpt::get_floats(reader, "sgd velocity");
  for (auto& d : degrade_) d.degraded = reader.u8();
  for (auto& d : degrade_) {
    d.failures = static_cast<std::uint32_t>(
        reader.bounded_u64(~std::uint32_t{0}, "sgd failure counter"));
  }
}

}  // namespace compso::optim
