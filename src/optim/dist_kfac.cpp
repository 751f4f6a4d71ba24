#include "src/optim/dist_kfac.hpp"

#include "src/codec/ckpt.hpp"
#include "src/common/thread_pool.hpp"
#include "src/tensor/matrix_ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <stdexcept>

namespace compso::optim {
namespace {

namespace ckpt = codec::ckpt;
namespace wire = codec::wire;

/// Momentum coefficient of the preconditioned update.
constexpr double kMomentum = 0.9;

/// Subnormal floats in `values`, told apart by their bits: the census
/// runs inside the step's DAZ scope, where a subnormal compares equal to
/// 0. A magnitude's bits minus 1 fall below the mantissa mask only for a
/// subnormal.
std::uint64_t subnormal_count(std::span<const float> values) {
  return static_cast<std::uint64_t>(
      std::count_if(values.begin(), values.end(), [](float v) {
        return (std::bit_cast<std::uint32_t>(v) & 0x7FFFFFFFU) - 1U <
               0x007FFFFFU;
      }));
}

/// Σ a[i]·b[i] in double over four interleaved sums, in a fixed order.
double dot(std::span<const float> a, const float* b) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      acc[k] += static_cast<double>(a[i + k]) * static_cast<double>(b[i + k]);
    }
  }
  for (; i < a.size(); ++i) {
    acc[0] += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/// A raw (uncompressed) gather payload: the values' bytes.
void copy_raw(std::span<const float> values, compress::Bytes& out) {
  out.resize(values.size_bytes());
  if (!values.empty()) std::memcpy(out.data(), values.data(), out.size());
}

}  // namespace

std::vector<std::size_t> lpt_assign(std::span<const double> cost,
                                    std::size_t bins) {
  std::vector<std::size_t> order(cost.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&cost](std::size_t a, std::size_t b) {
    if (cost[a] != cost[b]) return cost[a] > cost[b];
    return a < b;
  });
  std::vector<double> load(bins, 0.0);
  std::vector<std::size_t> bin_of(cost.size(), 0);
  for (std::size_t s : order) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < bins; ++k) {
      if (load[k] < load[best]) best = k;
    }
    bin_of[s] = best;
    load[best] += cost[s];
  }
  return bin_of;
}

FactorCost factor_cost(std::size_t da, std::size_t dg) noexcept {
  const auto a = static_cast<double>(da);
  const auto g = static_cast<double>(dg);
  FactorCost c;
  c.eigh_cost = a * a * a + g * g * g;
  c.eigh_flops = 25.0 * c.eigh_cost;
  c.resident_bytes = (2 * (da * da + dg * dg) + da + dg) * sizeof(float);
  return c;
}

DistKfac::DistKfac(DistKfacConfig config, comm::Communicator& comm,
                   std::vector<nn::Model*> replicas, common::ThreadPool* pool)
    : cfg_(config), comm_(comm), replicas_(std::move(replicas)), pool_(pool) {
  if (replicas_.size() != comm_.world_size()) {
    throw std::invalid_argument("DistKfac: one replica per rank required");
  }
  if (cfg_.eigen_refresh_every == 0) {
    throw std::invalid_argument("DistKfac: eigen_refresh_every must be >= 1");
  }
  layer_indices_ = replicas_[0]->trainable_layers();
  for (std::size_t li : layer_indices_) {
    auto& l = replicas_[0]->layer(li);
    const std::size_t out = l.weight()->rows();
    const std::size_t in_aug = l.weight()->cols() + 1;
    states_.push_back(std::make_unique<KfacLayerState>(in_aug, out));
    momentum_.emplace_back(
        Tensor({out, in_aug}));
  }
}

std::vector<std::size_t> DistKfac::compute_owners(
    const std::vector<std::size_t>& ranks) const {
  const std::size_t slots = layer_indices_.size();
  std::vector<std::size_t> owners(slots, ranks.empty() ? 0 : ranks[0]);
  if (ranks.empty() || slots == 0) return owners;
  if (cfg_.assignment == ShardAssignment::kRoundRobin) {
    for (std::size_t s = 0; s < slots; ++s) {
      owners[s] = ranks[s % ranks.size()];
    }
    return owners;
  }
  // Greedy LPT on the slot's eigh cost (both factors are
  // eigendecomposed). A pure function of the rank list and the model
  // shape, so eviction-triggered reassignment is deterministic.
  std::vector<double> cost(slots, 0.0);
  for (std::size_t s = 0; s < slots; ++s) {
    cost[s] = factor_cost(states_[s]->factor_a().rows(),
                          states_[s]->factor_g().rows())
                  .eigh_cost;
  }
  const auto bin_of = lpt_assign(cost, ranks.size());
  for (std::size_t s = 0; s < slots; ++s) owners[s] = ranks[bin_of[s]];
  return owners;
}

void DistKfac::refresh_assignment() const {
  const std::size_t world = comm_.world_size();
  std::vector<std::uint8_t> mask(world, 0);
  for (std::size_t r = 0; r < world; ++r) {
    mask[r] = comm_.is_participating(r) ? 1 : 0;
  }
  if (mask == shard_mask_ && shard_owner_.size() == layer_indices_.size()) {
    return;
  }
  shard_owner_ = compute_owners(comm_.participant_ranks());
  shard_mask_ = std::move(mask);
}

std::size_t DistKfac::owner_of(std::size_t i) const {
  return shard_owners().at(i);
}

const std::vector<std::size_t>& DistKfac::shard_owners() const {
  refresh_assignment();
  return shard_owner_;
}

DistKfac::ShardStats DistKfac::shard_stats() const {
  refresh_assignment();
  ShardStats st;
  st.owners = shard_owner_;
  const std::size_t world = comm_.world_size();
  st.factor_bytes.assign(world, 0);
  st.eigh_flops.assign(world, 0.0);
  for (std::size_t s = 0; s < layer_indices_.size(); ++s) {
    const FactorCost c = factor_cost(states_[s]->factor_a().rows(),
                                     states_[s]->factor_g().rows());
    if (cfg_.layout == PrecondLayout::kSharded) {
      st.factor_bytes[st.owners[s]] += c.resident_bytes;
      st.eigh_flops[st.owners[s]] += c.eigh_flops;
    } else {
      for (std::size_t r = 0; r < world; ++r) {
        if (!comm_.is_participating(r)) continue;
        st.factor_bytes[r] += c.resident_bytes;
        st.eigh_flops[r] += c.eigh_flops;
      }
    }
  }
  for (std::size_t r = 0; r < world; ++r) {
    if (!comm_.is_participating(r)) continue;
    st.peak_factor_bytes = std::max(st.peak_factor_bytes, st.factor_bytes[r]);
    st.peak_eigh_flops = std::max(st.peak_eigh_flops, st.eigh_flops[r]);
  }
  return st;
}

void DistKfac::average_factors(std::size_t begin, std::size_t end,
                               std::size_t root) {
  std::vector<std::span<float>> views(comm_.world_size());
  for (std::size_t r = 0; r < views.size(); ++r) {
    if (comm_.is_participating(r)) {
      views[r] = std::span<float>(factor_buf_[r]).subspan(begin, end - begin);
    }
  }
  if (cfg_.layout == PrecondLayout::kSharded) {
    comm_.reduce_sum(views, root);
  } else {
    comm_.allreduce_sum(views);
  }
  comm_.mean_of_sum(views[root], views[root]);
}

void DistKfac::exchange_compressed_factor(std::size_t s, bool a,
                                          std::size_t root) {
  const auto [na, ng] = packed_sizes(s);
  const std::size_t begin = factor_off_[s] + (a ? 0 : na);
  const std::size_t size = a ? na : ng;
  // The per-rank payloads arrive pre-compressed (the cov tasks compressed
  // them while earlier slots were exchanging); a retry re-sends the same
  // bytes.
  const auto& send = a ? factor_send_a_[s] : factor_send_g_[s];
  if (exchange_.average(
          comm_, policy_, send, cfg_.chunk_bytes, *factor_compressor_, pool_,
          std::span<float>(factor_buf_[root]).subspan(begin, size))) {
    return;
  }
  record_fallback(comm_, "kfac.factor_fallback");
  // A failed average wrote nothing: the raw triangles take the
  // uncompressed path.
  average_factors(begin, begin + size, root);
}

void DistKfac::blend_slot(std::size_t s, std::size_t root) {
  const auto [na, ng] = packed_sizes(s);
  const std::span<const float> avg(factor_buf_[root].data() + factor_off_[s],
                                   na + ng);
  states_[s]->blend_packed_factors(avg.first(na), avg.subspan(na),
                                   cfg_.stat_decay);
}

std::uint64_t DistKfac::group_stream(const GatherGroup& grp) const {
  return (static_cast<std::uint64_t>(grp.rank) << 32) |
         owned_[grp.rank][grp.first];
}

bool DistKfac::gather_exchange(const compress::GradientCompressor* compressor) {
  // Frame the group payloads into the per-rank send buffers
  // ([u64 n][u64 sid x n][u64 psize][payload] groups).
  gather_send_.resize(comm_.world_size());
  for (auto& buf : gather_send_) buf.clear();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const GatherGroup& grp = groups_[g];
    const auto& payload = group_payloads_[g];
    auto& buf = gather_send_[grp.rank];
    wire::put_u64(buf, grp.count);
    for (std::size_t j = 0; j < grp.count; ++j) {
      wire::put_u64(buf, owned_[grp.rank][grp.first + j]);
    }
    wire::put_u64(buf, payload.size());
    buf.insert(buf.end(), payload.begin(), payload.end());
    comp_bytes_ += payload.size();
  }
  if (!exchange_.run(comm_, policy_, gather_send_, cfg_.chunk_bytes)) {
    return false;
  }
  try {
    decode_gathered(compressor);
    return true;
  } catch (const PayloadError&) {
    if (!policy_.enabled) throw;
    return false;
  }
}

void DistKfac::decode_gathered(const compress::GradientCompressor* compressor) {
  const std::size_t slots = preconditioned_.size();
  // Pass 1 (serial): parse and validate every rank's group framing before
  // any payload is touched — hostile framing never reaches the decoder
  // pool.
  struct Group {
    std::vector<std::size_t> sids;
    compress::ByteView payload;
    std::size_t elems = 0;
  };
  std::vector<Group> groups;
  std::vector<std::uint8_t> seen(slots, 0);
  for (std::size_t r = 0; r < comm_.world_size(); ++r) {
    if (!comm_.is_participating(r)) continue;
    codec::wire::Reader in(exchange_.payload(r));
    while (in.remaining() != 0) {
      Group grp;
      grp.sids.resize(in.bounded_u64(slots, "kfac gather group size"));
      for (auto& sid : grp.sids) {
        sid = in.u64();
        if (sid >= slots || seen[sid] != 0) {
          throw PayloadError("DistKfac: bad layer id in payload");
        }
        seen[sid] = 1;
        grp.elems += preconditioned_[sid].size();
      }
      grp.payload = in.blob(in.u64());
      groups.push_back(std::move(grp));
    }
  }
  // Every layer's group must arrive exactly once: a sender that left
  // one out fails here, before anything is decoded.
  if (std::find(seen.begin(), seen.end(), 0) != seen.end()) {
    throw PayloadError("DistKfac: missing layer group in gathered stream");
  }
  // Pass 2: decompress the groups, fanned out over the pool. Any payload
  // damage throws PayloadError once every range finished.
  if (group_values_.size() < groups.size()) {
    group_values_.resize(groups.size());
  }
  if (compressor != nullptr) {
    const auto decode = [&](std::size_t begin, std::size_t end) {
      for (std::size_t g = begin; g < end; ++g) {
        compressor->decompress_into(groups[g].payload, group_values_[g]);
      }
    };
    if (pool_ != nullptr) {
      pool_->parallel_for_static(groups.size(), decode);
    } else {
      decode(0, groups.size());
    }
  } else {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto payload = groups[g].payload;
      if (payload.size() % sizeof(float) != 0) {
        throw PayloadError("DistKfac: raw payload not float-aligned");
      }
      auto& values = group_values_[g];
      values.resize(payload.size() / sizeof(float));
      if (!payload.empty()) {
        std::memcpy(values.data(), payload.data(), payload.size());
      }
    }
  }
  // Pass 3 (serial): size checks + scatter into the layer tensors.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& values = group_values_[g];
    if (values.size() != groups[g].elems) {
      throw PayloadError("DistKfac: decompressed size mismatch");
    }
    std::size_t off = 0;
    for (std::size_t sid : groups[g].sids) {
      Tensor& k = preconditioned_[sid];
      std::copy(values.begin() + static_cast<std::ptrdiff_t>(off),
                values.begin() + static_cast<std::ptrdiff_t>(off + k.size()),
                k.data());
      off += k.size();
    }
  }
}

void DistKfac::step(std::size_t iteration, double lr,
                    const compress::GradientCompressor* compressor,
                    tensor::Rng& rng) {
  const std::size_t world = comm_.world_size();
  const std::size_t lead = comm_.first_participant();
  const std::size_t slots = layer_indices_.size();
  factor_orig_bytes_ = 0;
  factor_comp_bytes_ = 0;
  orig_bytes_ = 0;
  comp_bytes_ = 0;
  const obs::ObsHooks& hooks = comm_.obs();
  hooks.count("kfac.steps");
  task_counter_ = 0;
  // Exactly one main-stream draw per step when any compressor is
  // attached; every compression job derives its own Rng from this seed
  // and a build-ordered task id, so the main stream's draw count is
  // independent of faults, retries, degradation, and pool size.
  const std::uint64_t step_seed =
      (compressor != nullptr || factor_compressor_ != nullptr) ? rng() : 0;
  const bool fcomp = factor_compressor_ != nullptr;
  const bool refresh =
      iteration % cfg_.eigen_refresh_every == 0 || !states_[0]->has_eigen();
  const compress::GradientCompressor* gather_comp =
      gather_state_.degraded != 0 ? nullptr : compressor;

  // ------------------------------------------------------------------
  // Graph build (serial, optimizer thread): size the workspaces,
  // validate inputs, claim every compression task's Rng stream id —
  // factor streams in slot order (a then g, active ranks ascending),
  // then gather-group streams in group order, exactly the serial-phase
  // schedule — and wire the per-layer task graph (DESIGN.md §13).
  // Nothing below depends on execution timing, so the graph and every
  // stream id are pure functions of the step's inputs.
  // ------------------------------------------------------------------
  graph_.clear();
  if (fcomp && factor_send_a_.size() < slots) {
    factor_send_a_.assign(slots, std::vector<compress::Bytes>(world));
    factor_send_g_.assign(slots, std::vector<compress::Bytes>(world));
  }
  preconditioned_.resize(slots);
  skip_.assign(slots, 0);
  owned_.resize(world);
  for (auto& v : owned_) v.clear();
  for (std::size_t s = 0; s < slots; ++s) owned_[owner_of(s)].push_back(s);
  if (refresh) hooks.count("kfac.eigh_refreshes");

  // Fused exchange layouts: factors grouped by owner, so each owner's
  // slots are one contiguous reduce; gradients in slot order.
  factor_off_.resize(slots);
  grad_off_.resize(slots);
  factor_floats_ = 0;
  for (const auto& mine : owned_) {
    for (std::size_t s : mine) {
      const auto [na, ng] = packed_sizes(s);
      factor_off_[s] = factor_floats_;
      factor_floats_ += na + ng;
    }
  }
  std::size_t grad_floats = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    grad_off_[s] = grad_floats;
    grad_floats += momentum_[s].size();
  }
  factor_buf_.resize(world);
  grad_buf_.resize(world);
  for (std::size_t r = 0; r < world; ++r) {
    factor_buf_[r].resize(factor_floats_);
    grad_buf_[r].resize(grad_floats);
  }

  // Stream ids, claimed in the legacy order before any task is built.
  std::vector<std::uint64_t> tid_a(slots * world, 0);
  std::vector<std::uint64_t> tid_g(slots * world, 0);
  if (fcomp) {
    for (std::size_t s = 0; s < slots; ++s) {
      for (std::size_t r = 0; r < world; ++r) {
        if (comm_.is_participating(r)) tid_a[s * world + r] = task_counter_++;
      }
      for (std::size_t r = 0; r < world; ++r) {
        if (comm_.is_participating(r)) tid_g[s * world + r] = task_counter_++;
      }
    }
  }
  groups_.clear();
  const std::size_t m = std::max<std::size_t>(cfg_.aggregation, 1);
  for (std::size_t r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < owned_[r].size(); i += m) {
      groups_.push_back({r, i, std::min(i + m, owned_[r].size()) - i, 0});
    }
  }
  if (gather_comp != nullptr) {
    for (auto& grp : groups_) grp.tid = task_counter_++;
  }
  if (group_concat_.size() < groups_.size()) {
    group_concat_.resize(groups_.size());
  }
  if (group_payloads_.size() < groups_.size()) {
    group_payloads_.resize(groups_.size());
  }

  // Priorities implement the backward-order wavefront: within the ready
  // set, the gradient allreduce (no deps) runs first, under the
  // covariance syrks; then the factor exchange — per slot with a factor
  // compressor, later slots first, since their factors are ready first in
  // a real backward pass; every collective runs before any guard (so
  // preconditioning stays in flight under the remaining collectives), and
  // the gather/update tail runs last.
  const int prio_gar = static_cast<int>(slots) + 1;
  const auto prio_guard = [slots](std::size_t s) {
    return static_cast<int>(s) - static_cast<int>(slots);
  };
  constexpr int kPrioGather = -1000000;

  // Every slot's combined gradient, straight into its slice of the rank's
  // buffer, and one allreduce for all of them. It reads only the layers'
  // gradients, so it has no deps and overlaps the covariance tasks.
  const auto gar = graph_.add_main(
      "grad_allreduce", prio_gar,
      [this, world, slots] {
        std::vector<std::span<float>> views(world);
        for (std::size_t r = 0; r < world; ++r) {
          if (!comm_.is_participating(r)) continue;
          for (std::size_t s = 0; s < slots; ++s) {
            combined_gradient_into(
                replicas_[r]->layer(layer_indices_[s]),
                std::span<float>(grad_buf_[r])
                    .subspan(grad_off_[s], momentum_[s].size()));
          }
          views[r] = grad_buf_[r];
        }
        comm_.allreduce_sum(views);
      },
      /*is_comm=*/true);

  // Per-(slot, rank) covariance tasks: each packs its two syrks into its
  // slice of the rank's factor buffer and, with a factor compressor, also
  // compresses the two triangles — fused, so the graph stays free of
  // compute->compute edges and the main thread never blocks just to
  // submit a dependent. Distinct (s, r) write disjoint memory.
  std::vector<std::vector<StepGraph::TaskId>> cov_ids(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t li = layer_indices_[s];
    for (std::size_t r = 0; r < world; ++r) {
      if (!comm_.is_participating(r)) continue;
      auto& layer = replicas_[r]->layer(li);
      const Tensor* a = layer.kfac_input();
      const Tensor* g = layer.kfac_grad_output();
      if (a == nullptr || g == nullptr || a->empty() || g->empty()) {
        throw std::logic_error("DistKfac: run forward/backward first");
      }
      const std::uint64_t ta = tid_a[s * world + r];
      const std::uint64_t tg = tid_g[s * world + r];
      cov_ids[s].push_back(graph_.add_compute(
          (fcomp ? "cov_compress" : "cov") + std::to_string(s),
          static_cast<int>(s), [this, a, g, s, r, fcomp, step_seed, ta, tg] {
            const auto batch = static_cast<float>(a->rows());
            const auto [na, ng] = packed_sizes(s);
            const auto out = std::span<float>(factor_buf_[r]).subspan(
                factor_off_[s], na + ng);
            tensor::syrk_tn_packed(*a, 1.0F / batch, out.first(na));
            tensor::syrk_tn_packed(*g, batch, out.subspan(na));
            if (!fcomp) return;
            tensor::Rng rng_a = task_rng(step_seed, ta);
            factor_compressor_->compress_into(out.first(na), rng_a,
                                              factor_send_a_[s][r]);
            tensor::Rng rng_g = task_rng(step_seed, tg);
            factor_compressor_->compress_into(out.subspan(na), rng_g,
                                              factor_send_g_[s][r]);
          }));
    }
  }

  // Factor exchange + blend into the shared running-average state (all
  // ranks hold the same state after the exchange; the simulator stores it
  // once). Either way the averaged triangles land in the root's factor
  // buffer. Uncompressed: one task for every slot, the packed buffers'
  // collective(s) — under the sharded layout one reduce per owner, whose
  // buffer feeds its slots' blend: identical bits, but the comm is a
  // reduce and the memory/compute attribution is O(L/P). Compressed: one
  // task per slot, driven on the main thread while other slots'
  // covariances compress on the pool.
  std::vector<StepGraph::TaskId> fx_id(slots, 0);
  if (!fcomp) {
    const auto fx = graph_.add_main(
        "factor_exchange", /*priority=*/0,
        [this, world, slots, lead] {
          if (cfg_.layout == PrecondLayout::kSharded) {
            for (std::size_t o = 0; o < world; ++o) {
              if (owned_[o].empty()) continue;
              const std::size_t last = owned_[o].back();
              const auto [na, ng] = packed_sizes(last);
              average_factors(factor_off_[owned_[o].front()],
                              factor_off_[last] + na + ng, o);
            }
          } else {
            average_factors(0, factor_floats_, lead);
          }
          for (std::size_t s = 0; s < slots; ++s) {
            blend_slot(s, root_of(s, lead));
          }
        },
        /*is_comm=*/true);
    fx_id.assign(slots, fx);
  } else {
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t root = root_of(s, lead);
      fx_id[s] = graph_.add_main(
          "factor_exchange" + std::to_string(s), static_cast<int>(s),
          [this, s, world, root] {
            const auto [na, ng] = packed_sizes(s);
            for (std::size_t r = 0; r < world; ++r) {
              if (!comm_.is_participating(r)) continue;
              factor_orig_bytes_ += (na + ng) * sizeof(float);
              factor_comp_bytes_ +=
                  factor_send_a_[s][r].size() + factor_send_g_[s][r].size();
            }
            exchange_compressed_factor(s, /*a=*/true, root);
            exchange_compressed_factor(s, /*a=*/false, root);
            blend_slot(s, root);
          },
          /*is_comm=*/true);
    }
  }
  for (std::size_t s = 0; s < slots; ++s) {
    for (const auto c : cov_ids[s]) graph_.depends(fx_id[s], c);
  }

  std::vector<StepGraph::TaskId> guard_id(slots, 0);
  for (std::size_t s = 0; s < slots; ++s) {
    // Preconditioning reads only this slot's state, so it overlaps other
    // slots' collectives — the §4.4 "eigh under comm" overlap. On a
    // refresh step (owner-partitioned, every eigen_refresh_every steps)
    // each factor's eigendecomposition is its own task after the factor
    // exchange, so a refresh keeps every slot's eigh calls in flight at
    // once (the order rule in StepGraph::order() submits all of them
    // before the first precondition reaps any).
    const std::size_t root = root_of(s, lead);
    const auto ep = graph_.add_compute(
        "precond" + std::to_string(s), static_cast<int>(s),
        [this, s, root] {
          // The slot's averaged gradient (the allreduce left the sum on
          // every participant), staged in its output tensor.
          Tensor& k = preconditioned_[s];
          tensor::ensure_shape2(k, momentum_[s].rows(), momentum_[s].cols());
          comm_.mean_of_sum(
              std::span<const float>(grad_buf_[root]).subspan(grad_off_[s],
                                                              k.size()),
              k.span());
          k = states_[s]->precondition(k, cfg_.damping);
        });
    if (refresh) {
      const auto ea = graph_.add_compute(
          "eigh_a" + std::to_string(s), static_cast<int>(s),
          [this, s] { states_[s]->refresh_eigen_a(); });
      const auto eg = graph_.add_compute(
          "eigh_g" + std::to_string(s), static_cast<int>(s),
          [this, s] { states_[s]->refresh_eigen_g(); });
      graph_.depends(ea, fx_id[s]);
      graph_.depends(eg, fx_id[s]);
      graph_.depends(ep, ea);
      graph_.depends(ep, eg);
    }
    graph_.depends(ep, fx_id[s]);
    graph_.depends(ep, gar);

    // Non-finite guard + byte accounting: mutates shared recovery state,
    // so it stays on the main thread; low priority keeps it behind every
    // slot's collectives (preconditioning stays in flight under comm).
    guard_id[s] = graph_.add_main(
        "guard" + std::to_string(s), prio_guard(s), [this, s, refresh,
                                                     world] {
          const obs::ObsHooks& hooks = comm_.obs();
          // Numerical health of a refresh: each factor's QL iterations,
          // and whether it hit the cap (its basis is used as it stands).
          if (refresh) {
            for (const auto* eig :
                 {&states_[s]->eigen_a(), &states_[s]->eigen_g()}) {
              hooks.observe("kfac.eigh_iterations",
                            static_cast<std::uint64_t>(eig->sweeps_used));
              hooks.count("kfac.eigh_nonconverged", eig->converged ? 0 : 1);
            }
          }
          // Subnormal census (DESIGN.md §11.7): the trainer runs the step
          // flushed on every thread, so no value the slot stores or reads
          // may be subnormal. Nonzero means some thread ran unflushed.
          if (refresh && hooks.metrics != nullptr) {
            const KfacLayerState& st = *states_[s];
            std::uint64_t n = 0;
            for (const Tensor* t : std::initializer_list<const Tensor*>{
                     &st.factor_a(), &st.factor_g(),
                     &st.eigen_a().eigenvectors, &st.eigen_g().eigenvectors,
                     &momentum_[s], &preconditioned_[s]}) {
              n += subnormal_count(t->span());
            }
            n += subnormal_count(st.eigen_a().eigenvalues);
            n += subnormal_count(st.eigen_g().eigenvalues);
            for (std::size_t r = 0; r < world; ++r) {
              if (!comm_.is_participating(r)) continue;
              const auto& layer = replicas_[r]->layer(layer_indices_[s]);
              n += subnormal_count(layer.kfac_input()->span());
              n += subnormal_count(layer.kfac_grad_output()->span());
            }
            hooks.count("kfac.subnormal_values", n);
          }
          // A non-finite preconditioned gradient must not enter the
          // compressor (NaN through quantization is undefined). Zero the
          // slot so the gather framing stays intact, and skip its update.
          if (!all_finite(preconditioned_[s].span())) {
            if (policy_.enabled) {
              skip_[s] = kSkipGuarded;
              ++comm_.recovery().nonfinite_skips;
              comm_.obs().count("recovery.nonfinite_skips");
              preconditioned_[s].fill(0.0F);
            } else {
              throw NonFiniteError(
                  "DistKfac: non-finite preconditioned gradient");
            }
          }
          orig_bytes_ += preconditioned_[s].size() * sizeof(float);
        });
    graph_.depends(guard_id[s], ep);
  }

  // Gather-group concatenation + compression (§4.4 layer aggregation):
  // one compute task per group, each on its pre-claimed stream.
  std::vector<StepGraph::TaskId> gcomp_ids;
  gcomp_ids.reserve(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const GatherGroup grp = groups_[g];
    const auto gc = graph_.add_compute(
        gather_comp != nullptr ? "gather_compress" : "gather_pack",
        /*priority=*/0, [this, grp, g, gather_comp, step_seed] {
          auto& concat = group_concat_[g];
          concat.clear();
          for (std::size_t j = 0; j < grp.count; ++j) {
            const auto& k =
                preconditioned_[owned_[grp.rank][grp.first + j]];
            concat.insert(concat.end(), k.span().begin(), k.span().end());
          }
          if (gather_comp != nullptr) {
            tensor::Rng rng = task_rng(step_seed, grp.tid);
            // Stream key (owner rank, first owned slot): stable across
            // steps while the shard layout holds, so stateful compressors
            // (EF residual, sketch counters) survive group reordering; a
            // reassignment changes the group's size and the state resets
            // itself (DESIGN.md §17).
            gather_comp->compress_stream_into(group_stream(grp), concat, rng,
                                              group_payloads_[g]);
          } else {
            copy_raw(concat, group_payloads_[g]);
          }
        });
    for (std::size_t j = 0; j < grp.count; ++j) {
      graph_.depends(gc, guard_id[owned_[grp.rank][grp.first + j]]);
    }
    gcomp_ids.push_back(gc);
  }

  // The preconditioned-gradient exchange — one logical collective for all
  // layers, on the chunked exchange (DESIGN.md §15; chunk_bytes == 0 ships
  // one chunk per rank). Retries run per chunk round inside the exchange;
  // a step whose exchange or decode still fails falls back to the
  // uncompressed gather, and repeated failing steps degrade the gather to
  // the uncompressed path for the rest of the run. Every rank decodes the
  // same bytes, so the simulator decodes once and applies everywhere.
  const auto gather = graph_.add_main(
      "gather", kPrioGather,
      [this, gather_comp] {
        auto gather_span =
            comm_.obs().span(obs::kMainTrack, "kfac.gather", "kfac");
        if (gather_exchange(gather_comp)) {
          gather_state_.failures = 0;
        } else {
          record_fallback(comm_, "kfac.gather_fallback", &gather_state_);
          // The raw re-send delivers the full preconditioned gradients,
          // so stateful compressors roll their per-stream state back
          // (DESIGN.md §17).
          for (std::size_t g = 0; g < groups_.size(); ++g) {
            if (gather_comp != nullptr) {
              gather_comp->notify_fallback(group_stream(groups_[g]));
            }
            copy_raw(group_concat_[g], group_payloads_[g]);
          }
          comp_bytes_ = 0;
          if (!gather_exchange(nullptr)) {
            throw PayloadError("DistKfac: uncompressed gather failed");
          }
        }
        const obs::ObsHooks& hooks = comm_.obs();
        gather_span.add_arg("orig_bytes", orig_bytes_);
        gather_span.add_arg("comp_bytes", comp_bytes_);
        gather_span.end();
        hooks.count("kfac.gather.orig_bytes", orig_bytes_);
        hooks.count("kfac.gather.comp_bytes", comp_bytes_);
        hooks.count("kfac.factor.orig_bytes", factor_orig_bytes_);
        hooks.count("kfac.factor.comp_bytes", factor_comp_bytes_);
      },
      /*is_comm=*/true);
  for (const auto gc : gcomp_ids) graph_.depends(gather, gc);
  for (std::size_t s = 0; s < slots; ++s) graph_.depends(gather, guard_id[s]);

  // Rejoin re-sync (DESIGN.md §14): one resync_layer compute task per
  // layer. The tasks overlap the other layers' collectives on the pool;
  // `update` waits for them and then applies the step to rejoiners
  // too, keeping them in lockstep from this iteration on.
  std::vector<StepGraph::TaskId> resync_ids;
  const std::vector<std::size_t> rejoining = comm_.rejoining_ranks();
  if (!rejoining.empty()) {
    resync_ids.reserve(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t li = layer_indices_[s];
      resync_ids.push_back(graph_.add_compute(
          "resync" + std::to_string(s), static_cast<int>(s),
          [this, li, lead, rejoining] {
            resync_layer(replicas_, li, lead, rejoining);
          }));
    }
    if (cfg_.layout == PrecondLayout::kSharded) {
      // Shard handoff (DESIGN.md §16): slots the *prospective* assignment
      // (participants + rejoiners, the group that forms next step) gives
      // to a rejoiner have their factor state shipped through the same
      // sealed CKPT mini-frame a checkpoint restore uses — CRC-validated,
      // so the new owner's shard is bit-identical to the survivor's copy.
      // The simulator stores factor state once, so restoring the opened
      // frame is the handoff; what matters is that the bytes made the
      // validated round-trip. Ordered after the slot's guard: by then
      // nothing touches states_[s] again this step.
      std::vector<std::size_t> future = comm_.participant_ranks();
      future.insert(future.end(), rejoining.begin(), rejoining.end());
      std::sort(future.begin(), future.end());
      const std::vector<std::size_t> prospective = compute_owners(future);
      for (std::size_t s = 0; s < slots; ++s) {
        const bool handoff =
            std::find(rejoining.begin(), rejoining.end(), prospective[s]) !=
            rejoining.end();
        if (!handoff) continue;
        hooks.count("kfac.shard_resyncs");
        const auto fr = graph_.add_compute(
            "factor_resync" + std::to_string(s), static_cast<int>(s),
            [this, s] {
              const Tensor* factors[] = {&states_[s]->factor_a(),
                                         &states_[s]->factor_g()};
              auto copy = sealed_copy(factors);
              states_[s]->factor_a() = std::move(copy[0]);
              states_[s]->factor_g() = std::move(copy[1]);
            });
        graph_.depends(fr, guard_id[s]);
        resync_ids.push_back(fr);
      }
    }
  }

  // Momentum + weight update, identically on every surviving replica
  // (participants plus freshly re-synced rejoiners), ascending slots (the
  // deterministic float-update order), each v scaled by the step's
  // natural-gradient bound first.
  const auto update = graph_.add_main(
      "update", kPrioGather - 1, [this, lr, world, slots, lead] {
        // One non-finite scan per gathered slot: the bound and the guard
        // below both read its mark.
        for (std::size_t s = 0; s < slots; ++s) {
          if (skip_[s] == 0 && !all_finite(preconditioned_[s].span())) {
            skip_[s] = kSkipGathered;
          }
        }
        const float scale = update_scale(lead);
        for (std::size_t s = 0; s < slots; ++s) {
          if (skip_[s] == kSkipGuarded) continue;  // zeroed pre-gather.
          // Non-finite guard: skip the layer (momentum untouched) rather
          // than poisoning every replica's weights.
          if (skip_[s] == kSkipGathered) {
            if (policy_.enabled) {
              ++comm_.recovery().nonfinite_skips;
              comm_.obs().count("recovery.nonfinite_skips");
              continue;
            }
            throw NonFiniteError(
                "DistKfac: non-finite preconditioned gradient");
          }
          momentum_[s].axpby(static_cast<float>(kMomentum), scale,
                             preconditioned_[s]);
          for (std::size_t r = 0; r < world; ++r) {
            if (!comm_.is_participating(r) && !comm_.is_rejoining(r)) {
              continue;
            }
            apply_combined_update(replicas_[r]->layer(layer_indices_[s]),
                                  momentum_[s], lr);
          }
        }
      });
  graph_.depends(update, gather);
  for (const auto rs : resync_ids) graph_.depends(update, rs);

  sched_stats_ = graph_.run(pool_, hooks);
}

float DistKfac::update_scale(std::size_t lead) const {
  // Σ v·g from the gathered v and the gradient sum the allreduce left on
  // every participant, so each rank computes the same scale and the bound
  // adds no communication. The slots the update skips do not count.
  double vg = 0.0;
  for (std::size_t s = 0; s < layer_indices_.size(); ++s) {
    if (skip_[s] != 0) continue;
    vg += dot(preconditioned_[s].span(),
              grad_buf_[lead].data() + grad_off_[s]);
  }
  vg = std::abs(vg) / static_cast<double>(comm_.participant_count());
  const bool clipped = vg > kMaxNaturalGradSq;
  comm_.obs().count("kfac.clipped_updates", clipped ? 1 : 0);
  return clipped ? static_cast<float>(std::sqrt(kMaxNaturalGradSq / vg))
                 : 1.0F;
}

void DistKfac::save_state(std::vector<std::uint8_t>& out) const {
  wire::put_u64(out, layer_indices_.size());
  for (std::size_t s = 0; s < layer_indices_.size(); ++s) {
    ckpt::put_tensor(out, momentum_[s]);
    const auto& st = *states_[s];
    ckpt::put_tensor(out, st.factor_a());
    ckpt::put_tensor(out, st.factor_g());
    wire::put_u8(out, st.has_eigen() ? 1 : 0);
    if (st.has_eigen()) {
      ckpt::put_tensor(out, st.eigen_a().eigenvectors);
      ckpt::put_floats(out, st.eigen_a().eigenvalues);
      ckpt::put_tensor(out, st.eigen_g().eigenvectors);
      ckpt::put_floats(out, st.eigen_g().eigenvalues);
    }
    wire::put_u64(out, st.updates());
  }
  wire::put_u8(out, gather_state_.degraded);
  wire::put_u64(out, gather_state_.failures);
  // Shard section (DESIGN.md §16): layout + assignment policy and the
  // slot -> owner table the step ran under, so a restore can verify the
  // recomputed assignment (a pure function of membership + model shape)
  // agrees with the checkpointed one.
  wire::put_u8(out, static_cast<std::uint8_t>(cfg_.layout));
  wire::put_u8(out, static_cast<std::uint8_t>(cfg_.assignment));
  const auto& owners = shard_owners();
  wire::put_u64(out, owners.size());
  for (std::size_t o : owners) wire::put_u64(out, o);
}

void DistKfac::load_state(codec::wire::Reader& reader) {
  const auto slots = reader.bounded_u64(1 << 20, "kfac layer slots");
  if (slots != layer_indices_.size()) {
    throw PayloadError("DistKfac: checkpoint layer count mismatch");
  }
  const auto get_eigenvalues = [&reader](std::size_t n) {
    auto values = ckpt::get_floats(reader, "kfac eigenvalues");
    if (values.size() != n) {
      throw PayloadError("DistKfac: checkpoint eigenvalue count mismatch");
    }
    return values;
  };
  for (std::size_t s = 0; s < layer_indices_.size(); ++s) {
    auto& st = *states_[s];
    const std::size_t out = st.factor_g().rows();
    const std::size_t in_aug = st.factor_a().rows();
    momentum_[s] = ckpt::get_tensor(reader, {out, in_aug}, "kfac momentum");
    Tensor a = ckpt::get_tensor(reader, {in_aug, in_aug}, "kfac factor a");
    Tensor g = ckpt::get_tensor(reader, {out, out}, "kfac factor g");
    const bool has_eigen = reader.u8() != 0;
    tensor::EigenDecomposition eig_a, eig_g;
    if (has_eigen) {
      eig_a.eigenvectors =
          ckpt::get_tensor(reader, {in_aug, in_aug}, "kfac eigenvectors a");
      eig_a.eigenvalues = get_eigenvalues(in_aug);
      eig_g.eigenvectors =
          ckpt::get_tensor(reader, {out, out}, "kfac eigenvectors g");
      eig_g.eigenvalues = get_eigenvalues(out);
    }
    const auto updates = reader.bounded_u64(~std::uint32_t{0}, "kfac updates");
    st.restore(std::move(a), std::move(g), std::move(eig_a), std::move(eig_g),
               has_eigen, updates);
  }
  gather_state_.degraded = reader.u8();
  gather_state_.failures = static_cast<std::uint32_t>(
      reader.bounded_u64(~std::uint32_t{0}, "kfac gather failures"));
  // Shard section: the layout/assignment the checkpoint was taken under
  // must match this optimizer's config (restoring a sharded run into a
  // replicated one would silently change comm and attribution), and every
  // owner must be a valid rank. The cached assignment is invalidated
  // rather than trusted: it recomputes deterministically from the
  // restored membership, and load-order between optimizer and membership
  // sections must not matter.
  const std::uint8_t layout = reader.u8();
  const std::uint8_t assignment = reader.u8();
  if (layout != static_cast<std::uint8_t>(cfg_.layout) ||
      assignment != static_cast<std::uint8_t>(cfg_.assignment)) {
    throw PayloadError("DistKfac: checkpoint shard layout mismatch");
  }
  const auto owner_count = reader.bounded_u64(1 << 20, "kfac shard owners");
  if (owner_count != layer_indices_.size()) {
    throw PayloadError("DistKfac: checkpoint shard owner count mismatch");
  }
  for (std::size_t s = 0; s < owner_count; ++s) {
    const auto o = reader.bounded_u64(comm_.world_size(), "kfac shard owner");
    if (o >= comm_.world_size()) {
      throw PayloadError("DistKfac: checkpoint shard owner out of range");
    }
  }
  shard_owner_.clear();
  shard_mask_.clear();
}

}  // namespace compso::optim
