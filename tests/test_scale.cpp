// Scale-out suite (DESIGN.md §16): Topology rank-map properties (incl.
// the zero-GPU clamp), the summing collectives' byte-identity against the
// flat canonical reduction for adversarial world sizes with algorithm
// selection off and on, selection and time-model invariants (legacy
// formulas unchanged; hierarchical beats the flat ring at >= 256 ranks),
// and distributed preconditioning shards: deterministic cost-balanced
// assignment, sharded-vs-KAISA bit-identity at any engine thread count,
// owner eviction mid-run, checkpoint/resume between a reassignment and
// the next eigh refresh, and the O(L/P) memory attribution, which the
// analytic PerfSimulator curve matches exactly.

#include "src/codec/ckpt.hpp"
#include "src/codec/wire.hpp"
#include "src/comm/collectives.hpp"
#include "src/comm/communicator.hpp"
#include "src/comm/fault_injector.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/compressor.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/perf_sim.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/metrics.hpp"
#include "src/perf/perf_model.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace opt = compso::optim;
namespace nn = compso::nn;
namespace ct = compso::tensor;
namespace cc = compso::compress;
namespace ckpt = compso::codec::ckpt;
namespace obs = compso::obs;
namespace common = compso::common;
namespace perf = compso::perf;

namespace {

/// The optimizer's pool: none at 0 threads (compute tasks run inline).
std::unique_ptr<common::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

// --- Topology properties ---

TEST(Topology, ZeroGpusClampsToMinimal) {
  for (const auto t : {cm::Topology::with_gpus(0), cm::Topology::with_gpus(0, 0),
                       cm::Topology::with_gpus(5, 0)}) {
    EXPECT_EQ(t.nodes, 1U);
    EXPECT_EQ(t.gpus_per_node, 1U);
    EXPECT_EQ(t.world_size(), 1U);
    EXPECT_EQ(t.node_of(0), 0U);   // no division by zero.
    EXPECT_EQ(t.local_of(0), 0U);
  }
}

TEST(Topology, RankMapRoundTripsForAdversarialShapes) {
  for (const std::size_t gpus : {1UL, 2UL, 3UL, 4UL, 5UL, 7UL, 16UL, 33UL,
                                 256UL, 1000UL}) {
    for (const std::size_t per_node : {1UL, 3UL, 4UL, 8UL}) {
      const auto t = cm::Topology::with_gpus(gpus, per_node);
      EXPECT_GE(t.world_size(), gpus);
      EXPECT_LT(t.world_size(), gpus + t.gpus_per_node);
      for (std::size_t r = 0; r < t.world_size(); ++r) {
        EXPECT_LT(t.node_of(r), t.nodes);
        EXPECT_LT(t.local_of(r), t.gpus_per_node);
        EXPECT_EQ(t.node_of(r) * t.gpus_per_node + t.local_of(r), r);
        EXPECT_TRUE(t.same_node(r, r));
      }
      // Consecutive ranks share a node iff they sit in the same
      // gpus_per_node-sized block.
      for (std::size_t r = 0; r + 1 < t.world_size(); ++r) {
        EXPECT_EQ(t.same_node(r, r + 1),
                  r / t.gpus_per_node == (r + 1) / t.gpus_per_node);
      }
    }
  }
}

// --- summing collectives: byte identity vs the flat reference ---

/// Deterministic, rank- and index-dependent float (not round numbers, so
/// association order changes would show).
float probe_value(std::size_t rank, std::size_t i) {
  return 0.25F + 0.375F * static_cast<float>(rank + 1) -
         0.03125F * static_cast<float>(i % 17) +
         1.0F / static_cast<float>(rank + i + 2);
}

struct CollectiveWorld {
  std::vector<std::vector<float>> bufs;
  std::vector<std::span<float>> views;
  std::vector<std::uint8_t> participating;

  CollectiveWorld(std::size_t world, std::size_t n,
                  const std::vector<std::size_t>& evicted = {}) {
    bufs.resize(world);
    participating.assign(world, 1);
    for (const std::size_t e : evicted) participating[e] = 0;
    for (std::size_t r = 0; r < world; ++r) {
      bufs[r].resize(n);
      for (std::size_t i = 0; i < n; ++i) bufs[r][i] = probe_value(r, i);
    }
    for (auto& b : bufs) views.emplace_back(b);
  }

  /// The flat canonical reduction: ascending participating rank, linear
  /// association — the reference every collective must match bitwise.
  std::vector<float> canonical_sum() const {
    std::vector<float> sum;
    for (std::size_t r = 0; r < bufs.size(); ++r) {
      if (participating[r] == 0) continue;
      if (sum.empty()) {
        sum = bufs[r];
      } else {
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += bufs[r][i];
      }
    }
    return sum;
  }

  /// Rank r still holds its own contribution.
  bool untouched(std::size_t r) const {
    for (std::size_t i = 0; i < bufs[r].size(); ++i) {
      if (bufs[r][i] != probe_value(r, i)) return false;
    }
    return true;
  }
};

void expect_span_bits(std::span<const float> got,
                      std::span<const float> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i;
  }
}

TEST(Collectives, AllreduceByteIdenticalToFlatReference) {
  // Algorithm selection changes only the modeled time: allreduce_sum and
  // reduce_sum deliver the canonical sum whichever algorithm prices them.
  for (const std::size_t gpus : {2UL, 3UL, 4UL, 5UL, 7UL, 8UL, 12UL, 16UL,
                                 33UL}) {
    const auto topo = cm::Topology::with_gpus(gpus);
    const std::size_t world = topo.world_size();
    // All-participating, plus a mask with the first and last ranks out
    // (when enough ranks remain for a root other than the lead).
    std::vector<std::vector<std::size_t>> masks{{}};
    if (world >= 4) masks.push_back({0, world - 1});
    for (const std::size_t n : {1UL, 5UL, 64UL, 257UL, 100000UL}) {
      for (const auto& evicted : masks) {
        for (const bool auto_select : {false, true}) {
          cm::Communicator comm(topo, cm::NetworkModel::platform1());
          comm.set_collective_config({.auto_select = auto_select});
          std::vector<std::uint8_t> mask(world, 1);
          for (const std::size_t e : evicted) mask[e] = 0;
          if (!evicted.empty()) comm.set_active_mask(mask);
          const std::string what =
              "gpus=" + std::to_string(gpus) + " n=" + std::to_string(n) +
              " evicted=" + std::to_string(evicted.size()) +
              " auto_select=" + std::to_string(auto_select);

          CollectiveWorld ar(world, n, evicted);
          const auto want = ar.canonical_sum();
          comm.allreduce_sum(ar.views);
          for (std::size_t r = 0; r < world; ++r) {
            if (ar.participating[r] != 0) {
              expect_span_bits(ar.bufs[r], want, "allreduce " + what);
            } else {
              ASSERT_TRUE(ar.untouched(r)) << "allreduce " << what;
            }
          }

          // Reduce to the last participant, never the lead: only the root
          // receives the sum; every other rank keeps its contribution.
          CollectiveWorld red(world, n, evicted);
          const std::size_t root = comm.participant_ranks().back();
          ASSERT_NE(root, comm.first_participant());
          comm.reduce_sum(red.views, root);
          expect_span_bits(red.bufs[root], want, "reduce " + what);
          for (std::size_t r = 0; r < world; ++r) {
            if (r != root) {
              ASSERT_TRUE(red.untouched(r)) << "reduce " << what;
            }
          }
        }
      }
    }
  }
}

// --- selection + time models ---

TEST(Collectives, SelectionOffAlwaysRing) {
  const auto topo = cm::Topology::with_gpus(256);
  const auto net = cm::NetworkModel::platform1();
  const cm::CollectiveConfig off;  // auto_select = false.
  for (const std::size_t bytes : {64UL, 1UL << 20, 1UL << 28}) {
    EXPECT_EQ(cm::select_algo(off, topo, 256, bytes),
              cm::CollectiveAlgo::kRing);
    EXPECT_EQ(cm::select_allreduce_algo(off, topo, net, 256, bytes),
              cm::CollectiveAlgo::kRing);
  }
}

TEST(Collectives, CostBasedSelectionPicksTheModeledMinimum) {
  const auto net = cm::NetworkModel::platform1();
  cm::CollectiveConfig cfg;
  cfg.auto_select = true;
  for (const std::size_t world : {8UL, 64UL, 256UL, 1024UL, 4096UL}) {
    const auto topo = cm::Topology::with_gpus(world);
    for (const std::size_t bytes :
         {256UL, 1UL << 14, 1UL << 20, 1UL << 25, 1UL << 31}) {
      const auto sel = cm::select_allreduce_algo(cfg, topo, net, world, bytes);
      const double t_sel = cm::allreduce_time(sel, topo, net, world, bytes);
      for (const auto algo : {cm::CollectiveAlgo::kRing,
                              cm::CollectiveAlgo::kRecursiveDoubling,
                              cm::CollectiveAlgo::kHierarchical}) {
        EXPECT_LE(t_sel, cm::allreduce_time(algo, topo, net, world, bytes))
            << "world=" << world << " bytes=" << bytes;
      }
    }
  }
  // Threshold selection keeps its documented shape for the other
  // families: small -> recursive doubling, large multi-node -> two-level.
  const auto topo = cm::Topology::with_gpus(256);
  EXPECT_EQ(cm::select_algo(cfg, topo, 256, 1024),
            cm::CollectiveAlgo::kRecursiveDoubling);
  EXPECT_EQ(cm::select_algo(cfg, topo, 256, 1UL << 20),
            cm::CollectiveAlgo::kHierarchical);
}

TEST(Collectives, LegacyTimingFormulasUnchangedWithSelectionOff) {
  // A default-configured Communicator must price collectives exactly as
  // the pre-§16 closed forms (same expressions, same evaluation order).
  const auto topo = cm::Topology::with_gpus(16);
  const auto net = cm::NetworkModel::platform1();
  cm::Communicator comm(topo, net);
  const double lat = net.inter_node().latency_s;
  const double bw = net.inter_node().bandwidth_Bps;
  for (const std::size_t bytes : {1UL << 10, 1UL << 20, 1UL << 26}) {
    const double pd = 16.0;
    const double n = static_cast<double>(bytes);
    EXPECT_DOUBLE_EQ(comm.allreduce_time(bytes),
                     2.0 * (pd - 1.0) * lat + (2.0 * (pd - 1.0) / pd * n) / bw);
    EXPECT_DOUBLE_EQ(comm.allgather_time(bytes),
                     (pd - 1.0) * lat + ((pd - 1.0) * n) / bw);
  }
  // Pipelined broadcast: log2(p) startup rounds, one payload traversal.
  const std::size_t b = 1UL << 16;
  EXPECT_DOUBLE_EQ(comm.pipelined_broadcast_time(b),
                   static_cast<double>(std::bit_width(16UL - 1)) * lat +
                       static_cast<double>(b) / bw);
}

TEST(Collectives, HierarchicalBeatsFlatRingAtScale) {
  const auto net = cm::NetworkModel::platform1();
  for (const std::size_t world : {256UL, 1024UL, 4096UL}) {
    const auto topo = cm::Topology::with_gpus(world);
    for (const std::size_t bytes : {1UL << 20, 1UL << 25}) {
      const double ring = cm::allreduce_time(cm::CollectiveAlgo::kRing, topo,
                                             net, world, bytes);
      const double hier = cm::allreduce_time(cm::CollectiveAlgo::kHierarchical,
                                             topo, net, world, bytes);
      EXPECT_LT(hier, ring) << "world=" << world << " bytes=" << bytes;
    }
  }
}

TEST(Collectives, CommunicatorReduceSumMatchesCanonicalAndRecordsStats) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  CollectiveWorld w(4, 21);
  const auto want = w.canonical_sum();
  const auto before = comm.stats();
  comm.reduce_sum(w.views, 2);
  expect_span_bits(w.bufs[2], want, "reduce root");
  // The reduce rides the allreduce stats row (obs reconciliation keys on
  // the op set).
  const auto after = comm.stats();
  EXPECT_GT(after.allreduce_s, before.allreduce_s);
  EXPECT_EQ(after.allreduce_bytes - before.allreduce_bytes,
            21U * sizeof(float));
}

// --- distributed preconditioning shards ---

struct DistFixture {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  nn::ClusterDataset dataset{8, 3, 0.4F, 77};

  explicit DistFixture(std::size_t world, std::size_t depth = 1) {
    for (std::size_t r = 0; r < world; ++r) {
      ct::Rng rng(555);
      replicas.push_back(nn::make_mlp_classifier(8, 12, 3, depth, rng));
    }
    for (auto& m : replicas) ptrs.push_back(&m);
  }

  void run_fwd_bwd(ct::Rng& data_rng) {
    for (auto& m : replicas) {
      const auto batch = dataset.sample(8, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
  }

  std::vector<float> flat_params() {
    std::vector<float> out;
    for (std::size_t li : replicas[0].trainable_layers()) {
      auto& layer = replicas[0].layer(li);
      const auto w = layer.weight()->span();
      const auto b = layer.bias()->span();
      out.insert(out.end(), w.begin(), w.end());
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }
};

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " param " << i;
  }
}

std::vector<float> run_shard_config(std::size_t world, std::size_t steps,
                                    opt::PrecondLayout layout,
                                    opt::ShardAssignment assignment,
                                    std::size_t engine_threads,
                                    bool compress) {
  DistFixture f(world, 2);
  cm::Communicator comm(cm::Topology::with_gpus(world),
                        cm::NetworkModel::platform1());
  opt::DistKfacConfig cfg;
  cfg.damping = 0.1;
  cfg.eigen_refresh_every = 2;
  cfg.layout = layout;
  cfg.assignment = assignment;
  const auto pool = make_pool(engine_threads);
  opt::DistKfac kfac(cfg, comm, f.ptrs, pool.get());
  const auto compso = cc::make_compso({});
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < steps; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compress ? compso.get() : nullptr, sr_rng);
  }
  return f.flat_params();
}

TEST(Shard, RoundRobinAssignmentMatchesLegacyOwnerMap) {
  DistFixture f(3, 4);  // 5 trainable layers over 3 ranks.
  cm::Communicator comm(cm::Topology::with_gpus(3),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({}, comm, f.ptrs);
  ASSERT_EQ(kfac.layer_count(), 5U);
  for (std::size_t s = 0; s < kfac.layer_count(); ++s) {
    EXPECT_EQ(kfac.owner_of(s), s % 3);
  }
}

TEST(Shard, CostBalancedAssignmentIsDeterministicAndCoversParticipants) {
  DistFixture f(3, 6);  // 7 trainable layers over 3 ranks.
  cm::Communicator comm(cm::Topology::with_gpus(3),
                        cm::NetworkModel::platform1());
  opt::DistKfacConfig cfg;
  cfg.layout = opt::PrecondLayout::kSharded;
  cfg.assignment = opt::ShardAssignment::kCostBalanced;
  opt::DistKfac kfac(cfg, comm, f.ptrs);
  const auto owners = kfac.shard_owners();
  ASSERT_EQ(owners.size(), 7U);
  // Deterministic: a second instance over the same membership computes
  // the identical map.
  DistFixture f2(3, 6);
  cm::Communicator comm2(cm::Topology::with_gpus(3),
                         cm::NetworkModel::platform1());
  opt::DistKfac kfac2(cfg, comm2, f2.ptrs);
  EXPECT_EQ(kfac2.shard_owners(), owners);
  // With more slots than ranks, LPT gives every participant work.
  std::vector<std::size_t> per_rank(3, 0);
  for (const std::size_t o : owners) {
    ASSERT_LT(o, 3U);
    ++per_rank[o];
  }
  for (const std::size_t c : per_rank) EXPECT_GE(c, 1U);
}

TEST(Shard, ShardedMatchesKaisaBitwiseAtAnyThreadCount) {
  // Round-robin sharding preserves the gather grouping, so even the
  // compressed trajectory is bit-identical to the replicated layout —
  // serial engine and pooled engine alike.
  const auto kaisa = run_shard_config(4, 5, opt::PrecondLayout::kKaisa,
                                      opt::ShardAssignment::kRoundRobin,
                                      /*engine_threads=*/0, /*compress=*/true);
  for (const std::size_t threads : {0UL, 2UL}) {
    const auto sharded = run_shard_config(
        4, 5, opt::PrecondLayout::kSharded, opt::ShardAssignment::kRoundRobin,
        threads, /*compress=*/true);
    expect_bitwise_equal(kaisa, sharded,
                         "sharded threads=" + std::to_string(threads));
  }
  // Cost-balanced re-groups the compressor's payloads (legitimately
  // different bits under compression) but is bit-identical uncompressed.
  const auto kaisa_plain = run_shard_config(
      4, 5, opt::PrecondLayout::kKaisa, opt::ShardAssignment::kRoundRobin,
      /*engine_threads=*/0, /*compress=*/false);
  const auto lpt_plain = run_shard_config(
      4, 5, opt::PrecondLayout::kSharded, opt::ShardAssignment::kCostBalanced,
      /*engine_threads=*/0, /*compress=*/false);
  expect_bitwise_equal(kaisa_plain, lpt_plain, "cost-balanced uncompressed");
}

TEST(Shard, ShardedTrajectoryDeterministicAcrossThreadCounts) {
  const auto serial = run_shard_config(4, 5, opt::PrecondLayout::kSharded,
                                       opt::ShardAssignment::kCostBalanced,
                                       /*engine_threads=*/0, /*compress=*/true);
  for (const std::size_t threads : {2UL, 8UL}) {
    expect_bitwise_equal(
        serial,
        run_shard_config(4, 5, opt::PrecondLayout::kSharded,
                         opt::ShardAssignment::kCostBalanced, threads,
                         /*compress=*/true),
        "threads=" + std::to_string(threads));
  }
}

TEST(Shard, OwnerEvictionReassignsDeterministically) {
  DistFixture f(4, 4);  // 5 slots over 4 ranks.
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfacConfig cfg;
  cfg.layout = opt::PrecondLayout::kSharded;
  cfg.assignment = opt::ShardAssignment::kCostBalanced;
  opt::DistKfac kfac(cfg, comm, f.ptrs);
  const auto compso = cc::make_compso({});
  ct::Rng data_rng(1), sr_rng(2);
  f.run_fwd_bwd(data_rng);
  kfac.step(0, 0.01, compso.get(), sr_rng);

  const auto before = kfac.shard_owners();
  const std::size_t victim = before[0];  // owns at least slot 0.
  comm.evict(victim);
  const auto after = kfac.shard_owners();
  for (const std::size_t o : after) {
    EXPECT_NE(o, victim);  // every shard moved off the evicted rank.
    EXPECT_TRUE(comm.is_participating(o));
  }
  // The reassignment is the deterministic map a fresh instance computes
  // over the surviving membership.
  DistFixture f2(4, 4);
  cm::Communicator comm2(cm::Topology::with_gpus(4),
                         cm::NetworkModel::platform1());
  comm2.evict(victim);
  opt::DistKfac kfac2(cfg, comm2, f2.ptrs);
  EXPECT_EQ(kfac2.shard_owners(), after);
  // And the optimizer keeps stepping (replicas stay consistent) over the
  // reduced group.
  f.run_fwd_bwd(data_rng);
  kfac.step(1, 0.01, compso.get(), sr_rng);
  const auto stats = kfac.shard_stats();
  EXPECT_EQ(stats.factor_bytes[victim], 0U);
  EXPECT_GT(stats.peak_factor_bytes, 0U);
}

core::FtTrainerConfig sharded_ft_config(std::size_t engine_threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 31337};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.kfac.layout = opt::PrecondLayout::kSharded;
  cfg.kfac.assignment = opt::ShardAssignment::kCostBalanced;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 20;
  cfg.engine_threads = engine_threads;
  return cfg;
}

TEST(Shard, EvictionCheckpointResumeBitExact) {
  // Crash at 3 (deterministic reassignment), checkpoint at 6 — between
  // the reassignment and the next eigh refresh (every 5: at 10) — rejoin
  // at 9 (shard resync through CKPT mini-frames), run to 12. The resumed
  // trajectory must match the straight one bit for bit, across engine
  // thread counts.
  cm::FaultPlan plan;
  plan.crash(3, 1).recover(9, 1);

  core::FaultTolerantTrainer straight(sharded_ft_config(2));
  straight.set_fault_plan(plan, 4242);
  straight.run(12);

  core::FaultTolerantTrainer first(sharded_ft_config(2));
  first.set_fault_plan(plan, 4242);
  first.run(6);
  const auto frame = first.checkpoint();

  core::FaultTolerantTrainer resumed(sharded_ft_config(0));
  resumed.set_fault_plan(plan, 4242);
  resumed.restore(frame);
  EXPECT_EQ(resumed.iteration(), 6U);
  resumed.run(6);

  expect_bitwise_equal(straight.parameters(), resumed.parameters(),
                       "sharded eviction resume");
}

TEST(Shard, StatsShowPerRankMemoryShrinkingWithWorld) {
  auto stats_at = [](std::size_t world) {
    DistFixture f(world, 7);  // 8 trainable layers.
    cm::Communicator comm(cm::Topology::with_gpus(world),
                          cm::NetworkModel::platform1());
    opt::DistKfacConfig cfg;
    cfg.layout = opt::PrecondLayout::kSharded;
    cfg.assignment = opt::ShardAssignment::kCostBalanced;
    opt::DistKfac kfac(cfg, comm, f.ptrs);
    return kfac.shard_stats();
  };
  const auto s2 = stats_at(2);
  const auto s8 = stats_at(8);
  EXPECT_LT(s8.peak_factor_bytes, s2.peak_factor_bytes);
  EXPECT_LT(s8.peak_eigh_flops, s2.peak_eigh_flops);
  // Total resident bytes are the model's factor footprint either way —
  // sharding moves shards, it doesn't duplicate or drop them.
  const auto total = [](const opt::DistKfac::ShardStats& s) {
    std::uint64_t t = 0;
    for (const auto b : s.factor_bytes) t += b;
    return t;
  };
  EXPECT_EQ(total(s2), total(s8));

  // The replicated layout charges every participant the full footprint.
  DistFixture f(2, 7);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistKfac kaisa({}, comm, f.ptrs);
  const auto rep = kaisa.shard_stats();
  EXPECT_EQ(rep.factor_bytes[0], rep.factor_bytes[1]);
  EXPECT_EQ(rep.peak_factor_bytes, total(s2));
}

// --- one KFAC step's collectives against closed forms ---
//
// The uncompressed step ships every slot's A and G as packed upper
// triangles in one factor collective per root (one allreduce; one reduce
// per owner under the sharded layout) and every slot's combined gradient
// in one allreduce. Shapes: trainbench's kfac_compso and kfac_scaleout
// workloads and micro_train_throughput's config.

struct StepShape {
  const char* name;
  std::size_t world, batch, features, classes, hidden, depth;
  float noise;
};
constexpr StepShape kStepShapes[] = {
    {"kfac_compso", 2, 256, 32, 32, 192, 2, 1.8F},
    {"kfac_scaleout", 8, 32, 32, 32, 64, 8, 1.6F},
    {"bench_train", 2, 128, 64, 8, 192, 2, 0.5F},
};

/// Each slot's (A, G) running factors, read back from DistKfac's
/// checkpoint section.
std::vector<std::pair<ct::Tensor, ct::Tensor>> saved_factors(
    const opt::DistKfac& kfac, nn::Model& model) {
  std::vector<std::uint8_t> bytes;
  kfac.save_state(bytes);
  compso::codec::wire::Reader in(bytes);
  EXPECT_EQ(in.u64(), kfac.layer_count());
  std::vector<std::pair<ct::Tensor, ct::Tensor>> out;
  for (const std::size_t li : model.trainable_layers()) {
    const auto& w = *model.layer(li).weight();
    const std::size_t o = w.rows(), a = w.cols() + 1;
    ckpt::get_tensor(in, {o, a}, "momentum");
    ct::Tensor fa = ckpt::get_tensor(in, {a, a}, "factor a");
    ct::Tensor fg = ckpt::get_tensor(in, {o, o}, "factor g");
    if (in.u8() != 0) {
      ckpt::get_tensor(in, {a, a}, "eigenvectors a");
      ckpt::get_floats(in, "eigenvalues a");
      ckpt::get_tensor(in, {o, o}, "eigenvectors g");
      ckpt::get_floats(in, "eigenvalues g");
    }
    in.u64();
    out.emplace_back(std::move(fa), std::move(fg));
  }
  return out;
}

/// One uncompressed step of `shape` under `layout`/`assignment` with
/// `evicted` (if any) out of the group: the step's collectives and the
/// factor state it leaves must match their closed forms.
void check_one_step(const StepShape& shape, opt::PrecondLayout layout,
                    opt::ShardAssignment assignment,
                    std::optional<std::size_t> evicted) {
  const std::string what =
      std::string(shape.name) + " sharded=" +
      std::to_string(layout == opt::PrecondLayout::kSharded) +
      " lpt=" +
      std::to_string(assignment == opt::ShardAssignment::kCostBalanced) +
      " evicted=" + (evicted ? std::to_string(*evicted) : "none");
  SCOPED_TRACE(what);
  std::vector<nn::Model> replicas;
  for (std::size_t r = 0; r < shape.world; ++r) {
    ct::Rng rng(91);
    replicas.push_back(nn::make_mlp_classifier(
        shape.features, shape.hidden, shape.classes, shape.depth, rng));
  }
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas) ptrs.push_back(&m);
  cm::Communicator comm(cm::Topology::with_gpus(shape.world),
                        cm::NetworkModel::platform1());
  if (evicted) comm.evict(*evicted);
  opt::DistKfacConfig cfg;
  cfg.layout = layout;
  cfg.assignment = assignment;
  opt::DistKfac kfac(cfg, comm, ptrs);
  const nn::ClusterDataset data(shape.features, shape.classes, shape.noise,
                                17);
  ct::Rng data_rng(5), sr_rng(6);
  for (auto& m : replicas) {
    const auto batch = data.sample(shape.batch, data_rng);
    ct::Tensor grad;
    nn::softmax_cross_entropy(m.forward(batch.x), batch.labels, grad);
    m.backward(grad);
  }
  obs::MetricsRegistry metrics;
  comm.set_obs({.metrics = &metrics});
  kfac.step(0, 0.01, nullptr, sr_rng);
  comm.set_obs({});

  // Wire bytes: d(d+1)/2 floats per factor, out * (in + 1) per gradient.
  const auto trainable = replicas[0].trainable_layers();
  std::vector<std::uint64_t> owner_bytes(shape.world, 0);
  std::uint64_t factor_bytes = 0;
  std::uint64_t grad_bytes = 0;
  core::PerfConfig pcfg;
  pcfg.topo = cm::Topology::with_gpus(shape.world);
  pcfg.factor_update_every = 1;
  for (std::size_t s = 0; s < trainable.size(); ++s) {
    const auto& w = *replicas[0].layer(trainable[s]).weight();
    const std::size_t da = w.cols() + 1, dg = w.rows();
    const std::uint64_t bytes =
        (da * (da + 1) / 2 + dg * (dg + 1) / 2) * sizeof(float);
    factor_bytes += bytes;
    owner_bytes[kfac.owner_of(s)] += bytes;
    grad_bytes += dg * da * sizeof(float);
    pcfg.model.layers.push_back({.name = "fc", .out = dg, .in = w.cols()});
  }
  std::uint64_t want_calls = 1;
  double want_s = comm.allreduce_time(grad_bytes);
  if (layout == opt::PrecondLayout::kSharded) {
    for (const std::uint64_t b : owner_bytes) {
      if (b == 0) continue;
      ++want_calls;
      want_s += comm.reduce_time(b);
    }
  } else {
    ++want_calls;
    want_s += comm.allreduce_time(factor_bytes);
    if (!evicted) {
      // The same bytes the Eq. 5 model prices for the factor allreduce.
      EXPECT_DOUBLE_EQ(core::PerfSimulator(pcfg).baseline().allreduce_s,
                       comm.allreduce_time(factor_bytes));
    }
  }
  EXPECT_EQ(metrics.counter("comm.allreduce.calls"), want_calls);
  EXPECT_EQ(comm.stats().allreduce_bytes, factor_bytes + grad_bytes);
  EXPECT_DOUBLE_EQ(comm.stats().allreduce_s, want_s);

  // Factor state: the first blend adds the rank-ordered average of every
  // participant's covariances to a zero state.
  const float inv = 1.0F / static_cast<float>(comm.participant_count());
  const auto saved = saved_factors(kfac, replicas[0]);
  for (std::size_t s = 0; s < trainable.size(); ++s) {
    for (const bool is_a : {true, false}) {
      ct::Tensor sum;
      for (std::size_t r = 0; r < shape.world; ++r) {
        if (!comm.is_participating(r)) continue;
        const auto& layer = replicas[r].layer(trainable[s]);
        const ct::Tensor& x =
            is_a ? *layer.kfac_input() : *layer.kfac_grad_output();
        const auto batch = static_cast<float>(x.rows());
        ct::Tensor c;
        ct::syrk_tn(x, is_a ? 1.0F / batch : batch, 0.0F, c);
        if (sum.empty()) {
          sum = std::move(c);
        } else {
          for (std::size_t i = 0; i < c.size(); ++i) sum[i] += c[i];
        }
      }
      const ct::Tensor& got = is_a ? saved[s].first : saved[s].second;
      ASSERT_EQ(got.size(), sum.size());
      for (std::size_t i = 0; i < sum.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(sum[i] * inv + 0.0F))
            << "slot " << s << (is_a ? " A" : " G") << " element " << i;
      }
    }
  }
}

TEST(KfacStepComm, OneCollectivePerRootMatchesClosedForms) {
  for (const auto& shape : kStepShapes) {
    for (const auto& [layout, assignment] :
         {std::pair{opt::PrecondLayout::kKaisa,
                    opt::ShardAssignment::kRoundRobin},
          std::pair{opt::PrecondLayout::kSharded,
                    opt::ShardAssignment::kRoundRobin},
          std::pair{opt::PrecondLayout::kSharded,
                    opt::ShardAssignment::kCostBalanced}}) {
      for (const std::optional<std::size_t> evicted :
           {std::optional<std::size_t>{}, std::optional<std::size_t>{0},
            std::optional<std::size_t>{shape.world - 1}}) {
        check_one_step(shape, layout, assignment, evicted);
      }
    }
  }
}

// --- perf-model scale accounting ---

TEST(PerfScale, PrecondMemoryMatchesShardStats) {
  // The analytic memory curve and the functional optimizer share one LPT
  // owner map; with the same per-slot byte accounting, their peaks agree
  // exactly.
  for (const std::size_t depth : {1UL, 3UL, 8UL}) {
    for (const std::size_t world : {2UL, 3UL, 4UL, 8UL}) {
      DistFixture f(world, depth);
      cm::Communicator comm(cm::Topology::with_gpus(world),
                            cm::NetworkModel::platform1());
      opt::DistKfacConfig kcfg;
      kcfg.layout = opt::PrecondLayout::kSharded;
      kcfg.assignment = opt::ShardAssignment::kCostBalanced;
      opt::DistKfac kfac(kcfg, comm, f.ptrs);

      core::PerfConfig pcfg;
      for (const std::size_t li : f.replicas[0].trainable_layers()) {
        const auto& w = *f.replicas[0].layer(li).weight();
        pcfg.model.layers.push_back(
            {.name = "fc", .out = w.rows(), .in = w.cols()});
      }
      const core::PerfSimulator sim(pcfg);
      EXPECT_EQ(sim.precond_memory(world).sharded_peak_bytes,
                kfac.shard_stats().peak_factor_bytes)
          << "depth=" << depth << " world=" << world;
    }
  }
}

TEST(PerfScale, PrecondMemoryCurveShrinksLinearly) {
  core::PerfConfig cfg;
  cfg.model = nn::bert_large_shape();
  core::PerfSimulator sim(cfg);
  const auto m4 = sim.precond_memory(4);
  const auto m32 = sim.precond_memory(32);
  const auto m4096 = sim.precond_memory(4096);
  EXPECT_EQ(m4.replicated_bytes, m32.replicated_bytes);
  EXPECT_GE(m4.sharded_peak_bytes, 4 * m32.sharded_peak_bytes);
  // Worlds beyond the layer count bottom out at the heaviest layer.
  EXPECT_GT(m4096.sharded_peak_bytes, 0U);
  EXPECT_LE(m4096.sharded_peak_bytes, m32.sharded_peak_bytes);
  EXPECT_LT(m4.sharded_peak_bytes, m4.replicated_bytes);
}

TEST(PerfScale, CommLookupGridInterpolatesAcrossWorlds) {
  const auto net = cm::NetworkModel::platform1();
  perf::CommLookupGrid grid(net, {4, 16});
  const std::size_t bytes = 1UL << 20;
  const double t4 = grid.throughput(4, bytes);
  const double t16 = grid.throughput(16, bytes);
  ASSERT_GT(t4, 0.0);
  ASSERT_GT(t16, 0.0);
  // Edge clamps.
  EXPECT_DOUBLE_EQ(grid.throughput(2, bytes), t4);
  EXPECT_DOUBLE_EQ(grid.throughput(64, bytes), t16);
  // Log2-interpolated interior point lies between the edge tables.
  const double t8 = grid.throughput(8, bytes);
  EXPECT_GE(t8, std::min(t4, t16));
  EXPECT_LE(t8, std::max(t4, t16));
  // The scale grid prices every headline world.
  const auto sweep = perf::CommLookupGrid::scale_sweep(net);
  ASSERT_EQ(sweep.worlds().size(), 5U);
  for (const std::size_t w : sweep.worlds()) {
    EXPECT_GT(sweep.throughput(w, bytes), 0.0);
  }
  EXPECT_THROW(perf::CommLookupGrid(net, {}), std::invalid_argument);
  EXPECT_THROW(perf::CommLookupGrid(net, {8, 8}), std::invalid_argument);
}

}  // namespace
