// 1000-rank scale-out sweep (DESIGN.md §16): distributed preconditioning
// shards + topology-aware collective algorithm selection.
//
// Four legs, all gated deterministically (model arithmetic and bit-exact
// trajectories — no wall-clock gates, so the gates hold under sanitizers
// too; only the functional world sizes shrink in --smoke):
//
//  1. Sharded-vs-KAISA bit-identity: the same training run under the
//     replicated kKaisa layout and the kSharded + kCostBalanced layout
//     must produce bit-identical parameters (the reduce-to-owner uses the
//     allreduce's canonical summation order, so layout changes memory
//     placement, never bits).
//  2. A real sharded DistKfac step at large world (1024 ranks; 256 in
//     --smoke): every replica steps through the functional collectives,
//     and shard_stats() must show per-rank peak factor memory strictly
//     below the replicated total — the O(L/P) claim, measured.
//  3. The analytic O(L/P) curve on BERT-large: per-rank peak factor bytes
//     under LPT sharding must shrink ~linearly with world size
//     (peak(4) >= 4x peak(32)) until worlds outrun layers.
//  4. Modeled collective sweep over worlds {256..4096} x message sizes
//     {1KB..32MB}: per-bucket ring / recursive-doubling / hierarchical
//     allreduce times plus the auto-selected algorithm, with the gate
//     hierarchical < flat ring at >= 256 ranks for >= 1MB messages.
//
// Emits BENCH_scale.json: host_concurrency, selected algorithm per
// message-size bucket, per-rank peak factor-memory bytes (functional and
// analytic), grid throughputs, and every gate verdict.
//
//   scale_sweep [--smoke] [output.json]

#include "bench/bench_util.hpp"
#include "src/comm/collectives.hpp"
#include "src/nn/dataset.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/perf/perf_model.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace compso;

namespace {

obs::MetricsRegistry g_metrics;

/// Replicated tiny-MLP fixture (the test-suite DistFixture shape): every
/// rank holds a bit-identical model copy and samples its own batch.
struct Fleet {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  nn::ClusterDataset dataset;

  Fleet(std::size_t world, std::size_t features, std::size_t hidden,
        std::size_t classes, std::size_t depth)
      : dataset(features, classes, 0.4F, 77) {
    replicas.reserve(world);
    for (std::size_t r = 0; r < world; ++r) {
      tensor::Rng rng(555);
      replicas.push_back(
          nn::make_mlp_classifier(features, hidden, classes, depth, rng));
    }
    for (auto& m : replicas) ptrs.push_back(&m);
  }

  void run_fwd_bwd(tensor::Rng& data_rng, std::size_t batch) {
    for (auto& m : replicas) {
      const auto b = dataset.sample(batch, data_rng);
      const auto logits = m.forward(b.x);
      tensor::Tensor grad;
      nn::softmax_cross_entropy(logits, b.labels, grad);
      m.backward(grad);
    }
  }

  /// All trainable parameters (weights + biases) of replica 0, flattened.
  std::vector<float> parameters() {
    std::vector<float> out;
    auto& m = replicas[0];
    for (const std::size_t li : m.trainable_layers()) {
      for (const float v : m.layer(li).weight()->span()) out.push_back(v);
      if (auto* b = m.layer(li).bias()) {
        for (const float v : b->span()) out.push_back(v);
      }
    }
    return out;
  }

  /// Max bitwise divergence across replicas (must be 0 after every step).
  bool replicas_identical() {
    for (const std::size_t li : replicas[0].trainable_layers()) {
      const auto w0 = replicas[0].layer(li).weight()->span();
      for (std::size_t r = 1; r < replicas.size(); ++r) {
        const auto wr = replicas[r].layer(li).weight()->span();
        for (std::size_t i = 0; i < w0.size(); ++i) {
          if (std::bit_cast<std::uint32_t>(w0[i]) !=
              std::bit_cast<std::uint32_t>(wr[i])) {
            return false;
          }
        }
      }
    }
    return true;
  }
};

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Runs `steps` DistKfac steps at `world` under `layout` / `assignment`
/// and returns replica 0's final parameters. With `compress`, even steps
/// run through the COMPSO compressor (odd steps exercise the plain
/// reduce/allreduce exchange).
std::vector<float> run_layout(std::size_t world, std::size_t steps,
                              optim::PrecondLayout layout,
                              optim::ShardAssignment assignment,
                              bool compress_steps, bool* replicas_ok) {
  Fleet fleet(world, 8, 12, 3, 2);
  comm::Communicator comm(comm::Topology::with_gpus(world),
                          comm::NetworkModel::platform1());
  optim::DistKfacConfig cfg;
  cfg.damping = 0.1;
  cfg.eigen_refresh_every = 2;
  cfg.layout = layout;
  cfg.assignment = assignment;
  optim::DistKfac kfac(cfg, comm, fleet.ptrs);
  const auto compso_c = compress::make_compso({});
  tensor::Rng data_rng(1), sr_rng(2);
  bool ok = true;
  for (std::size_t t = 0; t < steps; ++t) {
    fleet.run_fwd_bwd(data_rng, 8);
    kfac.step(t, 0.01,
              (compress_steps && t % 2 == 0) ? compso_c.get() : nullptr,
              sr_rng);
    ok = ok && fleet.replicas_identical();
  }
  if (replicas_ok != nullptr) *replicas_ok = ok;
  return fleet.parameters();
}

const char* algo_name(comm::CollectiveAlgo a) {
  return comm::to_string(a);
}

}  // namespace

int usage(const char* argv0, const char* bad) {
  std::fprintf(stderr, "unknown argument: %s\n", bad);
  std::fprintf(stderr, "usage: %s [--smoke] [output.json]\n", argv0);
  return 1;
}

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scale.json";
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (!arg.empty() && arg[0] != '-' && !have_out) {
      out_path = arg;
      have_out = true;
    } else {
      return usage(argv[0], argv[i]);
    }
  }
  const unsigned host_concurrency = std::thread::hardware_concurrency();
  int failures = 0;

  // --- leg 1: sharded vs KAISA bit-identity -------------------------------
  // Three comparisons pin down exactly when the sharded layout is
  // bit-identical to the replicated one:
  //  a) kSharded + kRoundRobin vs kKaisa, alternating compressed steps:
  //     same owner map, same gather grouping, same Rng streams — the
  //     layout alone must never change bits.
  //  b) kSharded + kCostBalanced vs kKaisa, UNCOMPRESSED: the LPT map
  //     regroups the gather, but raw payloads are placement-independent,
  //     so bits still match.
  //  (Cost-balanced + compression regroups the payloads the stochastic
  //  compressor sees, so that trajectory is legitimately different; the
  //  replica-consistency check below still applies to it.)
  const std::size_t id_world = smoke ? 4 : 8;
  const std::size_t id_steps = 6;
  bool ok_a0 = false, ok_a1 = false, ok_b0 = false, ok_b1 = false;
  bool ok_c = false;
  const auto kaisa_comp =
      run_layout(id_world, id_steps, optim::PrecondLayout::kKaisa,
                 optim::ShardAssignment::kRoundRobin, true, &ok_a0);
  const auto sharded_rr =
      run_layout(id_world, id_steps, optim::PrecondLayout::kSharded,
                 optim::ShardAssignment::kRoundRobin, true, &ok_a1);
  const auto kaisa_plain =
      run_layout(id_world, id_steps, optim::PrecondLayout::kKaisa,
                 optim::ShardAssignment::kRoundRobin, false, &ok_b0);
  const auto sharded_lpt =
      run_layout(id_world, id_steps, optim::PrecondLayout::kSharded,
                 optim::ShardAssignment::kCostBalanced, false, &ok_b1);
  const auto sharded_lpt_comp =
      run_layout(id_world, id_steps, optim::PrecondLayout::kSharded,
                 optim::ShardAssignment::kCostBalanced, true, &ok_c);
  (void)sharded_lpt_comp;
  const bool identity_ok = bitwise_equal(kaisa_comp, sharded_rr) &&
                           bitwise_equal(kaisa_plain, sharded_lpt) &&
                           ok_a0 && ok_a1 && ok_b0 && ok_b1 && ok_c;
  bench::print_header("Scale sweep: sharded preconditioning + collectives");
  std::printf(
      "  sharded vs KAISA (world=%zu, %zu steps): round-robin+compressed "
      "%s, cost-balanced+plain %s, replicas consistent %s\n",
      id_world, id_steps,
      bitwise_equal(kaisa_comp, sharded_rr) ? "bit-identical" : "MISMATCH",
      bitwise_equal(kaisa_plain, sharded_lpt) ? "bit-identical" : "MISMATCH",
      (ok_a0 && ok_a1 && ok_b0 && ok_b1 && ok_c) ? "yes" : "NO");
  if (!identity_ok) {
    std::fprintf(stderr,
                 "FAIL: sharded layout diverged from the replicated KAISA "
                 "layout where bits must match\n");
    ++failures;
  }

  // --- leg 2: real sharded step at large world ----------------------------
  const std::size_t big_world = smoke ? 256 : 1024;
  optim::DistKfac::ShardStats big_stats;
  double big_step_s = 0.0;
  bool big_ok = true;
  {
    Fleet fleet(big_world, 6, 6, 3, 1);
    comm::Communicator comm(comm::Topology::with_gpus(big_world),
                            comm::NetworkModel::platform1());
    optim::DistKfacConfig cfg;
    cfg.layout = optim::PrecondLayout::kSharded;
    cfg.assignment = optim::ShardAssignment::kCostBalanced;
    optim::DistKfac kfac(cfg, comm, fleet.ptrs);
    tensor::Rng data_rng(11), sr_rng(12);
    fleet.run_fwd_bwd(data_rng, 4);
    big_step_s = bench::time_once(g_metrics, "bench.scale.big_step", [&] {
      kfac.step(0, 0.01, nullptr, sr_rng);
    });
    big_ok = fleet.replicas_identical();
    big_stats = kfac.shard_stats();
  }
  // Each slot is charged exactly once under the sharded layout, so the
  // replicated (KAISA) per-rank total is the sum over all ranks.
  std::uint64_t replicated_bytes = 0;
  for (const auto b : big_stats.factor_bytes) replicated_bytes += b;
  const bool memory_ok =
      big_stats.peak_factor_bytes > 0 &&
      big_stats.peak_factor_bytes < replicated_bytes;
  std::printf(
      "  %zu-rank sharded step: peak factor bytes %llu / replicated "
      "%llu (%s), replicas %s\n",
      big_world,
      static_cast<unsigned long long>(big_stats.peak_factor_bytes),
      static_cast<unsigned long long>(replicated_bytes),
      memory_ok ? "O(L/P) holds" : "NOT SHARDED", big_ok ? "ok" : "MISMATCH");
  // Wall time differs run to run, so it stays off stdout, which holds
  // only deterministic figures; the JSON records it too.
  std::fprintf(stderr, "  %zu-rank sharded step wall time: %.3fs\n",
               big_world, big_step_s);
  if (!memory_ok || !big_ok) {
    std::fprintf(stderr,
                 "FAIL: large-world sharded step (memory_ok=%d replicas=%d)\n",
                 memory_ok ? 1 : 0, big_ok ? 1 : 0);
    ++failures;
  }

  // --- leg 3: analytic O(L/P) curve on BERT-large -------------------------
  core::PerfConfig pcfg;
  pcfg.model = nn::bert_large_shape();
  pcfg.topo = comm::Topology::with_gpus(256);
  core::PerfSimulator sim(pcfg);
  const std::vector<std::size_t> curve_worlds{4, 8, 16, 32, 64,
                                              256, 1024, 4096};
  std::vector<core::PerfSimulator::PrecondMemory> curve;
  curve.reserve(curve_worlds.size());
  for (const std::size_t w : curve_worlds) {
    curve.push_back(sim.precond_memory(w));
  }
  const bool curve_ok =
      curve[0].sharded_peak_bytes >= 4 * curve[3].sharded_peak_bytes;
  std::printf("  BERT-large per-rank peak factor MiB by world:");
  for (std::size_t i = 0; i < curve_worlds.size(); ++i) {
    std::printf(" %zu:%.0f", curve_worlds[i],
                static_cast<double>(curve[i].sharded_peak_bytes) /
                    (1024.0 * 1024.0));
  }
  std::printf("  (replicated %.0f MiB, linear-shrink gate %s)\n",
              static_cast<double>(curve[0].replicated_bytes) /
                  (1024.0 * 1024.0),
              curve_ok ? "ok" : "FAIL");
  if (!curve_ok) {
    std::fprintf(stderr,
                 "FAIL: sharded peak bytes did not shrink ~linearly "
                 "(peak(4)=%zu < 4x peak(32)=%zu)\n",
                 curve[0].sharded_peak_bytes, curve[3].sharded_peak_bytes);
    ++failures;
  }

  // --- leg 4: modeled collective sweep ------------------------------------
  const auto net = comm::NetworkModel::platform1();
  comm::CollectiveConfig auto_cfg;
  auto_cfg.auto_select = true;
  const std::vector<std::size_t> sweep_worlds{256, 512, 1024, 2048, 4096};
  const std::vector<std::size_t> sweep_bytes{std::size_t{1} << 10,
                                             std::size_t{1} << 15,
                                             std::size_t{1} << 20,
                                             std::size_t{1} << 25};
  struct Bucket {
    std::size_t world, bytes;
    double ring_s, rd_s, hier_s;
    comm::CollectiveAlgo selected;
  };
  std::vector<Bucket> sweep;
  bool hier_ok = true;
  for (const std::size_t w : sweep_worlds) {
    const auto topo = comm::Topology::with_gpus(w);
    for (const std::size_t n : sweep_bytes) {
      Bucket b;
      b.world = w;
      b.bytes = n;
      b.ring_s = comm::allreduce_time(comm::CollectiveAlgo::kRing, topo, net,
                                      w, n);
      b.rd_s = comm::allreduce_time(comm::CollectiveAlgo::kRecursiveDoubling,
                                    topo, net, w, n);
      b.hier_s = comm::allreduce_time(comm::CollectiveAlgo::kHierarchical,
                                      topo, net, w, n);
      b.selected = comm::select_allreduce_algo(auto_cfg, topo, net, w, n);
      if (n >= (std::size_t{1} << 20) && !(b.hier_s < b.ring_s)) {
        hier_ok = false;
      }
      sweep.push_back(b);
    }
  }
  std::printf("  hierarchical vs flat ring at >= 256 ranks, >= 1MB: %s "
              "(e.g. 256 ranks / 1MB: ring %.3fms, hier %.3fms)\n",
              hier_ok ? "hier wins everywhere" : "FAIL",
              sweep[2].ring_s * 1e3, sweep[2].hier_s * 1e3);
  if (!hier_ok) {
    std::fprintf(stderr,
                 "FAIL: hierarchical allreduce did not beat the flat ring on "
                 "some >= 256-rank, >= 1MB bucket\n");
    ++failures;
  }

  // --- Eq. 5 grid priced under selection ----------------------------------
  const auto grid = perf::CommLookupGrid::scale_sweep(net, auto_cfg);
  // And the PerfSimulator's modeled BERT-large iteration at 256 ranks,
  // legacy flat formulas vs auto-selected algorithms.
  core::PerfConfig legacy_cfg = pcfg;
  core::PerfConfig auto_sel_cfg = pcfg;
  auto_sel_cfg.collectives = auto_cfg;
  const auto legacy_b = core::PerfSimulator(legacy_cfg).baseline();
  const auto auto_b = core::PerfSimulator(auto_sel_cfg).baseline();
  const bool select_ok = auto_b.allreduce_s <= legacy_b.allreduce_s * 1.0001;
  std::printf("  BERT-large @256 ranks factor allreduce: legacy %.3fms, "
              "auto-selected %.3fms (%s)\n",
              legacy_b.allreduce_s * 1e3, auto_b.allreduce_s * 1e3,
              select_ok ? "no regression" : "FAIL");
  if (!select_ok) {
    std::fprintf(stderr,
                 "FAIL: algorithm selection made the modeled factor "
                 "allreduce slower than the legacy ring\n");
    ++failures;
  }

  // --- JSON ---------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale_sweep\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"host_concurrency\": %u,\n", host_concurrency);
  std::fprintf(f,
               "  \"sharded_vs_kaisa\": {\"world\": %zu, \"steps\": %zu, "
               "\"bit_identical\": %s},\n",
               id_world, id_steps, identity_ok ? "true" : "false");
  std::fprintf(f,
               "  \"big_world\": {\"world\": %zu, \"step_seconds\": %.6f, "
               "\"peak_factor_bytes\": %llu, \"replicated_bytes\": %llu, "
               "\"replicas_bit_identical\": %s},\n",
               big_world, big_step_s,
               static_cast<unsigned long long>(big_stats.peak_factor_bytes),
               static_cast<unsigned long long>(replicated_bytes),
               big_ok ? "true" : "false");
  std::fprintf(f, "  \"bert_memory_curve\": [");
  for (std::size_t i = 0; i < curve_worlds.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"world\": %zu, \"sharded_peak_bytes\": %zu, "
                 "\"replicated_bytes\": %zu}",
                 i == 0 ? "" : ",", curve_worlds[i],
                 curve[i].sharded_peak_bytes, curve[i].replicated_bytes);
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"collective_sweep\": [");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto& b = sweep[i];
    std::fprintf(f,
                 "%s\n    {\"world\": %zu, \"bytes\": %zu, "
                 "\"ring_s\": %.9f, \"recursive_doubling_s\": %.9f, "
                 "\"hierarchical_s\": %.9f, \"selected\": \"%s\"}",
                 i == 0 ? "" : ",", b.world, b.bytes, b.ring_s, b.rd_s,
                 b.hier_s, algo_name(b.selected));
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"lookup_grid\": [");
  for (std::size_t i = 0; i < grid.worlds().size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"world\": %zu, \"throughput_1mb\": %.3f}",
                 i == 0 ? "" : ",", grid.worlds()[i],
                 grid.throughput(grid.worlds()[i], std::size_t{1} << 20));
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f,
               "  \"selection\": {\"legacy_allreduce_s\": %.9f, "
               "\"auto_allreduce_s\": %.9f},\n",
               legacy_b.allreduce_s, auto_b.allreduce_s);
  std::fprintf(f,
               "  \"gates\": {\"bit_identity\": %s, \"sharded_memory\": %s, "
               "\"linear_shrink\": %s, \"hierarchical_wins\": %s, "
               "\"selection_no_regression\": %s},\n",
               identity_ok ? "true" : "false", memory_ok ? "true" : "false",
               curve_ok ? "true" : "false", hier_ok ? "true" : "false",
               select_ok ? "true" : "false");
  std::fprintf(f, "  \"metrics\": %s\n}\n", g_metrics.to_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  return failures == 0 ? 0 : 1;
}
