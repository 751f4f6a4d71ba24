// Fig. 6-style differential convergence harness for the compressor
// families of DESIGN.md §17: trains the distributed-SGD proxy once per
// family — COMPSO, error-feedback-wrapped COMPSO, top-k with and without
// error feedback, CocktailSGD with and without error feedback, the seeded
// sketches (count-sketch, random projection), and the uncompressed
// identity reference — and emits the per-family loss curves into
// BENCH_convergence.json (EXPERIMENTS.md maps the file onto the paper's
// Fig. 6 panels).
//
//   bench_convergence [--smoke] [output.json]  (default BENCH_convergence.json)
//
// --smoke gates the §17 acceptance claim: at equal compression budget —
// EF-over-top-k and plain top-k keep the identical coordinate count k per
// payload; only the Elias-gamma entropy of which indices survive moves
// the byte counts, bounded here to a 5% band — the error-feedback run
// must reach a lower final loss than the plain run. Also gated: every
// family's curve stays finite.

#include "bench/bench_util.hpp"

#include "src/core/ft_trainer.hpp"

#include <cmath>
#include <string_view>

namespace {

using namespace compso;

struct FamilyRun {
  std::string name;
  core::TrainResult result;
  bool finite = true;
};

core::FtTrainerConfig workload(std::size_t iterations) {
  core::FtTrainerConfig c;
  c.base = {.world = 4,
            .batch_per_rank = 8,
            .features = 20,
            .classes = 10,
            .hidden = 24,
            .depth = 2,
            .noise = 1.1F,
            .seed = 20250808};
  c.optimizer = core::OptimizerKind::kSgd;
  c.base_lr = 0.05;
  c.lr_milestones = {80};
  c.total_iterations = iterations;
  return c;
}

bool all_finite(const std::vector<double>& curve) {
  for (const double v : curve) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Mean loss over the last quarter of the curve — steadier than the single
/// final-iteration loss for the smoke comparison.
double tail_loss(const std::vector<double>& curve) {
  const std::size_t tail = std::max<std::size_t>(1, curve.size() / 4);
  double sum = 0.0;
  for (std::size_t i = curve.size() - tail; i < curve.size(); ++i) {
    sum += curve[i];
  }
  return sum / static_cast<double>(tail);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_convergence.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  bench::print_header(
      "Convergence by compressor family (distributed SGD proxy)");
  constexpr std::size_t kIters = 120;
  constexpr double kKeep = 0.05;     // aggressive top-k: EF has real work.
  constexpr double kSketchRatio = 0.25;
  constexpr std::uint64_t kSeed = 0x5EED;
  const core::FtTrainerConfig cfg = workload(kIters);

  struct Candidate {
    const char* name;
    std::unique_ptr<compress::GradientCompressor> compressor;
  };
  std::vector<Candidate> pool;
  pool.push_back({"Identity", compress::make_identity()});
  pool.push_back({"COMPSO", compress::make_compso({})});
  pool.push_back({"EF+COMPSO",
                  compress::make_error_feedback(compress::make_compso({}))});
  pool.push_back({"TopK", compress::make_topk(kKeep)});
  pool.push_back(
      {"EF+TopK", compress::make_error_feedback(compress::make_topk(kKeep))});
  pool.push_back({"CocktailSGD", compress::make_cocktail(0.2, 8)});
  pool.push_back({"EF+CocktailSGD", compress::make_error_feedback(
                                        compress::make_cocktail(0.2, 8))});
  pool.push_back(
      {"CountSketch", compress::make_count_sketch(kSketchRatio, 3, kSeed)});
  pool.push_back(
      {"RandProj", compress::make_random_projection(kSketchRatio, kSeed)});

  std::vector<FamilyRun> runs;
  std::printf("%-16s | %10s | %10s | %8s\n", "family", "final loss",
              "tail loss", "avg CR");
  bench::print_rule();
  for (const auto& cand : pool) {
    FamilyRun run;
    run.name = cand.name;
    // The EF wrapper is the only error-feedback mechanism: the plain
    // families run without one.
    const auto* compressor = cand.compressor.get();
    run.result = core::train(cfg, [=](std::size_t) { return compressor; });
    run.finite = all_finite(run.result.loss_curve);
    std::printf("%-16s | %10.4f | %10.4f | %7.1fx%s\n", cand.name,
                run.result.final_loss, tail_loss(run.result.loss_curve),
                run.result.avg_compression_ratio, run.finite ? "" : "  NaN!");
    runs.push_back(std::move(run));
  }

  const auto find = [&runs](std::string_view name) -> const FamilyRun& {
    for (const auto& r : runs) {
      if (r.name == name) return r;
    }
    std::abort();  // pool names are fixed above.
  };
  const FamilyRun& plain_topk = find("TopK");
  const FamilyRun& ef_topk = find("EF+TopK");
  const double plain_tail = tail_loss(plain_topk.result.loss_curve);
  const double ef_tail = tail_loss(ef_topk.result.loss_curve);

  std::printf(
      "\nShape checks: error feedback recovers the gradient mass top-k at\n"
      "keep=%.0f%% discards — EF+TopK tail loss %.4f vs plain TopK %.4f at\n"
      "identical wire traffic (CR %.1fx vs %.1fx). The sketches trade\n"
      "per-step variance for unbiasedness and still converge.\n",
      100.0 * kKeep, ef_tail, plain_tail,
      ef_topk.result.avg_compression_ratio,
      plain_topk.result.avg_compression_ratio);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_convergence\",\n");
  std::fprintf(f, "  \"iterations\": %zu,\n", kIters);
  std::fprintf(f, "  \"topk_keep\": %.4f,\n", kKeep);
  std::fprintf(f, "  \"sketch_ratio\": %.4f,\n", kSketchRatio);
  std::fprintf(f, "  \"families\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"final_loss\": %.6f,"
                 " \"tail_loss\": %.6f, \"avg_compression_ratio\": %.4f,"
                 " \"loss_curve\": [",
                 r.name.c_str(), r.result.final_loss,
                 tail_loss(r.result.loss_curve),
                 r.result.avg_compression_ratio);
    for (std::size_t j = 0; j < r.result.loss_curve.size(); ++j) {
      std::fprintf(f, "%s%.6f", j > 0 ? ", " : "", r.result.loss_curve[j]);
    }
    std::fprintf(f, "]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ef_topk_tail_loss\": %.6f,\n", ef_tail);
  std::fprintf(f, "  \"plain_topk_tail_loss\": %.6f\n", plain_tail);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (smoke) {
    for (const auto& r : runs) {
      if (!r.finite || !std::isfinite(r.result.final_loss)) {
        std::fprintf(stderr, "SMOKE FAIL: %s diverged (non-finite loss)\n",
                     r.name.c_str());
        return 1;
      }
    }
    // Equal-budget precondition: both runs keep the identical coordinate
    // count k per payload, so the information budget matches exactly. The
    // wire bytes differ only through the Elias-gamma entropy of *which*
    // indices survive (EF shifts the kept set), so the measured ratios
    // must agree within a tight band rather than bit-exactly.
    const double cr_gap =
        std::abs(ef_topk.result.avg_compression_ratio -
                 plain_topk.result.avg_compression_ratio) /
        plain_topk.result.avg_compression_ratio;
    if (cr_gap > 0.05) {
      std::fprintf(stderr,
                   "SMOKE FAIL: EF+TopK CR %.4f vs plain TopK CR %.4f "
                   "(gap %.1f%% > 5%%)\n",
                   ef_topk.result.avg_compression_ratio,
                   plain_topk.result.avg_compression_ratio, 100.0 * cr_gap);
      return 1;
    }
    // The §17 acceptance gate: error feedback beats plain top-k at equal
    // compression ratio.
    if (!(ef_tail < plain_tail)) {
      std::fprintf(stderr,
                   "SMOKE FAIL: EF+TopK tail loss %.4f !< plain TopK %.4f\n",
                   ef_tail, plain_tail);
      return 1;
    }
    std::printf("smoke OK: EF+TopK %.4f < TopK %.4f at CR %.1fx\n", ef_tail,
                plain_tail, plain_topk.result.avg_compression_ratio);
  }
  return 0;
}
