// Figure 6 — Convergence comparison of SGD+CocktailSGD, KFAC (no
// compression), KFAC+cuSZ, KFAC+QSGD, KFAC+CocktailSGD, KFAC+COMPSO on
// three proxy workloads (image-classification proxy for ResNet-50, a
// harder detection-style proxy for Mask R-CNN, and an LM-style proxy for
// GPT-neo-125M), plus the Fig. 6b final-metric table.
//
// Paper result (shape): the KFAC optimizer reaches its converged accuracy
// in fewer iterations than SGD (the paper grants SGD 1.5x more); all
// SR-based compressors (QSGD 8-bit, CocktailSGD, COMPSO) track the
// uncompressed KFAC curve; COMPSO switches from aggressive to conservative
// bounds at the LR drop without losing accuracy.

#include "bench/bench_util.hpp"

#include "src/core/ft_trainer.hpp"

namespace {

using namespace compso;

struct Workload {
  const char* name;
  core::TrainerConfig cfg;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    core::TrainerConfig c;
    c.noise = 1.1F; c.classes = 10; c.features = 20; c.hidden = 24;
    c.depth = 2; c.batch_per_rank = 8;
    w.push_back({"ResNet-50 proxy", c});
  }
  {
    core::TrainerConfig c;
    c.noise = 1.2F; c.classes = 12; c.features = 24; c.hidden = 24;
    c.depth = 2; c.batch_per_rank = 8; c.seed = 4321;
    w.push_back({"Mask R-CNN proxy", c});
  }
  {
    core::TrainerConfig c;
    c.noise = 1.0F; c.classes = 16; c.features = 24; c.hidden = 28;
    c.depth = 2; c.batch_per_rank = 8; c.seed = 9876;
    w.push_back({"GPT-neo proxy", c});
  }
  return w;
}

void print_curve(const char* label, const std::vector<double>& evals) {
  std::printf("  %-18s", label);
  for (double a : evals) std::printf(" %5.2f", a);
  std::printf("\n");
}

}  // namespace

int main() {
  bench::print_header("Figure 6: convergence under compression");
  constexpr std::size_t kIters = 100;   // KFAC budget
  constexpr std::size_t kLrDrop = 60;
  struct Row {
    std::string workload;
    double sgd_cocktail, kfac, cusz, qsgd, cocktail, compso;
    double sgd_iteration_ratio;
  };
  std::vector<Row> table;

  for (const auto& w : workloads()) {
    std::printf("\n--- %s (KFAC budget %zu iters, LR drop @%zu) ---\n",
                w.name, kIters, kLrDrop);
    core::FtTrainerConfig kfac_cfg;
    kfac_cfg.base = w.cfg;
    kfac_cfg.base_lr = 0.01;
    kfac_cfg.lr_milestones = {kLrDrop};
    kfac_cfg.total_iterations = kIters;
    kfac_cfg.kfac.damping = 0.1;
    kfac_cfg.kfac.aggregation = 4;  // the paper fixes the aggregation to 4
    kfac_cfg.compress = false;
    core::FtTrainerConfig sgd_cfg = kfac_cfg;
    sgd_cfg.optimizer = core::OptimizerKind::kSgd;
    sgd_cfg.base_lr = 0.05;
    sgd_cfg.lr_milestones = {2 * kLrDrop};
    sgd_cfg.total_iterations = 2 * kIters;

    const auto cusz = compress::make_sz(4e-3);
    const auto qsgd = compress::make_qsgd(8);
    const auto cocktail = compress::make_cocktail(0.2, 8);
    // One compressor for every iteration.
    const auto fixed = [](const core::FtTrainerConfig& cfg,
                          const compress::GradientCompressor* c) {
      return core::train(cfg, [c](std::size_t) { return c; });
    };

    const auto r_kfac = core::train(kfac_cfg);
    // SGD gets a 2x budget; the "iterations to KFAC accuracy" ratio is the
    // paper's KFAC-vs-SGD iteration advantage. CocktailSGD runs with error
    // feedback, as published (a fresh wrapper: no residuals carry over).
    const auto ef_cocktail =
        compress::make_error_feedback(compress::make_cocktail(0.2, 8));
    const auto r_sgd = fixed(sgd_cfg, ef_cocktail.get());
    double ratio = 2.0;
    bool crossed = false;
    for (std::size_t i = 0; i < r_sgd.eval_curve.size(); ++i) {
      if (r_sgd.eval_curve[i] >= r_kfac.final_accuracy) {
        ratio = static_cast<double>((i + 1) * 2 * kIters) /
                static_cast<double>(r_sgd.eval_curve.size()) /
                static_cast<double>(kIters);
        crossed = true;
        break;
      }
    }
    const auto r_cusz = fixed(kfac_cfg, cusz.get());
    const auto r_qsgd = fixed(kfac_cfg, qsgd.get());
    const auto r_cocktail = fixed(kfac_cfg, cocktail.get());
    // COMPSO uses the trainer's iteration-wise adaptive schedule (Alg. 1):
    // aggressive (filter+SR) before the LR drop, conservative after.
    kfac_cfg.compress = true;
    const auto r_compso = core::train(kfac_cfg);

    std::printf("validation accuracy over training (20 eval points):\n");
    print_curve("SGD+CocktailSGD", r_sgd.eval_curve);
    print_curve("KFAC (No Comp.)", r_kfac.eval_curve);
    print_curve("KFAC+cuSZ", r_cusz.eval_curve);
    print_curve("KFAC+QSGD", r_qsgd.eval_curve);
    print_curve("KFAC+CocktailSGD", r_cocktail.eval_curve);
    print_curve("KFAC+COMPSO", r_compso.eval_curve);
    std::printf("  SGD needs %s%.1fx the KFAC iterations to reach KFAC's "
                "final accuracy\n",
                crossed ? "" : ">", ratio);
    std::printf("  KFAC+COMPSO avg CR during training: %.1fx\n",
                r_compso.avg_compression_ratio);

    table.push_back({w.name, 100 * r_sgd.final_accuracy,
                     100 * r_kfac.final_accuracy, 100 * r_cusz.final_accuracy,
                     100 * r_qsgd.final_accuracy,
                     100 * r_cocktail.final_accuracy,
                     100 * r_compso.final_accuracy, ratio});
  }

  bench::print_header("Figure 6b: final validation accuracy (%)");
  std::printf("%-18s | %8s %8s %8s %8s %10s %8s | %9s\n", "workload",
              "SGD+Ckt", "KFAC", "cuSZ", "QSGD", "Cocktail", "COMPSO",
              "SGD iters");
  bench::print_rule();
  for (const auto& r : table) {
    std::printf("%-18s | %8.1f %8.1f %8.1f %8.1f %10.1f %8.1f | %8.1fx\n",
                r.workload.c_str(), r.sgd_cocktail, r.kfac, r.cusz, r.qsgd,
                r.cocktail, r.compso, r.sgd_iteration_ratio);
  }
  std::printf(
      "\nShape checks: SGD needs >1.5x the iterations KFAC needs (paper:\n"
      "1.2-1.5x); KFAC+COMPSO and KFAC+QSGD track KFAC (No Comp.) within\n"
      "noise; KFAC+CocktailSGD trails (random sampling without error\n"
      "feedback in the KFAC path).\n");
  return 0;
}
