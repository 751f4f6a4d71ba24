// Figure 9 — Overall end-to-end training speedup of cuSZ / QSGD /
// CocktailSGD / COMPSO-f (fixed aggregation factor 4) / COMPSO-p
// (performance-model aggregation) over the no-compression KFAC baseline,
// per model, GPU count and platform.
//
// Paper result: COMPSO up to 1.9x (avg ~1.3-1.5x); COMPSO-p > COMPSO-f;
// COMPSO's margin over CocktailSGD grows with GPU count (10% -> 40%).

#include "bench/bench_util.hpp"

#include "src/perf/perf_model.hpp"
#include "src/tensor/synthetic.hpp"

int main() {
  using namespace compso;
  bench::print_header("Figure 9: overall end-to-end speedup");

  const auto cusz = compress::make_sz(4e-3);
  const auto qsgd = compress::make_qsgd(8);
  const auto cocktail = compress::make_cocktail(0.2, 8);
  const auto compso = compress::make_compso({});

  for (int plat = 1; plat <= 2; ++plat) {
    const auto net = plat == 1 ? comm::NetworkModel::platform1()
                               : comm::NetworkModel::platform2();
    std::printf("\n--- Platform %d (%s) ---\n", plat, net.name().c_str());
    std::printf("%-14s %5s | %6s %6s %9s | %9s %9s (agg m)\n", "model",
                "GPUs", "cuSZ", "QSGD", "Cocktail", "COMPSO-f", "COMPSO-p");
    bench::print_rule();
    double best = 0.0, sum_f = 0.0, sum_p = 0.0;
    int n = 0;
    for (const auto& shape : nn::paper_model_shapes()) {
      for (std::size_t gpus : {8, 16, 32, 64}) {
        const auto cfg = bench::perf_config(shape, (gpus + 3) / 4, net);
        const core::PerfSimulator sim(cfg);
        const double s_cusz =
            sim.with_compressor(*cusz, 1).end_to_end_speedup;
        const double s_qsgd =
            sim.with_compressor(*qsgd, 1).end_to_end_speedup;
        const double s_cocktail =
            sim.with_compressor(*cocktail, 1).end_to_end_speedup;
        const double s_f = sim.with_compressor(*compso, 4).end_to_end_speedup;

        // COMPSO-p: pick m via the §4.4 performance model, then realize it.
        const comm::Communicator comm(cfg.topo, cfg.net);
        const perf::CommLookupTable table(comm);
        tensor::Rng rng(31);
        const auto sample = tensor::synthetic_gradient(
            1 << 16, tensor::GradientProfile::kfac(), rng);
        const auto profile = perf::profile_warmup(
            *compso, sample, cfg.dev,
            sim.baseline().allgather_s + sim.baseline().allreduce_s,
            sim.baseline().total_s(), 1, rng);
        const auto decision = perf::choose_aggregation_factor(
            sim.layer_bytes(), profile, *compso, cfg.dev, table);
        const double s_p =
            sim.with_compressor(*compso, decision.factor).end_to_end_speedup;

        std::printf("%-14s %5zu | %6.2f %6.2f %9.2f | %9.2f %9.2f (m=%zu)\n",
                    shape.name.c_str(), gpus, s_cusz, s_qsgd, s_cocktail,
                    s_f, s_p, decision.factor);
        best = std::max(best, s_p);
        sum_f += s_f;
        sum_p += s_p;
        ++n;
      }
    }
    std::printf("COMPSO-f avg %.2fx, COMPSO-p avg %.2fx, best %.2fx\n",
                sum_f / n, sum_p / n, best);
  }
  std::printf(
      "\nShape checks: COMPSO-p >= COMPSO-f >= baselines; COMPSO beats\n"
      "CocktailSGD by a margin that grows with GPU count; best case ~1.7-2x.\n");
  return 0;
}
