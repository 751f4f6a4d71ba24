// Blocked math engine vs. naive reference throughput (DESIGN.md §11).
//
// Measures the blocked GEMM/syrk engine against the retained naive
// references, the Householder + QL eigh against the Jacobi oracle (and
// alone at n = 512 and 1024), plus the pool-parallel GEMM path, verifies
// blocked-vs-reference accuracy and blocked-vs-parallel bit-identity,
// times one rank's products, syrks, ReLU and softmax at the trainbench
// workloads' own shapes (serial), prints tables, and writes
// BENCH_math.json (the compute side of the repo's perf trajectory, next
// to BENCH_compress.json). Usage:
//
//   micro_math_throughput [--smoke] [--threads=N] [output.json]
//                                             (default BENCH_math.json)
//
// The parallel gemm leg needs a real pool: the worker count defaults to
// the host's concurrency but is floored at 2 (overridable with
// --threads=N), and the JSON records the requested count, the effective
// pool size, and the host concurrency so a 1-core run is recognizable.
//
// --smoke trims repetitions and the eigh sizes for CI, but keeps the
// 512x512x512 gemm row: the run fails (exit 1) unless the blocked
// single-thread gemm beats the naive reference by the acceptance-criterion
// factor there, and unless the parallel gemm is bit-identical to serial.

#include "bench/bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/nn/layer.hpp"
#include "src/nn/model.hpp"
#include "src/tensor/eigen.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace compso;
namespace ct = compso::tensor;

namespace {

// Sanitizer instrumentation changes the blocked-vs-naive ratio: every
// scalar access is shadow-checked, in the naive loops and in the
// engine's broadcasts alike. The speedup gate only has teeth in an
// uninstrumented build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr double kMinGemm512Speedup = 1.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr double kMinGemm512Speedup = 1.0;
#else
constexpr double kMinGemm512Speedup = 4.0;
#endif
#else
constexpr double kMinGemm512Speedup = 4.0;
#endif

ct::Tensor rand2(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ct::Tensor t({rows, cols});
  ct::Rng rng(seed);
  rng.fill_uniform(t.span(), -1.0F, 1.0F);
  return t;
}

/// All wall timings flow through bench::time_best into this registry; the
/// snapshot is embedded in BENCH_math.json under "metrics".
obs::MetricsRegistry g_metrics;

template <typename Fn>
double time_best(std::string_view name, int reps, Fn&& fn) {
  return bench::time_best(g_metrics, name, reps, static_cast<Fn&&>(fn));
}

bool bitwise_equal(const ct::Tensor& a, const ct::Tensor& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

double max_rel_err(const ct::Tensor& got, const ct::Tensor& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double denom = std::max(1.0, std::fabs(double{want[i]}));
    worst = std::max(worst, std::fabs(double{got[i]} - want[i]) / denom);
  }
  return worst;
}

struct GemmRow {
  std::size_t size;
  double naive_gflops, blocked_gflops, parallel_gflops;
  double max_rel_err;
  bool parallel_bit_identical;
};

struct EighRow {
  std::size_t size;
  double eigh_ms;
  double jacobi_ms;  ///< 0 on the rows too large to run the oracle.
};

/// One kernel call at a trainbench workload's shape. Products are
/// C (m x n) over k; a syrk has n = m = d and k rows; ReLU and softmax
/// cover an m x n tensor (k = 0).
struct StepRow {
  const char* group;
  const char* op;
  std::size_t m, n, k;
  double us = 0.0;  ///< best-of-reps mean over `inner` calls.
};

/// One rank's serial step work on kfac_compso (32->192->192->32, batch
/// 256, factors 33-193) and kfac_scaleout (64-wide layers, batch 32: its
/// products, the syrks of its 33-, 65-, 32- and 64-wide factors and one
/// 64-wide layer's four precondition products).
std::vector<StepRow> step_rows() {
  return {
      {"kfac_compso.fwd_bwd", "gemm_nt", 256, 192, 32},
      {"kfac_compso.fwd_bwd", "gemm_nt", 256, 192, 192},
      {"kfac_compso.fwd_bwd", "gemm_nt", 256, 32, 192},
      {"kfac_compso.fwd_bwd", "gemm_tn", 192, 32, 256},
      {"kfac_compso.fwd_bwd", "gemm_tn", 192, 192, 256},
      {"kfac_compso.fwd_bwd", "gemm_tn", 32, 192, 256},
      {"kfac_compso.fwd_bwd", "gemm", 256, 32, 192},
      {"kfac_compso.fwd_bwd", "gemm", 256, 192, 192},
      {"kfac_compso.fwd_bwd", "gemm", 256, 192, 32},
      {"kfac_compso.precond", "gemm_tn", 192, 193, 192},
      {"kfac_compso.precond", "gemm", 192, 193, 193},
      {"kfac_compso.precond", "gemm", 192, 193, 192},
      {"kfac_compso.precond", "gemm_nt", 192, 193, 193},
      {"kfac_compso.syrk", "syrk_tn_packed", 33, 33, 256},
      {"kfac_compso.syrk", "syrk_tn_packed", 192, 192, 256},
      {"kfac_compso.syrk", "syrk_tn_packed", 193, 193, 256},
      {"kfac_compso.syrk", "syrk_tn_packed", 192, 192, 256},
      {"kfac_compso.syrk", "syrk_tn_packed", 193, 193, 256},
      {"kfac_compso.syrk", "syrk_tn_packed", 32, 32, 256},
      {"kfac_scaleout.fwd_bwd", "gemm_nt", 32, 64, 64},
      {"kfac_scaleout.fwd_bwd", "gemm_tn", 64, 64, 32},
      {"kfac_scaleout.fwd_bwd", "gemm", 32, 64, 64},
      {"kfac_scaleout.syrk", "syrk_tn_packed", 65, 65, 32},
      {"kfac_scaleout.syrk", "syrk_tn_packed", 64, 64, 32},
      {"kfac_scaleout.syrk", "syrk_tn_packed", 33, 33, 32},
      {"kfac_scaleout.syrk", "syrk_tn_packed", 32, 32, 32},
      {"kfac_scaleout.precond", "gemm_tn", 64, 65, 64},
      {"kfac_scaleout.precond", "gemm", 64, 65, 65},
      {"kfac_scaleout.precond", "gemm", 64, 65, 64},
      {"kfac_scaleout.precond", "gemm_nt", 64, 65, 65},
      {"kfac_compso.layers", "relu_forward", 256, 192, 0},
      {"kfac_compso.layers", "softmax_cross_entropy", 256, 32, 0},
  };
}

/// Times every step row: best of `reps` timings of `inner` calls each.
void time_step_rows(std::vector<StepRow>& rows, int reps, int inner) {
  std::uint64_t seed = 5000;
  for (StepRow& r : rows) {
    const std::string op = r.op;
    const std::string name = std::string("bench.step.") + r.group + "." +
                             op + "." + std::to_string(r.m) + "x" +
                             std::to_string(r.n) + "x" + std::to_string(r.k);
    std::function<void()> call;
    ct::Tensor a, b, c;
    std::vector<float> packed;
    nn::Relu relu;
    std::vector<int> labels;
    if (op == "gemm") {
      a = rand2(r.m, r.k, seed++);
      b = rand2(r.k, r.n, seed++);
      call = [&] { ct::gemm(a, b, c); };
    } else if (op == "gemm_tn") {
      a = rand2(r.k, r.m, seed++);
      b = rand2(r.k, r.n, seed++);
      call = [&] { ct::gemm_tn(a, b, c); };
    } else if (op == "gemm_nt") {
      a = rand2(r.m, r.k, seed++);
      b = rand2(r.n, r.k, seed++);
      call = [&] { ct::gemm_nt(a, b, c); };
    } else if (op == "syrk_tn_packed") {
      a = rand2(r.k, r.m, seed++);
      packed.resize(ct::packed_size(r.m));
      call = [&] { ct::syrk_tn_packed(a, 1.0F / 256.0F, packed); };
    } else if (op == "relu_forward") {
      a = rand2(r.m, r.n, seed++);  // half the signs negative.
      call = [&] { c = relu.forward(a); };
    } else {
      a = rand2(r.m, r.n, seed++);
      for (std::size_t i = 0; i < r.m; ++i) {
        labels.push_back(static_cast<int>((i * 7) % r.n));
      }
      call = [&] { (void)nn::softmax_cross_entropy(a, labels, c); };
    }
    call();  // warm the scratch buffers.
    r.us = 1e6 / inner * time_best(name, reps, [&] {
             for (int i = 0; i < inner; ++i) call();
           });
  }
}

/// Sum of the step rows' times whose group starts with `prefix`.
double step_total_us(const std::vector<StepRow>& rows,
                     std::string_view prefix) {
  double total = 0.0;
  for (const StepRow& r : rows) {
    if (std::string_view(r.group).starts_with(prefix)) total += r.us;
  }
  return total;
}

}  // namespace

int usage(const char* argv0, const char* bad) {
  std::fprintf(stderr, "unknown argument: %s\n", bad);
  std::fprintf(stderr, "usage: %s [--smoke] [--threads=N] [output.json]\n",
               argv0);
  return 1;
}

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t requested_threads = 0;  // 0 = host default.
  std::string out_path = "BENCH_math.json";
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--threads=", 0) == 0 && arg.size() > 10) {
      const std::string_view digits = arg.substr(10);
      std::size_t value = 0;
      bool ok = true;
      for (const char c : digits) {
        if (c < '0' || c > '9') {
          ok = false;
          break;
        }
        value = value * 10 + static_cast<std::size_t>(c - '0');
      }
      if (!ok || value == 0) return usage(argv[0], argv[i]);
      requested_threads = value;
    } else if (!arg.empty() && arg[0] != '-' && !have_out) {
      out_path = arg;
      have_out = true;
    } else {
      return usage(argv[0], argv[i]);
    }
  }

  const int reps = smoke ? 2 : 5;
  const std::vector<std::size_t> gemm_sizes =
      smoke ? std::vector<std::size_t>{512}
            : std::vector<std::size_t>{128, 256, 512};
  const std::vector<std::size_t> eigh_sizes =
      smoke ? std::vector<std::size_t>{96}
            : std::vector<std::size_t>{64, 96, 192, 256, 512, 1024};
  constexpr std::size_t kMaxJacobiSize = 256;

  const unsigned host_concurrency = std::thread::hardware_concurrency();
  if (requested_threads == 0) {
    requested_threads = std::max(1U, host_concurrency);
  }
  if (host_concurrency <= 1) {
    std::fprintf(stderr,
                 "WARNING: host reports %u hardware thread(s); the parallel "
                 "gemm leg timeshares one core and measures scheduler noise, "
                 "not scaling.\n",
                 host_concurrency);
  }
  // Floor at 2 so the "parallel" rows exercise an actual pool even on a
  // 1-core host (where the old hardware-concurrency default quietly ran
  // a 1-thread pool and reported a meaningless comparison).
  common::ThreadPool pool(std::max<std::size_t>(2, requested_threads));
  const std::size_t threads = pool.size();

  // --- gemm: naive reference vs blocked vs pool-parallel blocked ---
  std::printf("gemm (square, single precision)\n");
  std::printf("%6s | %12s %12s %12s | %9s | %s\n", "size", "naive GF/s",
              "blocked GF/s", "parallel GF/s", "speedup", "parallel bits");
  std::vector<GemmRow> gemm_rows;
  bool all_identical = true;
  double gemm512_speedup = 0.0;
  for (std::size_t n : gemm_sizes) {
    const auto a = rand2(n, n, 1000 + n);
    const auto b = rand2(n, n, 2000 + n);
    const double flops = 2.0 * static_cast<double>(n) * n * n;

    ct::Tensor c_ref, c_blk, c_par;
    const std::string stem = "bench.gemm" + std::to_string(n);
    const double t_naive =
        time_best(stem + ".naive", reps, [&] { ct::gemm_reference(a, b, c_ref); });
    const double t_blocked =
        time_best(stem + ".blocked", reps, [&] { ct::gemm(a, b, c_blk); });
    double t_parallel;
    {
      ct::MathPoolGuard guard(&pool);
      t_parallel =
          time_best(stem + ".parallel", reps, [&] { ct::gemm(a, b, c_par); });
    }

    GemmRow row;
    row.size = n;
    row.naive_gflops = flops / t_naive / 1e9;
    row.blocked_gflops = flops / t_blocked / 1e9;
    row.parallel_gflops = flops / t_parallel / 1e9;
    row.max_rel_err = max_rel_err(c_blk, c_ref);
    row.parallel_bit_identical = bitwise_equal(c_par, c_blk);
    gemm_rows.push_back(row);
    all_identical = all_identical && row.parallel_bit_identical;
    if (n == 512) gemm512_speedup = t_naive / t_blocked;

    std::printf("%6zu | %12.2f %12.2f %12.2f | %8.2fx | %s\n", n,
                row.naive_gflops, row.blocked_gflops, row.parallel_gflops,
                row.blocked_gflops / row.naive_gflops,
                row.parallel_bit_identical ? "identical" : "MISMATCH");
  }
  std::printf("  blocked vs naive at 512^3: %.2fx (gate %.1fx)\n",
              gemm512_speedup, kMinGemm512Speedup);

  // --- syrk_tn: the KFAC covariance kernel ---
  const std::size_t syrk_n = smoke ? 192 : 256, syrk_d = 512;
  const auto sa = rand2(syrk_n, syrk_d, 3003);
  ct::Tensor s_ref, s_blk;
  const double syrk_flops =
      static_cast<double>(syrk_n) * syrk_d * (syrk_d + 1);
  const double syrk_t_naive = time_best(
      "bench.syrk.naive", reps, [&] { ct::syrk_tn_reference(sa, 0.5F, 0.0F, s_ref); });
  const double syrk_t_blocked =
      time_best("bench.syrk.blocked", reps, [&] { ct::syrk_tn(sa, 0.5F, 0.0F, s_blk); });
  const double syrk_err = max_rel_err(s_blk, s_ref);
  std::printf("\nsyrk_tn (A %zux%zu)\n", syrk_n, syrk_d);
  std::printf("  naive %.2f GF/s, blocked %.2f GF/s, speedup %.2fx\n",
              syrk_flops / syrk_t_naive / 1e9,
              syrk_flops / syrk_t_blocked / 1e9,
              syrk_t_naive / syrk_t_blocked);

  // --- eigh: Householder + implicit QL vs the Jacobi oracle ---
  std::printf("\neigh (symmetric, double precision)\n");
  std::printf("%6s | %10s %10s | %s\n", "size", "jacobi ms", "eigh ms",
              "speedup");
  std::vector<EighRow> eigh_rows;
  for (std::size_t n : eigh_sizes) {
    ct::Tensor m = rand2(n, n, 4000 + n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const float avg = 0.5F * (m.at(i, j) + m.at(j, i));
        m.at(i, j) = m.at(j, i) = avg;
      }
    }
    EighRow row{n, 0.0, 0.0};
    const std::string stem = "bench.eigh" + std::to_string(n);
    row.eigh_ms =
        1e3 * time_best(stem + ".ql", reps, [&] { (void)ct::eigh(m); });
    if (n <= kMaxJacobiSize) {
      row.jacobi_ms = 1e3 * time_best(stem + ".jacobi", reps,
                                      [&] { (void)ct::eigh_jacobi(m); });
      std::printf("%6zu | %10.2f %10.2f | %6.2fx\n", n, row.jacobi_ms,
                  row.eigh_ms, row.jacobi_ms / row.eigh_ms);
    } else {
      std::printf("%6zu | %10s %10.2f |\n", n, "-", row.eigh_ms);
    }
    eigh_rows.push_back(row);
  }

  // --- one rank's serial step work at the trainbench workloads' shapes ---
  std::vector<StepRow> steps = step_rows();
  const int step_inner = smoke ? 1 : 20;
  time_step_rows(steps, reps, step_inner);
  std::printf("\nstep shapes (one rank, serial; us per call)\n");
  std::printf("%-22s %-22s %16s | %9s | %s\n", "group", "op", "m x n x k",
              "us", "GF/s");
  for (const StepRow& r : steps) {
    const std::string shape = std::to_string(r.m) + "x" +
                              std::to_string(r.n) + "x" + std::to_string(r.k);
    const bool syrk = std::string_view(r.op) == "syrk_tn_packed";
    const double flops = syrk ? static_cast<double>(r.k) * r.m * (r.m + 1)
                              : 2.0 * static_cast<double>(r.m) * r.n * r.k;
    std::printf("%-22s %-22s %16s | %9.1f |", r.group, r.op, shape.c_str(),
                r.us);
    if (flops > 0.0) std::printf(" %6.1f", flops / r.us / 1e3);
    std::printf("\n");
  }
  const double compso_products_us =
      step_total_us(steps, "kfac_compso.fwd_bwd") +
      step_total_us(steps, "kfac_compso.precond");
  const double compso_syrks_us = step_total_us(steps, "kfac_compso.syrk");
  std::printf("  kfac_compso products (9 fwd/bwd + 4 precondition) %.1f us, "
              "syrks %.1f us\n",
              compso_products_us, compso_syrks_us);

  // --- JSON ---
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_math_throughput\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"host_concurrency\": %u,\n", host_concurrency);
  std::fprintf(f, "  \"requested_threads\": %zu,\n", requested_threads);
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"gemm\": [\n");
  for (std::size_t i = 0; i < gemm_rows.size(); ++i) {
    const GemmRow& r = gemm_rows[i];
    std::fprintf(
        f,
        "    {\"size\": %zu, \"naive_gflops\": %.3f, \"blocked_gflops\":"
        " %.3f, \"parallel_gflops\": %.3f, \"speedup\": %.3f,\n"
        "     \"max_rel_err\": %.3e, \"parallel_bit_identical\": %s}%s\n",
        r.size, r.naive_gflops, r.blocked_gflops, r.parallel_gflops,
        r.blocked_gflops / r.naive_gflops, r.max_rel_err,
        r.parallel_bit_identical ? "true" : "false",
        i + 1 < gemm_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"syrk_tn\": {\"n\": %zu, \"d\": %zu, \"naive_gflops\": %.3f,"
      " \"blocked_gflops\": %.3f, \"speedup\": %.3f, \"max_rel_err\":"
      " %.3e},\n",
      syrk_n, syrk_d, syrk_flops / syrk_t_naive / 1e9,
      syrk_flops / syrk_t_blocked / 1e9, syrk_t_naive / syrk_t_blocked,
      syrk_err);
  std::fprintf(f, "  \"eigh\": [\n");
  for (std::size_t i = 0; i < eigh_rows.size(); ++i) {
    const EighRow& r = eigh_rows[i];
    std::fprintf(f, "    {\"size\": %zu, \"eigh_ms\": %.3f", r.size,
                 r.eigh_ms);
    if (r.jacobi_ms > 0.0) {
      std::fprintf(f, ", \"jacobi_ms\": %.3f, \"speedup\": %.3f",
                   r.jacobi_ms, r.jacobi_ms / r.eigh_ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < eigh_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"step_shapes\": {\"inner\": %d, \"rows\": [\n",
               step_inner);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepRow& r = steps[i];
    std::fprintf(f,
                 "    {\"group\": \"%s\", \"op\": \"%s\", \"m\": %zu, "
                 "\"n\": %zu, \"k\": %zu, \"us\": %.2f}%s\n",
                 r.group, r.op, r.m, r.n, r.k, r.us,
                 i + 1 < steps.size() ? "," : "");
  }
  std::fprintf(f,
               "  ], \"kfac_compso_products_us\": %.2f, "
               "\"kfac_compso_syrks_us\": %.2f},\n",
               compso_products_us, compso_syrks_us);
  std::fprintf(f, "  \"gemm512_speedup\": %.3f, \"gemm512_speedup_gate\":"
                  " %.1f,\n",
               gemm512_speedup, kMinGemm512Speedup);
  std::fprintf(f, "  \"metrics\": %s\n}\n", g_metrics.to_json().c_str());
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // --- self-checks (the bench doubles as a ctest perf gate) ---
  int failures = 0;
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel gemm not bit-identical to serial\n");
    ++failures;
  }
  for (const GemmRow& r : gemm_rows) {
    if (!(r.max_rel_err < 1e-3)) {
      std::fprintf(stderr, "FAIL: blocked gemm rel err %.3e at %zu\n",
                   r.max_rel_err, r.size);
      ++failures;
    }
  }
  if (!(syrk_err < 1e-3)) {
    std::fprintf(stderr, "FAIL: blocked syrk rel err %.3e\n", syrk_err);
    ++failures;
  }
  if (gemm512_speedup < kMinGemm512Speedup) {
    std::fprintf(stderr,
                 "FAIL: blocked gemm %.2fx naive at 512^3 (gate %.1fx)\n",
                 gemm512_speedup, kMinGemm512Speedup);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
