// End-to-end DistKfac training throughput (steps/s) on the host substrate.
//
// Runs the FaultTolerantTrainer (KFAC + COMPSO compression, the paper's
// full per-step pipeline: forward/backward gemms, factor syrks, factor
// exchange, eigendecomposition refresh, preconditioning, compressed
// gather) without a pool and with the trainer's shared thread pool
// (StepGraph tasks + math-kernel row blocks, DESIGN.md §11), verifies the two
// parameter trajectories are bit-identical, prints steps/s, and writes
// BENCH_train.json — the host-side counterpart of the paper's §5.4
// training-hours table (see EXPERIMENTS.md). The two trainers are timed
// in 5 interleaved windows of the same length and each side keeps its
// best window, so a burst of host load hits both sides instead of
// deciding the speedup. It also records the config's communication per
// step (simulated comm time, allreduce bytes, collective calls) from a
// serial trainer's simulated clocks and obs counters.
//
// With --trace[=path] it runs the observability smoke gate (DESIGN.md
// §12) instead: a serial run with metrics + tracer attached, whose
// trace.json export is schema-validated in-process and must hold one
// wall-clock execution span per StepGraph compute task of the timed
// steps, whose parameter trajectory must stay bit-identical to the
// uninstrumented run, and whose wall time must stay within the overhead
// budget of the obs-off baseline (5 interleaved windows per side, best
// window each, as the speedup is timed; budget relaxed in sanitized
// builds). Each wall-clock ratio is enforced by exactly one ctest entry:
// with --trace the overhead budget, without it the parallel speedup
// below.
//
// The parallel run needs a real pool to say anything about overlap: the
// engine thread count defaults to the host's concurrency but is floored
// at 2, and can be pinned with --threads=N. The JSON records both the
// requested and effective counts plus the host concurrency, and the
// speedup gate (>= 1.5x) is only enforced on unsanitized hosts with at
// least 4 cores — a 1-core host timesharing a 2-thread pool measures
// scheduler noise, not overlap, and says so on stderr. Usage:
//
//   micro_train_throughput [--smoke] [--trace[=trace.json]] [--threads=N]
//                          [output.json]

#include "bench/bench_util.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace compso;

namespace {

// Sanitizer instrumentation inflates the relative cost of the obs layer's
// atomics and event bookkeeping (every access pays shadow checks); the 5%
// overhead budget only has teeth in an uninstrumented build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif
constexpr double kMaxObsOverhead = kSanitizedBuild ? 2.0 : 1.05;

/// Overlap gate (ISSUE 6): with a real multi-thread pool the scheduler's
/// compute/communication overlap must buy at least this much end-to-end
/// speedup. Only meaningful when the host can actually run the pool
/// concurrently, so the gate is enforced on >= 4-core unsanitized hosts.
constexpr double kMinParallelSpeedup = 1.5;
constexpr unsigned kMinGateCores = 4;
/// Interleaved timing windows per side of each wall-clock comparison.
constexpr int kTimingWindows = 5;

/// All wall timings flow through bench::time_* into this registry; the
/// snapshot is embedded in the output JSON under "metrics".
obs::MetricsRegistry g_metrics;

core::FtTrainerConfig bench_config(bool smoke, std::size_t engine_threads) {
  core::FtTrainerConfig cfg;
  // Batch/hidden sized so the forward/backward gemms and the KFAC factor
  // work land in the blocked engine (and, with a pool, its parallel
  // row-block path) rather than the small-op reference fallback.
  cfg.base = {.world = 2,
              .batch_per_rank = 128,
              .features = 64,
              .classes = 8,
              .hidden = smoke ? 128UL : 192UL,
              .depth = 2,
              .noise = 0.5F,
              .seed = 20260806};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 4;
  cfg.kfac.aggregation = 2;
  cfg.base_lr = 0.02;
  cfg.total_iterations = 64;
  cfg.engine_threads = engine_threads;
  return cfg;
}

struct Run {
  double steps_per_s = 0.0;
  std::vector<float> params;
};

/// Serial engine vs `threads`-worker pool: both trainers run
/// kTimingWindows interleaved windows of `steps` steps, and each side's
/// steps/s comes from its best window. Every window starts on the same
/// step of the refresh cycle on both sides. The math-pool guard keeps
/// the serial trainer's top-level gemms off the pooled trainer's pool.
std::pair<Run, Run> run_speedup(bool smoke, std::size_t threads,
                                std::size_t steps) {
  core::FaultTolerantTrainer serial(bench_config(smoke, 0));
  core::FaultTolerantTrainer pooled(bench_config(smoke, threads));
  const auto window = [&](core::FaultTolerantTrainer& trainer,
                          std::string_view name) {
    tensor::MathPoolGuard guard(trainer.pool());
    return bench::time_once(g_metrics, name, [&] { trainer.run(steps); });
  };
  serial.run(1);  // warmup: allocations, factor init, first eigh.
  pooled.run(1);
  double best_serial = 1e100;
  double best_pooled = 1e100;
  for (int w = 0; w < kTimingWindows; ++w) {
    best_serial = std::min(best_serial, window(serial, "bench.train.serial"));
    best_pooled = std::min(best_pooled, window(pooled, "bench.train.parallel"));
  }
  const auto steps_d = static_cast<double>(steps);
  return {Run{steps_d / best_serial, serial.parameters()},
          Run{steps_d / best_pooled, pooled.parameters()}};
}

/// Faulted-throughput leg (DESIGN.md §14): the same serial pipeline under
/// a scripted membership storm — a heartbeat silence, a deadline-blowing
/// straggler, and (when the timed window is long enough) a full
/// crash -> evict -> recover -> rejoin cycle with its checkpoint-framed
/// re-sync. recovery_overhead = clean steps/s / faulted steps/s in wall
/// time; the deadline waits themselves land on the *simulated* clocks, so
/// the wall-time ratio isolates the detection + resync machinery.
Run run_faulted(bool smoke, std::size_t steps) {
  core::FaultTolerantTrainer trainer(bench_config(smoke, 0));
  auto plan = comm::FaultPlan{}.silence(1, 1, 1).straggler(2, 1, 10.0);
  if (steps >= 12) plan.crash(3, 1).recover(9, 1);
  trainer.set_fault_plan(plan, 40);
  trainer.run(1);  // warmup, same as the clean legs.
  const double secs = bench::time_once(g_metrics, "bench.train.faulted",
                                       [&] { trainer.run(steps); });
  Run r;
  r.steps_per_s = static_cast<double>(steps) / secs;
  r.params = trainer.parameters();
  return r;
}

/// The config's communication per step, from a serial trainer's
/// simulated clocks and obs counters over `steps` steps after the warmup
/// step: simulated comm time, allreduce bytes (reduces ride that row),
/// and collective calls — allreduces, reduces and allgather rounds.
/// Deterministic: a pure function of the config.
struct CommPerStep {
  double sim_comm_ms = 0.0;
  double allreduce_bytes = 0.0;
  double collective_calls = 0.0;
};

CommPerStep run_comm(bool smoke, std::size_t steps) {
  core::FaultTolerantTrainer trainer(bench_config(smoke, 0));
  trainer.run(1);  // warmup, same as the timed legs.
  obs::MetricsRegistry registry;
  trainer.set_obs({.metrics = &registry});
  const comm::CommStats before = trainer.comm().stats();
  trainer.run(steps);
  trainer.set_obs({});
  const comm::CommStats after = trainer.comm().stats();
  const auto n = static_cast<double>(steps);
  return {
      (after.total_s() - before.total_s()) * 1e3 / n,
      static_cast<double>(after.allreduce_bytes - before.allreduce_bytes) / n,
      static_cast<double>(registry.counter("comm.allreduce.calls") +
                          registry.counter("comm.allgather.calls")) /
          n};
}

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

struct ObsGate {
  bool params_identical = false;
  bool trace_valid = false;
  bool metrics_valid = false;
  double overhead = 0.0;  ///< obs-on wall time / obs-off wall time.
  std::size_t trace_events = 0;
  std::uint64_t exec_spans = 0;     ///< "sched.exec" spans in the trace.
  std::uint64_t compute_tasks = 0;  ///< sched.compute_tasks, timed steps.
  std::string error;
};

/// Observability smoke gate: obs-off vs obs-on serial runs timed in
/// kTimingWindows interleaved windows (best window per side), bit-exact
/// parameter check, and in-process schema validation of the exported
/// trace + metrics documents.
ObsGate run_obs_gate(bool smoke, std::size_t steps,
                     const std::string& trace_path) {
  core::FaultTolerantTrainer off(bench_config(smoke, 0));
  core::FaultTolerantTrainer on(bench_config(smoke, 0));

  obs::MetricsRegistry registry;
  obs::Tracer tracer;  // built-in steady clock: real wall timestamps.
  on.set_obs({.metrics = &registry, .tracer = &tracer});

  off.run(1);
  on.run(1);
  tracer.reset();  // trace covers the timed steps only.
  const std::uint64_t tasks_before = registry.counter("sched.compute_tasks");

  double best_off = 1e100;
  double best_on = 1e100;
  // Interleaved, so a burst of host load hits both sides.
  for (int w = 0; w < kTimingWindows; ++w) {
    best_off = std::min(best_off, bench::time_once(g_metrics,
                                                   "bench.train.obs_off",
                                                   [&] { off.run(steps); }));
    best_on = std::min(best_on, bench::time_once(g_metrics,
                                                 "bench.train.obs_on",
                                                 [&] { on.run(steps); }));
  }

  ObsGate gate;
  gate.overhead = best_on / best_off;
  gate.params_identical = bitwise_equal(off.parameters(), on.parameters());

  const std::string trace = tracer.trace_json();
  gate.trace_events = tracer.event_count();
  gate.compute_tasks = registry.counter("sched.compute_tasks") - tasks_before;
  for (const auto& e : tracer.events()) {
    if (e.cat == "sched.exec") ++gate.exec_spans;
  }
  if (const auto err = obs::validate_trace(trace)) {
    gate.error = *err;
  } else if (gate.exec_spans != gate.compute_tasks) {
    gate.error = "trace holds " + std::to_string(gate.exec_spans) +
                 " compute-task execution spans for " +
                 std::to_string(gate.compute_tasks) + " compute tasks";
  } else {
    gate.trace_valid = true;
  }
  gate.metrics_valid = obs::parse_json(registry.to_json()).has_value();
  if (!gate.metrics_valid && gate.error.empty()) {
    gate.error = "metrics snapshot is not valid JSON";
  }

  std::FILE* tf = std::fopen(trace_path.c_str(), "w");
  if (tf == nullptr) {
    gate.trace_valid = false;
    gate.error = "cannot open " + trace_path;
    return gate;
  }
  std::fwrite(trace.data(), 1, trace.size(), tf);
  std::fclose(tf);
  return gate;
}

/// The default mode: serial vs pooled throughput with the speedup gate,
/// the faulted leg and the per-step communication. Prints its lines,
/// writes its JSON fields to `f`, and returns its failure count.
int run_throughput_mode(bool smoke, std::size_t steps,
                        std::size_t requested_threads,
                        unsigned host_concurrency, std::FILE* f) {
  if (requested_threads == 0) {
    requested_threads = std::max(1U, host_concurrency);
  }
  // The parallel leg needs an actual pool — a 1-thread "pool" only
  // measures queueing overhead and reports a meaningless speedup.
  const std::size_t threads = std::max<std::size_t>(2, requested_threads);
  const bool gate_enforced =
      !kSanitizedBuild && host_concurrency >= kMinGateCores;
  if (host_concurrency <= 1) {
    std::fprintf(stderr,
                 "WARNING: host reports %u hardware thread(s); the %zu-thread "
                 "pool timeshares one core, so parallel_speedup measures "
                 "scheduler noise, not overlap. Speedup gate skipped.\n",
                 host_concurrency, threads);
  }

  const auto [serial, parallel] = run_speedup(smoke, threads, steps);
  const bool identical = bitwise_equal(serial.params, parallel.params);
  const Run faulted = run_faulted(smoke, steps);
  const double recovery_overhead = serial.steps_per_s / faulted.steps_per_s;
  const CommPerStep comm_step = run_comm(smoke, steps);
  const double speedup = parallel.steps_per_s / serial.steps_per_s;

  std::printf("  serial engine      : %7.3f steps/s\n", serial.steps_per_s);
  std::printf("  %zu-thread shared pool: %7.3f steps/s  (%.2fx, gate %.2fx "
              "%s)\n",
              threads, parallel.steps_per_s, speedup, kMinParallelSpeedup,
              gate_enforced ? "enforced" : "skipped");
  std::printf("  parameters: %s\n",
              identical ? "bit-identical" : "MISMATCH");
  std::printf("  faulted (membership storm): %7.3f steps/s  "
              "(recovery overhead %.3fx)\n",
              faulted.steps_per_s, recovery_overhead);
  std::printf("  per step: %.6f ms simulated comm, %.0f allreduce bytes, "
              "%.2f collective calls\n",
              comm_step.sim_comm_ms, comm_step.allreduce_bytes,
              comm_step.collective_calls);

  std::fprintf(f, "  \"serial_steps_per_s\": %.4f,\n", serial.steps_per_s);
  std::fprintf(f, "  \"requested_threads\": %zu,\n", requested_threads);
  std::fprintf(f, "  \"pool_threads\": %zu,\n", threads);
  std::fprintf(f, "  \"parallel_steps_per_s\": %.4f,\n",
               parallel.steps_per_s);
  std::fprintf(f, "  \"parallel_speedup\": %.4f,\n", speedup);
  std::fprintf(f,
               "  \"recovery_overhead\": {\"clean_steps_per_s\": %.4f,"
               " \"faulted_steps_per_s\": %.4f, \"ratio\": %.4f},\n",
               serial.steps_per_s, faulted.steps_per_s, recovery_overhead);
  std::fprintf(f,
               "  \"comm_per_step\": {\"sim_comm_ms\": %.6f,"
               " \"allreduce_bytes\": %.0f, \"collective_calls\": %.2f},\n",
               comm_step.sim_comm_ms, comm_step.allreduce_bytes,
               comm_step.collective_calls);
  std::fprintf(f, "  \"speedup_gate\": %.2f,\n", kMinParallelSpeedup);
  std::fprintf(f, "  \"speedup_gate_enforced\": %s,\n",
               gate_enforced ? "true" : "false");
  std::fprintf(f, "  \"parameters_bit_identical\": %s,\n",
               identical ? "true" : "false");

  int failures = 0;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: parallel trajectory diverged from serial transcript\n");
    ++failures;
  }
  if (gate_enforced && !(speedup >= kMinParallelSpeedup)) {
    std::fprintf(stderr,
                 "FAIL: parallel_speedup %.3fx below %.2fx gate "
                 "(host_concurrency=%u, pool_threads=%zu)\n",
                 speedup, kMinParallelSpeedup, host_concurrency, threads);
    ++failures;
  }
  return failures;
}

/// The --trace mode: the observability gate alone. Prints its line,
/// writes its JSON field to `f`, and returns its failure count.
int run_obs_mode(bool smoke, std::size_t steps, const std::string& trace_path,
                 std::FILE* f) {
  const ObsGate gate = run_obs_gate(smoke, steps, trace_path);
  std::printf("  obs gate: overhead %.3fx (budget %.2fx), %zu trace "
              "events (%llu task execution spans), trace %s, params %s\n",
              gate.overhead, kMaxObsOverhead, gate.trace_events,
              static_cast<unsigned long long>(gate.exec_spans),
              gate.trace_valid ? "valid" : "INVALID",
              gate.params_identical ? "bit-identical" : "MISMATCH");
  if (gate.trace_valid) std::printf("  wrote %s\n", trace_path.c_str());
  std::fprintf(f,
               "  \"obs\": {\"overhead\": %.4f, \"overhead_budget\": %.2f,"
               " \"timing_windows\": %d, \"trace_events\": %zu,"
               " \"task_exec_spans\": %llu, \"compute_tasks\": %llu,"
               " \"trace_valid\": %s, \"params_bit_identical\": %s},\n",
               gate.overhead, kMaxObsOverhead, kTimingWindows,
               gate.trace_events,
               static_cast<unsigned long long>(gate.exec_spans),
               static_cast<unsigned long long>(gate.compute_tasks),
               gate.trace_valid ? "true" : "false",
               gate.params_identical ? "true" : "false");

  int failures = 0;
  if (!gate.params_identical) {
    std::fprintf(stderr,
                 "FAIL: attaching observability changed the parameter "
                 "trajectory\n");
    ++failures;
  }
  if (!gate.trace_valid || !gate.metrics_valid) {
    std::fprintf(stderr, "FAIL: exported documents invalid: %s\n",
                 gate.error.c_str());
    ++failures;
  }
  if (!(gate.overhead <= kMaxObsOverhead)) {
    std::fprintf(stderr, "FAIL: obs overhead %.3fx exceeds %.2fx budget\n",
                 gate.overhead, kMaxObsOverhead);
    ++failures;
  }
  return failures;
}

}  // namespace

int usage(const char* argv0, const char* bad) {
  std::fprintf(stderr, "unknown argument: %s\n", bad);
  std::fprintf(stderr,
               "usage: %s [--smoke] [--trace[=trace.json]] [--threads=N] "
               "[output.json]\n",
               argv0);
  return 1;
}

int main(int argc, char** argv) {
  bool smoke = false;
  bool with_obs_gate = false;
  std::size_t requested_threads = 0;  // 0 = host default.
  std::string trace_path = "trace.json";
  std::string out_path = "BENCH_train.json";
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Exact-match flags only: the old prefix match quietly accepted
    // (and ignored the tail of) strings like --traceXYZ, turning a typo
    // into a silently different benchmark configuration.
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace") {
      with_obs_gate = true;
    } else if (arg.rfind("--trace=", 0) == 0 && arg.size() > 8) {
      with_obs_gate = true;
      trace_path = arg.substr(8);
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

  const std::size_t steps = smoke ? 4 : 16;
  const unsigned host_concurrency = std::thread::hardware_concurrency();
  const auto cfg = bench_config(smoke, 0);
  std::printf(
      "DistKfac end-to-end (world=%zu, batch/rank=%zu, hidden=%zu, "
      "depth=%zu, %zu timed steps)\n",
      cfg.base.world, cfg.base.batch_per_rank, cfg.base.hidden,
      cfg.base.depth, steps);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_train_throughput\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"config\": {\"world\": %zu, \"batch_per_rank\": %zu,"
               " \"features\": %zu, \"classes\": %zu, \"hidden\": %zu,"
               " \"depth\": %zu, \"noise\": %.2f, \"seed\": %llu,"
               " \"eigen_refresh_every\": %zu, \"aggregation\": %zu,"
               " \"base_lr\": %.3f, \"timed_steps\": %zu},\n",
               cfg.base.world, cfg.base.batch_per_rank, cfg.base.features,
               cfg.base.classes, cfg.base.hidden, cfg.base.depth,
               static_cast<double>(cfg.base.noise),
               static_cast<unsigned long long>(cfg.base.seed),
               cfg.kfac.eigen_refresh_every, cfg.kfac.aggregation,
               cfg.base_lr, steps);
  std::fprintf(f, "  \"host_concurrency\": %u,\n", host_concurrency);
  const int failures = with_obs_gate
                           ? run_obs_mode(smoke, steps, trace_path, f)
                           : run_throughput_mode(smoke, steps,
                                                 requested_threads,
                                                 host_concurrency, f);
  std::fprintf(f, "  \"metrics\": %s\n}\n", g_metrics.to_json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
