// End-to-end training benchmark: DistKfac with COMPSO through
// core::FaultTolerantTrainer, on two named workloads (README.md).
//
//   trainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with module timing and prints the per-layer metrics. Either
// way the last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every correctness check passed.
//
// Per-layer timings come from this file alone: each module is timed
// around calls into its public functions, made on a mirror replica that
// is synced from the trainer's parameters every traced step, with the
// workload's own shapes. Nothing depends on a span or task name inside
// the library.

#include "src/core/ft_trainer.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/optim/kfac.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "trainbench/bench_stats.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace compso;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Run shape, shared by every workload. Step counts are whole periods
// (10 steps: the KFAC refresh period).
constexpr std::size_t kWarmup = 20;      ///< steps before any window.
constexpr std::size_t kMinWindow = 200;  ///< timed-window floor in steps.
constexpr std::size_t kPrefix = 12;      ///< pooled-engine replay length.
constexpr double kLossFloor = 0.2;       ///< lowest passing tail_loss.
constexpr std::size_t kSetupReps = 7;    ///< fresh trainers behind setup_s.

/// One benchmark workload: a clean (fault-free) trainer configuration and
/// the period its windows are made of.
struct Workload {
  std::string_view name;
  core::FtTrainerConfig cfg;
  std::size_t period = 10;  ///< eigenbasis refresh period.
};

core::FtTrainerConfig common_config() {
  core::FtTrainerConfig cfg;
  cfg.compress = true;
  cfg.family = core::CompressorFamily::kCompso;
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.aggregation = 4;
  cfg.base_lr = 0.01;
  // Clean workloads: no fault plan. Recovery stays on so a numerical
  // failure is counted as a failed step instead of aborting the run.
  cfg.recovery.enabled = true;
  cfg.total_iterations = 100000;
  return cfg;
}

std::optional<Workload> make_workload(std::string_view name) {
  Workload w;
  w.name = name;
  w.cfg = common_config();
  auto& c = w.cfg;
  if (name == "kfac_compso") {
    c.base = {.world = 2, .batch_per_rank = 256, .features = 32,
              .classes = 32, .hidden = 192, .depth = 2, .noise = 1.8F};
    c.kfac.layout = optim::PrecondLayout::kKaisa;
  } else if (name == "kfac_scaleout") {
    c.base = {.world = 8, .batch_per_rank = 32, .features = 32,
              .classes = 32, .hidden = 64, .depth = 8, .noise = 1.6F};
    c.kfac.layout = optim::PrecondLayout::kSharded;
    c.kfac.assignment = optim::ShardAssignment::kCostBalanced;
    c.kfac.chunk_bytes = 512;
  } else {
    return std::nullopt;
  }
  w.period = c.kfac.eigen_refresh_every;
  return w;
}

/// splitmix64: adjacent --seed values give unrelated trainer seeds.
std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// CPUs this process may run on (the container's share, not the host's).
std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return 1;
}

/// The timed trainer runs on the serial engine, the trainer's default. A
/// plain KFAC step is many short parallel ranges, each waiting for its
/// slowest thread, so on a shared host whose hypervisor takes CPUs away a
/// pooled step moved with the host's load far more than a serial one
/// (README.md). The prefix replay that checks bit identity runs on a pool
/// of this many workers (the trainer thread also runs math ranges, so N
/// workers keep N + 1 threads busy), leaving one CPU free; capped so hosts
/// with more cores run the same check.
std::size_t replay_threads_for(std::size_t cpus) {
  return std::min<std::size_t>(cpus > 2 ? cpus - 2 : 0, 2);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// The trainer under test and what the run learns about it.
// ---------------------------------------------------------------------------

struct Run {
  const Workload& w;
  std::size_t replay_threads;  ///< pool workers of the prefix replay.
  std::unique_ptr<core::FaultTolerantTrainer> trainer;
  trainbench::FailureTally tally;
  std::vector<double> losses;        ///< per step, from step 0.
  std::vector<float> prefix_params;  ///< parameters after `prefix` steps.
  comm::CommStats prefix_stats;
  std::vector<std::string> errors;

  Run(const Workload& wl, std::size_t replay)
      : w(wl), replay_threads(replay) {}

  core::FtTrainerConfig config(std::size_t engine_threads) const {
    auto c = w.cfg;
    c.engine_threads = engine_threads;
    return c;
  }

  /// One trainer step with failure accounting; returns its wall time.
  double step() {
    auto& tr = *trainer;
    const comm::RecoveryStats before = tr.comm().recovery();
    const auto t0 = Clock::now();
    const double loss = tr.step();
    const double ms = ms_since(t0);
    tally.record(trainbench::step_failed(before, tr.comm().recovery()));
    losses.push_back(loss);
    if (losses.size() == kPrefix) {
      prefix_params = tr.parameters();
      prefix_stats = tr.comm().stats();
    }
    return ms;
  }

  /// Set-up time: construction plus the first step (allocations, factor
  /// initialization, the step-0 eigenbasis), as the median of `reps`
  /// fresh trainers. The last one is kept for the run.
  double setup(std::size_t reps) {
    std::vector<double> secs;
    std::optional<double> first_loss;
    for (std::size_t i = 0; i < reps; ++i) {
      trainer.reset();
      losses.clear();
      tally = {};
      const auto t0 = Clock::now();
      trainer = std::make_unique<core::FaultTolerantTrainer>(config(0));
      step();
      secs.push_back(ms_since(t0) / 1000.0);
      if (first_loss && !same_bits(*first_loss, losses[0])) {
        errors.push_back("step-0 loss differs between fresh trainers");
      }
      first_loss = losses[0];
    }
    return trainbench::median(secs);
  }

  /// Replay of the first `prefix` steps on a pool of `replay_threads`
  /// workers: the engine's bit-identity contract says losses, parameters
  /// and every comm byte and simulated second match the serial run exactly.
  void check_pooled_prefix() {
    core::FaultTolerantTrainer pooled(config(replay_threads));
    for (std::size_t i = 0; i < kPrefix; ++i) {
      if (!same_bits(pooled.step(), losses[i])) {
        errors.push_back("pooled engine loss differs at step " +
                         std::to_string(i));
        return;
      }
    }
    const auto& s = pooled.comm().stats();
    if (!same_bits(pooled.parameters(), prefix_params)) {
      errors.push_back("pooled engine parameters differ after prefix");
    }
    if (s.allreduce_bytes != prefix_stats.allreduce_bytes ||
        s.allgather_bytes != prefix_stats.allgather_bytes ||
        !same_bits(s.total_s(), prefix_stats.total_s())) {
      errors.push_back("pooled engine comm bytes/time differ after prefix");
    }
  }

  void check_final() {
    if (!all_finite(trainer->parameters())) {
      errors.push_back("non-finite parameters");
    }
    if (tally.failed != 0) {
      errors.push_back(std::to_string(tally.failed) +
                       " steps took a recovery action on a clean workload");
    }
  }
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void print_result(const Workload& w, const Run& run,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%s/%s = %.6g %s%s%s\n", std::string(w.name).c_str(),
                m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  std::printf("steps: attempted %llu, failed %llu (failed_step_frac %.6g)\n",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed),
              run.tally.failed_frac());
  for (const auto& e : run.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              run.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

std::vector<Metric> run_end_to_end(Run& run, double seconds) {
  const Workload& w = run.w;
  const auto& base = w.cfg.base;
  const double setup_s = run.setup(kSetupReps);
  auto& tr = *run.trainer;
  while (run.losses.size() < kWarmup) run.step();

  // Deterministic metrics are read at a fixed step, so they depend on the
  // seed alone, never on how many steps the timed window managed.
  const std::size_t det_end = kWarmup + kMinWindow;
  const std::size_t tail_steps = 10 * w.period;
  const trainbench::Window window{w.period, kMinWindow, seconds};
  const comm::CommStats det_start = tr.comm().stats();
  double tail_loss = 0.0;
  double eval_accuracy = 0.0;
  double wire_mb = 0.0;
  double sim_comm_ms = 0.0;

  std::vector<double> step_ms;
  std::vector<double> period_ms;
  double elapsed_ms = 0.0;
  while (!window.done(step_ms.size(), elapsed_ms / 1000.0)) {
    const double ms = run.step();
    step_ms.push_back(ms);
    elapsed_ms += ms;
    if ((step_ms.size() - 1) % w.period == 0) period_ms.push_back(0.0);
    period_ms.back() += ms;
    if (run.losses.size() == det_end) {
      for (std::size_t i = det_end - tail_steps; i < det_end; ++i) {
        tail_loss += run.losses[i];
      }
      tail_loss /= static_cast<double>(tail_steps);
      eval_accuracy = tr.evaluate();
      const auto& s = tr.comm().stats();
      const double steps = static_cast<double>(kMinWindow);
      wire_mb = static_cast<double>(s.allreduce_bytes + s.allgather_bytes -
                                    det_start.allreduce_bytes -
                                    det_start.allgather_bytes) /
                1e6 / steps;
      sim_comm_ms = (s.total_s() - det_start.total_s()) * 1000.0 / steps;
    }
  }
  run.check_final();
  // Near-zero loss means vanishing gradients, whose arithmetic goes
  // denormal and slows every step: the workload would no longer measure
  // what it claims to.
  if (!(tail_loss >= kLossFloor)) {
    run.errors.push_back("tail_loss " + std::to_string(tail_loss) +
                         " is below the floor " +
                         std::to_string(kLossFloor) + " or not finite");
  }
  run.check_pooled_prefix();

  // Throughput from the median whole period, so a burst of host noise in
  // a few periods does not move it.
  const double period_samples =
      static_cast<double>(w.period * base.world * base.batch_per_rank);
  const auto tail = trainbench::tail_timing(step_ms, kMinWindow);
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "(p%g of %zu steps, %zu beyond)",
                tail.percentile, tail.samples, tail.beyond);
  const double clean = run.tally.clean_frac();
  return {
      {"samples_per_s",
       period_samples / (trainbench::median(period_ms) / 1000.0), "1/s",
       "(median of " + std::to_string(period_ms.size()) + " periods)"},
      {"step_ms_p50", trainbench::median(step_ms), "ms", ""},
      {"step_ms_tail", tail.value, "ms", tail_note},
      {"setup_s", setup_s, "s",
       "(median of " + std::to_string(kSetupReps) + " constructions)"},
      {"peak_rss_mb", peak_rss_mb(), "MB", ""},
      {"tail_loss", tail_loss, "nat", ""},
      {"eval_accuracy", eval_accuracy, "frac", ""},
      {"wire_mb_per_step", wire_mb, "MB", ""},
      {"sim_comm_ms_per_step", sim_comm_ms, "ms", ""},
      {"clean_step_frac", clean, "frac", ""},
  };
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from module calls on a mirror replica.
// ---------------------------------------------------------------------------

/// Replays one step's module work outside the trainer, timing each module
/// around its public calls: nn forward/backward for every rank's batch,
/// tensor syrk covariances, optim KFAC refresh + precondition on
/// benchmark-owned layer states, and compress encode/decode with the
/// step's own COMPSO parameters.
class Mirror {
 public:
  explicit Mirror(const Workload& w)
      : w_(w),
        data_(w.cfg.base.features, w.cfg.base.classes, w.cfg.base.noise,
              w.cfg.base.seed ^ 0x4D1AA0ULL),
        rng_(w.cfg.base.seed ^ 0x71ACEULL) {
    const auto& b = w.cfg.base;
    tensor::Rng init(b.seed);
    model_ = nn::make_mlp_classifier(b.features, b.hidden, b.classes,
                                     b.depth, init);
    slots_ = model_.trainable_layers();
    for (std::size_t li : slots_) {
      auto& layer = model_.layer(li);
      const std::size_t out = layer.weight()->rows();
      const std::size_t in_aug = layer.weight()->cols() + 1;
      states_.push_back(std::make_unique<optim::KfacLayerState>(in_aug, out));
      cov_a_.emplace_back(tensor::Tensor({in_aug, in_aug}));
      cov_g_.emplace_back(tensor::Tensor({out, out}));
      sum_a_.emplace_back(tensor::Tensor({in_aug, in_aug}));
      sum_g_.emplace_back(tensor::Tensor({out, out}));
      sum_grad_.emplace_back(tensor::Tensor({out, in_aug}));
    }
    precond_.resize(slots_.size());
  }

  /// Mirrors iteration `t`, which the trainer has just run.
  void step(core::FaultTolerantTrainer& trainer, std::size_t t) {
    sync(trainer.parameters());
    const auto comp = compress::make_compso(trainer.effective_params(t));
    const auto& b = w_.cfg.base;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      sum_a_[s].fill(0.0F);
      sum_g_[s].fill(0.0F);
      sum_grad_[s].fill(0.0F);
    }
    for (std::size_t r = 0; r < b.world; ++r) {
      const auto batch = data_.sample(b.batch_per_rank, rng_);
      auto t0 = Clock::now();
      const auto logits = model_.forward(batch.x);
      tensor::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      model_.backward(grad);
      nn_ms_ += ms_since(t0);
      accumulate_covariances();
    }
    precondition_and_gather(*comp, t);
    ++steps_;
  }

  std::vector<Metric> metrics() const {
    const double n = std::max<double>(1.0, static_cast<double>(steps_));
    const double eigh_calls = std::max<double>(1.0, eigh_calls_);
    return {
        {"optim.refresh_ms", refresh_ms_ / n, "ms", ""},
        {"optim.eigh_sweeps", static_cast<double>(eigh_sweeps_) / eigh_calls,
         "count", "(mean sweeps per eigh)"},
        {"optim.eigh_nonconverged", static_cast<double>(eigh_nonconverged_),
         "count", ""},
        {"optim.precond_ms", precond_ms_ / n, "ms", ""},
        {"tensor.syrk_ms", syrk_ms_ / n, "ms", ""},
        {"nn.fwd_bwd_ms", nn_ms_ / n, "ms", ""},
        {"compress.encode_ms", encode_ms_ / n, "ms", ""},
        {"compress.decode_ms", decode_ms_ / n, "ms", ""},
        {"compress.payloads_per_step", static_cast<double>(payloads_) / n,
         "count", ""},
        {"compress.ratio",
         out_bytes_ == 0 ? 0.0
                         : static_cast<double>(in_bytes_) /
                               static_cast<double>(out_bytes_),
         "x", ""},
    };
  }

  /// Module time per mirrored step, summed over every timed call.
  double module_ms_per_step() const {
    return (nn_ms_ + syrk_ms_ + refresh_ms_ + precond_ms_ + encode_ms_ +
            decode_ms_) /
           std::max<double>(1.0, static_cast<double>(steps_));
  }

 private:
  void sync(const std::vector<float>& params) {
    if (params.size() != model_.parameter_count()) {
      throw std::logic_error("mirror: parameters do not fit the replica");
    }
    std::size_t off = 0;
    for (std::size_t li : slots_) {
      auto& layer = model_.layer(li);
      for (tensor::Tensor* p : {layer.weight(), layer.bias()}) {
        std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(off),
                    p->size(), p->data());
        off += p->size();
      }
    }
  }

  void accumulate_covariances() {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      auto& layer = model_.layer(slots_[s]);
      const tensor::Tensor& a = *layer.kfac_input();
      const tensor::Tensor& g = *layer.kfac_grad_output();
      const auto batch = static_cast<float>(a.rows());
      const auto t0 = Clock::now();
      tensor::syrk_tn(a, 1.0F / batch, 0.0F, cov_a_[s]);
      tensor::syrk_tn(g, batch, 0.0F, cov_g_[s]);
      syrk_ms_ += ms_since(t0);
      sum_a_[s] += cov_a_[s];
      sum_g_[s] += cov_g_[s];
      optim::combined_gradient_into(layer, grad_tmp_);
      sum_grad_[s] += grad_tmp_;
    }
  }

  void precondition_and_gather(const compress::GradientCompressor& comp,
                               std::size_t t) {
    const float inv = 1.0F / static_cast<float>(w_.cfg.base.world);
    const bool refresh = t % w_.period == 0 || !states_[0]->has_eigen();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      sum_a_[s] *= inv;
      sum_g_[s] *= inv;
      sum_grad_[s] *= inv;
      states_[s]->blend_factors(sum_a_[s], sum_g_[s], w_.cfg.kfac.stat_decay);
      if (refresh) {
        const auto t0 = Clock::now();
        states_[s]->refresh_eigen();
        refresh_ms_ += ms_since(t0);
        for (const auto* e : {&states_[s]->eigen_a(), &states_[s]->eigen_g()}) {
          ++eigh_calls_;
          eigh_sweeps_ += static_cast<std::uint64_t>(e->sweeps_used);
          if (!e->converged) ++eigh_nonconverged_;
        }
      }
      const auto t0 = Clock::now();
      precond_[s] = states_[s]->precondition(sum_grad_[s],
                                             w_.cfg.kfac.damping);
      precond_ms_ += ms_since(t0);
    }
    // Gather groups: each owner concatenates up to `aggregation` of its
    // slots per payload. Owners follow the round-robin map; the
    // cost-balanced map differs only in which rank holds a slot, not in
    // the number or size of payloads, for the shapes used here.
    const std::size_t world = w_.cfg.base.world;
    const std::size_t m = std::max<std::size_t>(w_.cfg.kfac.aggregation, 1);
    for (std::size_t r = 0; r < world; ++r) {
      std::size_t in_group = 0;
      flat_.clear();
      for (std::size_t s = r; s < slots_.size(); s += world) {
        const auto k = precond_[s].span();
        flat_.insert(flat_.end(), k.begin(), k.end());
        if (++in_group == m) {
          encode_decode(comp);
          flat_.clear();
          in_group = 0;
        }
      }
      if (in_group != 0) encode_decode(comp);
    }
  }

  void encode_decode(const compress::GradientCompressor& comp) {
    auto t0 = Clock::now();
    comp.compress_into(flat_, rng_, payload_);
    encode_ms_ += ms_since(t0);
    t0 = Clock::now();
    comp.decompress_into(payload_, decoded_);
    decode_ms_ += ms_since(t0);
    in_bytes_ += flat_.size() * sizeof(float);
    out_bytes_ += payload_.size();
    ++payloads_;
  }

  const Workload& w_;
  nn::ClusterDataset data_;
  tensor::Rng rng_;
  nn::Model model_;
  std::vector<std::size_t> slots_;
  std::vector<std::unique_ptr<optim::KfacLayerState>> states_;
  std::vector<tensor::Tensor> cov_a_, cov_g_, sum_a_, sum_g_, sum_grad_;
  std::vector<tensor::Tensor> precond_;
  tensor::Tensor grad_tmp_;
  std::vector<float> flat_, decoded_;
  compress::Bytes payload_;

  std::size_t steps_ = 0;
  double nn_ms_ = 0, syrk_ms_ = 0, refresh_ms_ = 0, precond_ms_ = 0;
  double encode_ms_ = 0, decode_ms_ = 0;
  std::uint64_t eigh_calls_ = 0, eigh_sweeps_ = 0, eigh_nonconverged_ = 0;
  std::uint64_t payloads_ = 0, in_bytes_ = 0, out_bytes_ = 0;
};

std::vector<Metric> run_traced(Run& run, double seconds) {
  const Workload& w = run.w;
  run.setup(1);
  auto& tr = *run.trainer;
  while (run.losses.size() < kWarmup) run.step();

  // Whole periods, alternating: one period of plain steps, then one period
  // with the mirror's module calls after every step. The ratio of the two
  // kinds of periods' step times is the tracing overhead.
  Mirror mirror(w);
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  std::size_t traced_steps = 0;
  double allreduce_s = 0.0;
  double allgather_s = 0.0;
  std::uint64_t retries = 0;
  const auto t0 = Clock::now();
  std::size_t pairs = 0;
  while (pairs < 2 || ms_since(t0) / 1000.0 < seconds) {
    for (std::size_t i = 0; i < w.period; ++i) plain_ms += run.step();
    for (std::size_t i = 0; i < w.period; ++i) {
      const comm::CommStats cs = tr.comm().stats();
      const std::uint64_t rt = tr.comm().recovery().decode_retries;
      const std::size_t t = tr.iteration();
      traced_ms += run.step();
      allreduce_s += tr.comm().stats().allreduce_s - cs.allreduce_s;
      allgather_s += tr.comm().stats().allgather_s - cs.allgather_s;
      retries += tr.comm().recovery().decode_retries - rt;
      mirror.step(tr, t);
      ++traced_steps;
    }
    ++pairs;
  }
  run.check_final();
  run.check_pooled_prefix();

  const double n = static_cast<double>(traced_steps);
  const double step_ms = traced_ms / n;
  auto metrics = mirror.metrics();
  metrics.push_back(
      {"comm.allreduce_sim_ms", allreduce_s * 1000.0 / n, "ms", ""});
  metrics.push_back(
      {"comm.allgather_sim_ms", allgather_s * 1000.0 / n, "ms", ""});
  metrics.push_back({"comm.decode_retries", static_cast<double>(retries),
                     "count", ""});
  metrics.push_back({"core.step_ms", step_ms, "ms", ""});
  metrics.push_back({"core.trace_overhead", traced_ms / plain_ms, "x",
                     "(traced / untraced step time)"});
  std::printf("coverage: module calls %.3f ms/step vs trainer step %.3f "
              "ms/step = %.1f%% over %zu traced steps (both run serially; "
              "below 100%% is step work the mirror does not replay)\n",
              mirror.module_ms_per_step(), step_ms,
              100.0 * mirror.module_ms_per_step() / step_ms, traced_steps);
  return metrics;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <kfac_compso|kfac_scaleout> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  if (s.empty() || s.size() > 18) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string_view workload_name;
  std::optional<std::uint64_t> seed, seconds, trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = parse_uint(value);
    } else if (flag == "--seconds") {
      seconds = parse_uint(value);
    } else if (flag == "--trace") {
      trace = parse_uint(value);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !seed || !seconds || *seconds == 0 || !trace ||
      *trace > 1) {
    return usage(argv[0]);
  }
  auto workload = make_workload(workload_name);
  if (!workload) return usage(argv[0]);
  workload->cfg.base.seed = mix_seed(*seed);

  const std::size_t cpus = host_cpus();
  Run run(*workload, replay_threads_for(cpus));
  std::printf("trainbench workload=%s seed=%llu seconds=%llu trace=%llu "
              "host_cpus=%zu engine_threads=0 busy_threads=1 "
              "replay_engine_threads=%zu replay_busy_threads=%zu\n",
              std::string(workload->name).c_str(),
              static_cast<unsigned long long>(*seed),
              static_cast<unsigned long long>(*seconds),
              static_cast<unsigned long long>(*trace), cpus,
              run.replay_threads, run.replay_threads + 1);
  const double secs = static_cast<double>(*seconds);
  try {
    const auto metrics =
        *trace == 1 ? run_traced(run, secs) : run_end_to_end(run, secs);
    print_result(*workload, run, metrics);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trainbench: run aborted: %s\n", e.what());
    return 1;
  }
  return run.errors.empty() ? 0 : 1;
}
