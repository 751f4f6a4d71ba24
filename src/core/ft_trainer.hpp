#pragma once
// The training runtime (DESIGN.md §9), the one training loop of the
// library: a persistent trainer that owns the dataset, replicas,
// Communicator, optimizer, and RNG streams for the whole run on either
// proxy task — Gaussian-cluster classification (Fig. 6, Fig. 3) or span
// extraction (Table 1) — so it can
//
//  - drive a seeded FaultPlan through the Communicator (transport faults)
//    and through the training loop itself (kNanGradient poisoning),
//  - apply the recovery policies end to end: bounded decode retries,
//    uncompressed fallback, rank eviction with gradient renormalization,
//    non-finite step skips followed by an adaptive-schedule bound
//    tightening (use_filter off, eb_q halved) for the rest of the run,
//  - checkpoint and resume bit-exactly (model params, optimizer state
//    including KFAC factors + eigendecompositions, LR/schedule cursor,
//    RNG streams, rank liveness; see core/checkpoint.hpp).
//
// Every fault observed and every recovery action taken lands in the
// Communicator's RecoveryStats, next to CommStats. core::train() runs one
// fresh trainer for a whole run and returns the curves the convergence
// benches print.

#include "src/comm/communicator.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/adaptive_schedule.hpp"
#include "src/core/checkpoint.hpp"
#include "src/nn/dataset.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/lr_scheduler.hpp"
#include "src/optim/recovery.hpp"

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace compso::core {

/// Returns the compressor to use at iteration t (nullptr = no compression).
/// How a compressor no FtTrainerConfig field expresses — a fixed baseline,
/// a custom stage schedule — plugs into training.
using CompressorProvider =
    std::function<const compress::GradientCompressor*(std::size_t t)>;

/// The proxy learning problem the replicas train on.
enum class TrainTask : std::uint8_t {
  kClusters = 0,  ///< Gaussian-cluster classification (MLP classifier).
  kSpans = 1,     ///< span extraction: start and end heads over positions.
};

struct TrainerConfig {
  std::size_t world = 4;
  std::size_t batch_per_rank = 16;
  std::size_t features = 24;
  /// Classes of the cluster task; positions of the span task (each of its
  /// two heads classifies over the positions).
  std::size_t classes = 6;
  std::size_t hidden = 24;
  std::size_t depth = 2;
  float noise = 0.7F;
  std::uint64_t seed = 1234;
  TrainTask task = TrainTask::kClusters;
};

enum class OptimizerKind : std::uint8_t { kSgd = 0, kKfac = 1 };

/// Which compressor family drives the gradient exchange (DESIGN.md §17).
/// kCompso is the legacy default: a fresh COMPSO configured by the
/// iteration-wise adaptive schedule. The other families carry cross-step
/// state (error-feedback residuals, sketch seed counters), so the trainer
/// owns one persistent compressor for the whole run and checkpoints its
/// state as the "compressor" CKPT section.
enum class CompressorFamily : std::uint8_t {
  kCompso = 0,
  kEfCompso = 1,            ///< error feedback wrapped around COMPSO.
  kTopK = 2,
  kEfTopK = 3,              ///< error feedback wrapped around top-k.
  kCountSketch = 4,
  kRandomProjection = 5,
};

struct FtTrainerConfig {
  TrainerConfig base{};  ///< task / cluster / model / seed.
  OptimizerKind optimizer = OptimizerKind::kKfac;
  optim::DistKfacConfig kfac{};
  optim::RecoveryPolicy recovery{};  ///< default: disabled (fail fast).
  /// StepLR owned by the trainer (the LR falls tenfold at each milestone),
  /// so a resumed run rebuilds the identical schedule from config alone.
  /// Its first milestone also starts the adaptive schedule's
  /// conservative stage.
  double base_lr = 0.05;
  std::vector<std::size_t> lr_milestones{};
  /// When true, each iteration uses a COMPSO compressor configured by the
  /// iteration-wise adaptive schedule (tightened after a non-finite event).
  bool compress = true;
  /// Compressor family for the gradient exchange when `compress` is true.
  /// EF-over-COMPSO still follows the adaptive schedule: the wrapper's
  /// inner compressor is rebuilt from effective_params(t) each iteration
  /// while the residuals persist.
  CompressorFamily family = CompressorFamily::kCompso;
  /// core::train()'s run length.
  std::size_t total_iterations = 100;
  /// Worker threads of the trainer's ThreadPool, which runs the ranks'
  /// forward/backward passes, the optimizer's StepGraph compute tasks and
  /// the math kernels' row blocks. 0 = no pool: everything runs inline on
  /// the training thread. Any value produces bit-identical training
  /// trajectories and checkpoints — parallelism only changes wall-clock
  /// time.
  std::size_t engine_threads = 0;
};

class FaultTolerantTrainer {
 public:
  /// Throws std::invalid_argument when `config.base.world` does not fill
  /// whole 4-GPU nodes (it must be 1-4 or a multiple of 4), and whatever
  /// the optimizer's constructor throws for its config.
  explicit FaultTolerantTrainer(FtTrainerConfig config);
  /// Detaches the shared math pool if this trainer attached it (the pool
  /// dies with the trainer; a stale global pointer would dangle).
  ~FaultTolerantTrainer();

  /// Installs a fault plan (seeded injector wired with the payload-fuzz
  /// mutator from the compress layer). Call before the affected iterations.
  void set_fault_plan(comm::FaultPlan plan, std::uint64_t seed);

  /// Runs one training iteration over the surviving ranks with the
  /// compressor the config picks (see `compress` / `family`); returns
  /// their mean loss. Consumes the iteration's scheduled faults.
  double step();
  /// The same iteration with a caller-owned compressor (nullptr = no
  /// compression). It never touches the family compressor, and
  /// checkpoint() does not save this compressor's state: a stateful one
  /// (error-feedback residuals, sketch counters) is the caller's to keep.
  /// The whole iteration runs under FTZ|DAZ, on this thread and on every
  /// pool task it submits, and the caller's float mode comes back on
  /// return (DESIGN.md §11.7).
  double step(const compress::GradientCompressor* compressor);
  /// Runs `iterations` steps; returns the per-iteration loss curve.
  std::vector<double> run(std::size_t iterations);

  /// Held-out accuracy of the first surviving replica: class accuracy for
  /// the cluster task, exact-match fraction for the span task.
  double evaluate();
  /// SQuAD-style F1 / exact match (percent) of the first surviving replica
  /// on the held-out span sample. Span task only: the cluster task throws
  /// std::bad_variant_access.
  nn::SpanMetrics evaluate_spans();
  /// Flattened parameters of the first surviving replica (for drift /
  /// bit-exactness checks in tests).
  std::vector<float> parameters();
  /// Flattened parameters of a specific replica — lets tests prove a
  /// rejoined rank's weights are bit-identical to a survivor's.
  std::vector<float> replica_parameters(std::size_t rank);

  std::size_t iteration() const noexcept { return iteration_; }
  bool bounds_tightened() const noexcept { return tightened_; }
  comm::Communicator& comm() noexcept { return comm_; }
  const comm::Communicator& comm() const noexcept { return comm_; }
  const AdaptiveSchedule& schedule() const noexcept { return schedule_; }
  /// The trainer's pool (nullptr when engine_threads is 0).
  common::ThreadPool* pool() noexcept { return pool_.get(); }
  /// The optimizer of the run: exactly one of the two is non-null. Through
  /// it a caller attaches a §7 factor compressor or reads the last step's
  /// exchange volume.
  optim::DistKfac* kfac() noexcept { return kfac_.get(); }
  optim::DistSgd* sgd() noexcept { return sgd_.get(); }

  /// The compressor parameters iteration `t` would train with, including
  /// the post-NaN tightening override — what a resumed run must reproduce
  /// bit-exactly (see tests/test_stage_resume.cpp).
  compress::CompsoParams effective_params(std::size_t t) const;

  /// The run-persistent family compressor (null for kCompso, whose
  /// compressor is rebuilt per step). Tests reach EF residuals / sketch
  /// counters through it via the StatefulCompressor interface.
  compress::GradientCompressor* family_compressor() noexcept {
    return family_compressor_.get();
  }

  /// Attaches observability to the whole runtime: the Communicator (per
  /// collective spans + byte counters, and the optimizer's StepGraph
  /// spans through it), the ThreadPool, and the trainer itself (per-step
  /// spans, checkpoint/tightening events). Pass {} to detach. For
  /// byte-identical exports across engine thread counts, drive the
  /// attached tracer with comm::sim_time_clock(comm().clocks()).
  void set_obs(obs::ObsHooks hooks);

  /// One named body section of a checkpoint frame: [begin, end) byte
  /// offsets into the frame's *body* (after the 17-byte header). The fuzz
  /// harness uses the map to aim mutations at every section in turn.
  struct CkptSection {
    std::string name;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Serializes the full training state as one checkpoint frame. When
  /// `sections` is non-null it receives the body section map.
  ckpt::Bytes checkpoint(std::vector<CkptSection>* sections = nullptr);
  void save_checkpoint(const std::string& path);
  /// Restores from a frame produced by checkpoint() under the same config;
  /// throws PayloadError on damage or config mismatch.
  void restore(ckpt::ByteView frame);
  void load_checkpoint(const std::string& path);

 private:
  using TrainBatch = std::variant<nn::Batch, nn::SpanDataset::SpanBatch>;
  /// Samples one rank's batch for the task from data_rng_.
  TrainBatch draw_batch();
  /// Runs forward, the task's loss and backward on `model`; returns the
  /// batch loss. Touches only `model`, so ranks may run concurrently.
  static double forward_backward(nn::Model& model, const TrainBatch& batch);
  void poison_gradients(nn::Model& model);
  /// step(compressor)'s body. Kept out of line so that none of its
  /// arithmetic can be scheduled outside step()'s float-mode scope.
  [[gnu::noinline]] double flushed_step(
      const compress::GradientCompressor* compressor);
  nn::Model& lead_replica() { return replicas_[comm_.first_participant()]; }
  /// Re-syncs the shared (rank-agnostic) training state — schedule cursor,
  /// tightening flag, optimizer state, RNG streams — from a survivor to a
  /// rejoining rank through a sealed CKPT frame, before the step runs. The
  /// simulator stores that state once, so the transfer is a bitwise no-op;
  /// what it buys is the real protocol's validation path and accounting.
  void resync_shared_state(std::size_t t);

  FtTrainerConfig cfg_;
  std::variant<nn::ClusterDataset, nn::SpanDataset> dataset_;
  std::vector<nn::Model> replicas_;
  comm::Communicator comm_;
  optim::StepLr lr_;
  AdaptiveSchedule schedule_;
  /// Shared by the forward/backward fan-out, the optimizer and the math
  /// kernels; declared before the optimizers, which hold it.
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<optim::DistSgd> sgd_;
  std::unique_ptr<optim::DistKfac> kfac_;
  /// Persistent family compressor (families other than kCompso); its
  /// cross-step state rides in the "compressor" checkpoint section.
  std::unique_ptr<compress::GradientCompressor> family_compressor_;
  std::unique_ptr<comm::FaultInjector> injector_;
  tensor::Rng data_rng_;
  tensor::Rng sr_rng_;
  std::size_t iteration_ = 0;
  bool tightened_ = false;  ///< adaptive bounds tightened after a NaN event.
  obs::ObsHooks obs_;
};

struct TrainResult {
  std::vector<double> loss_curve;      ///< training loss per iteration.
  std::vector<double> eval_curve;      ///< evaluate() every max(n/20, 1).
  double final_accuracy = 0.0;         ///< evaluate() at the end.
  double final_loss = 0.0;
  double avg_compression_ratio = 1.0;  ///< over the compressed steps.
  nn::SpanMetrics span{};              ///< final F1 / EM (span task only).
};

/// Trains a fresh trainer for `config.total_iterations` steps. Each step
/// uses `provider(t)` when a provider is given (see
/// FaultTolerantTrainer::step(compressor)), else the config's compressor.
TrainResult train(const FtTrainerConfig& config,
                  const CompressorProvider& provider = {});

}  // namespace compso::core
