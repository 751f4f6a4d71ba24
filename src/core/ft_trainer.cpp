#include "src/core/ft_trainer.hpp"

#include "src/comm/network_model.hpp"
#include "src/common/float_mode.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/error_feedback.hpp"
#include "src/compress/payload_fuzz.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/tensor/matrix_ops.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace compso::core {
namespace {

namespace wire = codec::wire;

/// Seed offset for the sketch families' counter-derived payload seeds.
constexpr std::uint64_t kSketchSeedSalt = 0x5EEDC0DEULL;
/// The TopK families' keep fraction and the sketch families' size ratio.
constexpr double kFamilyKeepFraction = 0.1;
constexpr double kFamilySketchRatio = 0.25;

/// Checkpoint body layout version, the body's first byte (DESIGN.md §9.3).
/// Layout 1 had no version byte — its first byte is the optimizer kind, 0
/// or 1 — and carried DistSgd error-feedback residuals; layout 2 drops
/// them. A frame of any other layout is rejected.
constexpr std::uint8_t kCheckpointLayout = 2;

// ------------------------------------------------------------ the task
// Everything that differs between the proxy tasks lives here and in
// forward_backward / evaluate / evaluate_spans: the RNG streams, the
// model, a batch's loss, and the held-out evaluation.

/// Per-task salts, XORed into TrainerConfig::seed, one stream each.
/// Changing one changes every trajectory of that task.
struct TaskStreams {
  std::uint64_t dataset;    ///< the dataset's planted structure.
  std::uint64_t batches;    ///< training batches, drawn in rank order.
  std::uint64_t kfac_step;  ///< DistKfac's per-step generator.
  std::uint64_t sgd_step;   ///< DistSgd's per-step generator.
  std::uint64_t eval;       ///< the fixed 512-sample held-out batch.
};
constexpr TaskStreams kStreams[] = {
    /* kClusters */ {0xDA7A5E7ULL, 0xBA7C4ULL, 0x5121ULL, 0x5122ULL, 0xE7A1ULL},
    /* kSpans    */ {0x51AD5ULL, 0xBA7C5ULL, 0x5123ULL, 0x5124ULL, 0xE7A2ULL},
};

const TaskStreams& streams(const TrainerConfig& cfg) {
  return kStreams[static_cast<std::size_t>(cfg.task)];
}

constexpr std::size_t kEvalSamples = 512;

/// The trainer runs one replica per rank of a Topology::with_gpus(world)
/// cluster, which fills whole 4-GPU nodes: a world it would round up (5-7,
/// 9-11, ...) or 0 is rejected here, naming the constraint.
FtTrainerConfig validated(FtTrainerConfig cfg) {
  const std::size_t world = cfg.base.world;
  if (comm::Topology::with_gpus(world).world_size() != world) {
    throw std::invalid_argument(
        "FaultTolerantTrainer: TrainerConfig::world must be 1-4 or a "
        "multiple of 4 (whole 4-GPU nodes), got " +
        std::to_string(world));
  }
  return cfg;
}

std::variant<nn::ClusterDataset, nn::SpanDataset> make_dataset(
    const TrainerConfig& cfg) {
  const std::uint64_t seed = cfg.seed ^ streams(cfg).dataset;
  if (cfg.task == TrainTask::kSpans) {
    return nn::SpanDataset(cfg.classes, cfg.features, cfg.noise, seed);
  }
  return nn::ClusterDataset(cfg.features, cfg.classes, cfg.noise, seed);
}

std::vector<nn::Model> build_replicas(const TrainerConfig& cfg) {
  std::vector<nn::Model> replicas;
  replicas.reserve(cfg.world);
  for (std::size_t r = 0; r < cfg.world; ++r) {
    tensor::Rng rng(cfg.seed);  // same seed -> identical initial weights
    replicas.push_back(
        cfg.task == TrainTask::kSpans
            ? nn::make_span_model(cfg.features, cfg.hidden, cfg.classes,
                                  cfg.depth, rng)
            : nn::make_mlp_classifier(cfg.features, cfg.hidden, cfg.classes,
                                      cfg.depth, rng));
  }
  return replicas;
}

}  // namespace

FaultTolerantTrainer::TrainBatch FaultTolerantTrainer::draw_batch() {
  const std::size_t b = cfg_.base.batch_per_rank;
  if (const auto* spans = std::get_if<nn::SpanDataset>(&dataset_)) {
    return spans->sample(b, data_rng_);
  }
  return std::get<nn::ClusterDataset>(dataset_).sample(b, data_rng_);
}

double FaultTolerantTrainer::forward_backward(nn::Model& model,
                                              const TrainBatch& batch) {
  tensor::Tensor grad;
  double loss = 0.0;
  if (const auto* spans = std::get_if<nn::SpanDataset::SpanBatch>(&batch)) {
    loss = nn::span_cross_entropy(model.forward(spans->x), spans->start,
                                  spans->end, grad);
  } else {
    const auto& clusters = std::get<nn::Batch>(batch);
    loss = nn::softmax_cross_entropy(model.forward(clusters.x),
                                     clusters.labels, grad);
  }
  model.backward(grad);
  return loss;
}

double FaultTolerantTrainer::evaluate() {
  const auto* clusters = std::get_if<nn::ClusterDataset>(&dataset_);
  if (clusters == nullptr) return evaluate_spans().exact_match / 100.0;
  tensor::Rng rng(cfg_.base.seed ^ streams(cfg_.base).eval);
  const auto batch = clusters->sample(kEvalSamples, rng);
  return nn::accuracy(lead_replica().forward(batch.x), batch.labels);
}

nn::SpanMetrics FaultTolerantTrainer::evaluate_spans() {
  const auto& spans = std::get<nn::SpanDataset>(dataset_);
  tensor::Rng rng(cfg_.base.seed ^ streams(cfg_.base).eval);
  const auto batch = spans.sample(kEvalSamples, rng);
  const auto logits = lead_replica().forward(batch.x);
  // Each head predicts its argmax position (first maximum on ties).
  const std::size_t p = spans.positions();
  std::vector<int> ps(logits.rows()), pe(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    std::size_t bs = 0, be = 0;
    for (std::size_t c = 1; c < p; ++c) {
      if (logits.at(r, c) > logits.at(r, bs)) bs = c;
      if (logits.at(r, p + c) > logits.at(r, p + be)) be = c;
    }
    ps[r] = static_cast<int>(bs);
    pe[r] = static_cast<int>(be);
  }
  return nn::span_metrics(ps, pe, batch.start, batch.end);
}

// ------------------------------------------------------------ the trainer

FaultTolerantTrainer::FaultTolerantTrainer(FtTrainerConfig config)
    : cfg_(validated(std::move(config))),
      dataset_(make_dataset(cfg_.base)),
      replicas_(build_replicas(cfg_.base)),
      comm_(comm::Topology::with_gpus(cfg_.base.world),
            comm::NetworkModel::platform1()),
      lr_(cfg_.base_lr, cfg_.lr_milestones),
      schedule_(AdaptiveSchedule::step_lr(lr_.first_drop())),
      pool_(cfg_.engine_threads > 0
                ? std::make_unique<common::ThreadPool>(cfg_.engine_threads)
                : nullptr),
      data_rng_(cfg_.base.seed ^ streams(cfg_.base).batches),
      sr_rng_(cfg_.base.seed ^ (cfg_.optimizer == OptimizerKind::kKfac
                                    ? streams(cfg_.base).kfac_step
                                    : streams(cfg_.base).sgd_step)) {
  // Persistent family compressor (DESIGN.md §17): the only place error
  // feedback comes from — kCompso is plain COMPSO, as in the paper.
  switch (cfg_.family) {
    case CompressorFamily::kCompso:
      break;  // rebuilt per step from the adaptive schedule.
    case CompressorFamily::kEfCompso:
      family_compressor_ = compress::make_error_feedback(
          compress::make_compso(schedule_.params_at(0)));
      break;
    case CompressorFamily::kTopK:
      family_compressor_ = compress::make_topk(kFamilyKeepFraction);
      break;
    case CompressorFamily::kEfTopK:
      family_compressor_ = compress::make_error_feedback(
          compress::make_topk(kFamilyKeepFraction));
      break;
    case CompressorFamily::kCountSketch:
      family_compressor_ = compress::make_count_sketch(
          kFamilySketchRatio, 3, cfg_.base.seed ^ kSketchSeedSalt);
      break;
    case CompressorFamily::kRandomProjection:
      family_compressor_ = compress::make_random_projection(
          kFamilySketchRatio, cfg_.base.seed ^ kSketchSeedSalt);
      break;
  }
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas_) ptrs.push_back(&m);
  if (cfg_.optimizer == OptimizerKind::kKfac) {
    kfac_ = std::make_unique<optim::DistKfac>(cfg_.kfac, comm_, ptrs,
                                              pool_.get());
    kfac_->set_recovery(cfg_.recovery);
  } else {
    sgd_ = std::make_unique<optim::DistSgd>(comm_, ptrs, pool_.get());
    sgd_->set_recovery(cfg_.recovery);
  }
  // One pool for everything (DESIGN.md §11): the math kernels fan
  // top-level gemms/syrks across its workers, while gemms issued from
  // inside a pool task run inline — never two pools competing for the
  // cores. Results are bit-identical with or without the pool.
  if (pool_ != nullptr) tensor::set_math_pool(pool_.get());
}

FaultTolerantTrainer::~FaultTolerantTrainer() {
  if (pool_ != nullptr && tensor::math_pool() == pool_.get()) {
    tensor::set_math_pool(nullptr);
  }
}

void FaultTolerantTrainer::set_fault_plan(comm::FaultPlan plan,
                                          std::uint64_t seed) {
  injector_ = std::make_unique<comm::FaultInjector>(std::move(plan), seed);
  // Realistic whole-payload damage from the PR-1 fuzz mutator, instead of
  // the comm layer's dependency-free header bit flip.
  injector_->set_mutator(
      [](std::vector<std::uint8_t>& payload, tensor::Rng& rng) {
        payload = compress::mutate_payload(payload, rng);
      });
  comm_.set_fault_injector(injector_.get());
}

void FaultTolerantTrainer::poison_gradients(nn::Model& model) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t li : model.trainable_layers()) {
    auto& layer = model.layer(li);
    if (auto* wg = layer.weight_grad(); wg != nullptr && !wg->empty()) {
      (*wg)[0] = nan;
    }
    if (auto* bg = layer.bias_grad(); bg != nullptr && !bg->empty()) {
      (*bg)[0] = nan;
    }
  }
}

compress::CompsoParams FaultTolerantTrainer::effective_params(
    std::size_t t) const {
  auto params = schedule_.params_at(t);
  if (tightened_) {
    params.use_filter = false;
    params.quant_bound *= 0.5;
  }
  return params;
}

void FaultTolerantTrainer::set_obs(obs::ObsHooks hooks) {
  obs_ = hooks;
  comm_.set_obs(hooks);
  if (pool_ != nullptr) pool_->set_obs(hooks);
}

double FaultTolerantTrainer::step() {
  if (!cfg_.compress) return step(nullptr);
  if (cfg_.family == CompressorFamily::kCompso) {
    // Post-NaN conservative mode: no filtering, half the SR bound (see
    // effective_params).
    const auto compso = compress::make_compso(effective_params(iteration_));
    return step(compso.get());
  }
  if (cfg_.family == CompressorFamily::kEfCompso) {
    // EF-over-COMPSO follows the same adaptive schedule: swap the inner
    // compressor, keep the residual streams.
    static_cast<compress::ErrorFeedbackCompressor*>(family_compressor_.get())
        ->set_inner(compress::make_compso(effective_params(iteration_)));
  }
  return step(family_compressor_.get());
}

double FaultTolerantTrainer::step(
    const compress::GradientCompressor* compressor) {
  // No step pays for gradual underflow: dead units' factor and momentum
  // rows decay into the subnormal range otherwise, and every product
  // touching them takes a microcode assist (DESIGN.md §11.7).
  const common::FloatModeScope flushed(common::float_mode() |
                                       common::kFlushSubnormals);
  return flushed_step(compressor);
}

double FaultTolerantTrainer::flushed_step(
    const compress::GradientCompressor* compressor) {
  const std::size_t t = iteration_;
  obs_.count("trainer.steps");
  auto step_span = obs_.span(obs::kMainTrack, "trainer.step", "trainer");
  step_span.add_arg("iteration", t);
  // Consumes crash/silence/recover/straggler events for t and runs the
  // membership tick: heartbeat ledger, deadline waits, step exclusions,
  // suspicion/eviction, readmissions.
  comm_.begin_iteration(t);
  if (!comm_.rejoining_ranks().empty()) resync_shared_state(t);

  auto compute_span =
      obs_.span(obs::kMainTrack, "trainer.forward_backward", "trainer");
  // Every participating rank's batch is drawn first, in rank order, so
  // data_rng_ advances exactly as a rank-by-rank loop would. Each replica
  // owns its model, activations and gradients, so the forward/backward
  // passes then fan out over the pool, one rank per index; the losses are
  // summed and the NaN faults applied in rank order after the join.
  std::vector<std::size_t> ranks;
  std::vector<TrainBatch> batches;
  for (std::size_t r = 0; r < cfg_.base.world; ++r) {
    if (!comm_.is_participating(r)) continue;
    ranks.push_back(r);
    batches.push_back(draw_batch());
  }
  std::vector<double> losses(ranks.size(), 0.0);
  const auto fwd_bwd = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      losses[i] = forward_backward(replicas_[ranks[i]], batches[i]);
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for_static(ranks.size(), fwd_bwd);
  } else {
    fwd_bwd(0, ranks.size());
  }
  double loss = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    loss += losses[i];
    if (injector_ != nullptr &&
        injector_->take(comm::FaultKind::kNanGradient, ranks[i])) {
      poison_gradients(replicas_[ranks[i]]);
    }
  }
  loss /= static_cast<double>(comm_.participant_count());
  compute_span.end();

  const auto skips_before = comm_.recovery().nonfinite_skips;
  if (kfac_ != nullptr) {
    kfac_->step(t, lr_.lr(t), compressor, sr_rng_);
  } else {
    sgd_->step(lr_.lr(t), compressor, sr_rng_);
  }
  if (comm_.recovery().nonfinite_skips > skips_before && !tightened_) {
    tightened_ = true;
    ++comm_.recovery().bound_tightenings;
    obs_.count("recovery.bound_tightenings");
    obs_.instant(obs::kMainTrack, "trainer.bound_tighten", "recovery",
                 {{"iteration", t}});
  }
  ++iteration_;
  return loss;
}

void FaultTolerantTrainer::resync_shared_state(std::size_t t) {
  const auto& rejoining = comm_.rejoining_ranks();
  auto span = obs_.span(obs::kMainTrack, "membership.resync_state", "recovery");
  span.add_arg("iteration", t);
  // Survivor side: serialize the shared state into a sealed CKPT frame —
  // the same framing + CRC a checkpoint restore validates.
  ckpt::Bytes body;
  wire::put_u64(body, t);
  wire::put_u8(body, tightened_ ? 1 : 0);
  if (kfac_ != nullptr) {
    kfac_->save_state(body);
  } else {
    sgd_->save_state(body);
  }
  ckpt::put_rng(body, data_rng_.save_state());
  ckpt::put_rng(body, sr_rng_.save_state());
  const ckpt::Bytes frame = ckpt::seal_frame(body);
  // Rejoiner side: validate and load. The simulator stores this state
  // once, so the load is a bitwise no-op — the point is that the frame
  // goes through the full open/parse/validate path the real protocol
  // would, and that the accounting reflects the transfer.
  const auto view = ckpt::open_frame(frame);
  wire::Reader reader(view);
  if (reader.u64() != t) {
    throw PayloadError("resync: iteration cursor mismatch");
  }
  tightened_ = reader.u8() != 0;
  if (kfac_ != nullptr) {
    kfac_->load_state(reader);
  } else {
    sgd_->load_state(reader);
  }
  data_rng_.restore_state(ckpt::get_rng(reader));
  sr_rng_.restore_state(ckpt::get_rng(reader));
  if (reader.remaining() != 0) {
    throw PayloadError("resync: trailing bytes");
  }
  comm_.recovery().resyncs += rejoining.size();
  obs_.count("recovery.resyncs", rejoining.size());
  span.end();
}

std::vector<double> FaultTolerantTrainer::run(std::size_t iterations) {
  std::vector<double> losses;
  losses.reserve(iterations);
  for (std::size_t i = 0; i < iterations; ++i) losses.push_back(step());
  return losses;
}

std::vector<float> FaultTolerantTrainer::parameters() {
  return replica_parameters(comm_.first_participant());
}

std::vector<float> FaultTolerantTrainer::replica_parameters(std::size_t rank) {
  std::vector<float> out;
  auto& model = replicas_.at(rank);
  for (std::size_t li : model.trainable_layers()) {
    auto& layer = model.layer(li);
    const auto w = layer.weight()->span();
    const auto b = layer.bias()->span();
    out.insert(out.end(), w.begin(), w.end());
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

ckpt::Bytes FaultTolerantTrainer::checkpoint(
    std::vector<CkptSection>* sections) {
  ckpt::Bytes body;
  if (sections != nullptr) sections->clear();
  const auto section = [&](const char* name) {
    if (sections == nullptr) return;
    if (!sections->empty()) sections->back().end = body.size();
    sections->push_back({name, body.size(), body.size()});
  };
  // --- layout version + config echo (validated on restore) ---
  section("config");
  wire::put_u8(body, kCheckpointLayout);
  wire::put_u8(body, static_cast<std::uint8_t>(cfg_.optimizer));
  wire::put_u64(body, cfg_.base.world);
  wire::put_u64(body, cfg_.base.features);
  wire::put_u64(body, cfg_.base.classes);
  wire::put_u64(body, cfg_.base.hidden);
  wire::put_u64(body, cfg_.base.depth);
  // --- schedule cursor + policy state ---
  section("cursor");
  wire::put_u64(body, iteration_);
  wire::put_u8(body, tightened_ ? 1 : 0);
  // --- rank liveness ---
  section("mask");
  const auto& mask = comm_.active_mask();
  wire::put_u64(body, mask.size());
  for (auto m : mask) wire::put_u8(body, m);
  // --- membership ledger (phases, heartbeat/probe cursors) ---
  section("membership");
  comm_.membership().serialize(body);
  // --- recovery counters (reporting continuity across resume) ---
  section("counters");
  const auto& rc = comm_.recovery();
  for (std::uint64_t c :
       {rc.corrupt_injected, rc.drops_injected, rc.truncations_injected,
        rc.straggler_events, rc.decode_retries, rc.decode_failures,
        rc.fallback_steps, rc.degraded_layers, rc.evictions,
        rc.nonfinite_skips, rc.bound_tightenings, rc.checkpoint_saves,
        rc.checkpoint_restores, rc.heartbeat_misses, rc.suspicions,
        rc.deadline_waits, rc.deadline_exclusions, rc.readmissions,
        rc.resyncs}) {
    wire::put_u64(body, c);
  }
  // --- model parameters (replicas are identical; save the lead) ---
  section("params");
  auto& model = lead_replica();
  const auto trainable = model.trainable_layers();
  wire::put_u64(body, trainable.size());
  for (std::size_t li : trainable) {
    auto& layer = model.layer(li);
    ckpt::put_tensor(body, *layer.weight());
    ckpt::put_tensor(body, *layer.bias());
  }
  // --- optimizer state ---
  section("optimizer");
  if (kfac_ != nullptr) {
    kfac_->save_state(body);
  } else {
    sgd_->save_state(body);
  }
  // --- persistent compressor-family state (DESIGN.md §17): the EF
  // residual map / sketch seed counters that make a resumed run's
  // payloads bit-identical to an uninterrupted one ---
  section("compressor");
  wire::put_u8(body, static_cast<std::uint8_t>(cfg_.family));
  auto* stateful =
      dynamic_cast<compress::StatefulCompressor*>(family_compressor_.get());
  wire::put_u8(body, stateful != nullptr ? 1 : 0);
  if (stateful != nullptr) stateful->serialize_state(body);
  // --- RNG streams ---
  section("rng");
  ckpt::put_rng(body, data_rng_.save_state());
  ckpt::put_rng(body, sr_rng_.save_state());
  // --- simulated per-rank clocks (so a resumed run reproduces the exact
  // simulated timeline, and sim-clock-driven traces stay byte-identical) ---
  section("clocks");
  const auto& clocks = comm_.clocks();
  wire::put_u64(body, clocks.world_size());
  for (std::size_t r = 0; r < clocks.world_size(); ++r) {
    wire::put_f64(body, clocks.at(r));
  }
  if (sections != nullptr && !sections->empty()) {
    sections->back().end = body.size();
  }

  ++comm_.recovery().checkpoint_saves;
  obs_.count("recovery.checkpoint_saves");
  obs_.instant(obs::kMainTrack, "trainer.checkpoint_save", "recovery",
               {{"iteration", iteration_}});
  return ckpt::seal_frame(body);
}

void FaultTolerantTrainer::save_checkpoint(const std::string& path) {
  ckpt::write_file(path, checkpoint());
}

void FaultTolerantTrainer::restore(ckpt::ByteView frame) {
  const auto body = ckpt::open_frame(frame);
  wire::Reader reader(body);
  if (reader.u8() != kCheckpointLayout) {
    throw PayloadError("checkpoint: unsupported body layout");
  }
  if (reader.u8() != static_cast<std::uint8_t>(cfg_.optimizer)) {
    throw PayloadError("checkpoint: optimizer kind mismatch");
  }
  for (std::size_t expect :
       {cfg_.base.world, cfg_.base.features, cfg_.base.classes,
        cfg_.base.hidden, cfg_.base.depth}) {
    if (reader.u64() != expect) {
      throw PayloadError("checkpoint: config mismatch");
    }
  }
  iteration_ = reader.u64();
  tightened_ = reader.u8() != 0;
  const auto mask_len = reader.bounded_u64(1 << 20, "active mask");
  if (mask_len != cfg_.base.world) {
    throw PayloadError("checkpoint: active mask size mismatch");
  }
  std::vector<std::uint8_t> mask(mask_len);
  bool any_active = false;
  for (auto& m : mask) {
    m = reader.u8();
    any_active = any_active || m != 0;
  }
  // An all-zero mask can only come from a damaged frame (evict() and
  // set_active_mask both keep the group non-empty), so report it as
  // payload damage rather than letting set_active_mask's admin-API
  // invalid_argument escape a restore.
  if (!any_active) {
    throw PayloadError("checkpoint: active mask empty");
  }
  comm_.set_active_mask(mask);
  // The ledger overwrites the edge-derived membership state set_active_mask
  // just synthesized, restoring the exact phases, miss counts, and probe
  // cursors of the saved run (so a resume mid-suspicion or mid-rejoin
  // continues the identical ladder timeline).
  comm_.membership().deserialize(reader);
  comm_.refresh_participation();
  auto& rc = comm_.recovery();
  for (std::uint64_t* c :
       {&rc.corrupt_injected, &rc.drops_injected, &rc.truncations_injected,
        &rc.straggler_events, &rc.decode_retries, &rc.decode_failures,
        &rc.fallback_steps, &rc.degraded_layers, &rc.evictions,
        &rc.nonfinite_skips, &rc.bound_tightenings, &rc.checkpoint_saves,
        &rc.checkpoint_restores, &rc.heartbeat_misses, &rc.suspicions,
        &rc.deadline_waits, &rc.deadline_exclusions, &rc.readmissions,
        &rc.resyncs}) {
    *c = reader.u64();
  }
  const auto trainable = replicas_[0].trainable_layers();
  const auto saved_layers = reader.bounded_u64(1 << 20, "trainable layers");
  if (saved_layers != trainable.size()) {
    throw PayloadError("checkpoint: trainable layer count mismatch");
  }
  for (std::size_t li : trainable) {
    auto& ref = replicas_[0].layer(li);
    const auto w = ckpt::get_tensor(reader, ref.weight()->shape(), "weight");
    const auto b = ckpt::get_tensor(reader, ref.bias()->shape(), "bias");
    // Restore into every replica (evicted ones stay inactive but benign).
    for (auto& model : replicas_) {
      *model.layer(li).weight() = w;
      *model.layer(li).bias() = b;
    }
  }
  if (kfac_ != nullptr) {
    kfac_->load_state(reader);
  } else {
    sgd_->load_state(reader);
  }
  // --- compressor-family state (DESIGN.md §17) ---
  if (reader.u8() != static_cast<std::uint8_t>(cfg_.family)) {
    throw PayloadError("checkpoint: compressor family mismatch");
  }
  const std::uint8_t has_comp_state = reader.u8();
  if (has_comp_state > 1) {
    throw PayloadError("checkpoint: bad compressor state flag");
  }
  auto* stateful =
      dynamic_cast<compress::StatefulCompressor*>(family_compressor_.get());
  if ((has_comp_state != 0) != (stateful != nullptr)) {
    throw PayloadError("checkpoint: compressor state presence mismatch");
  }
  if (stateful != nullptr) stateful->deserialize_state(reader);
  data_rng_.restore_state(ckpt::get_rng(reader));
  sr_rng_.restore_state(ckpt::get_rng(reader));
  const auto clock_count = reader.bounded_u64(1 << 20, "sim clocks");
  auto& clocks = comm_.clocks();
  if (clock_count != clocks.world_size()) {
    throw PayloadError("checkpoint: sim clock count mismatch");
  }
  clocks.reset();
  for (std::size_t r = 0; r < clock_count; ++r) {
    // advance() onto a reset (0.0) clock restores the saved double exactly.
    clocks.advance(r, reader.f64());
  }
  if (reader.remaining() != 0) {
    throw PayloadError("checkpoint: trailing bytes");
  }
  ++comm_.recovery().checkpoint_restores;
  obs_.count("recovery.checkpoint_restores");
  obs_.instant(obs::kMainTrack, "trainer.checkpoint_restore", "recovery",
               {{"iteration", iteration_}});
}

void FaultTolerantTrainer::load_checkpoint(const std::string& path) {
  const auto frame = ckpt::read_file(path);
  restore(frame);
}

TrainResult train(const FtTrainerConfig& config,
                  const CompressorProvider& provider) {
  FaultTolerantTrainer trainer(config);
  const std::size_t n = config.total_iterations;
  const std::size_t eval_every = std::max<std::size_t>(n / 20, 1);
  TrainResult result;
  double cr_sum = 0.0;
  std::size_t cr_n = 0;
  for (std::size_t t = 0; t < n; ++t) {
    bool compressed = config.compress;
    if (provider) {
      const auto* compressor = provider(t);
      compressed = compressor != nullptr;
      result.loss_curve.push_back(trainer.step(compressor));
    } else {
      result.loss_curve.push_back(trainer.step());
    }
    const auto* kfac = trainer.kfac();
    const auto* sgd = trainer.sgd();
    const std::uint64_t orig = kfac != nullptr ? kfac->last_original_bytes()
                                               : sgd->last_original_bytes();
    const std::uint64_t comp = kfac != nullptr
                                   ? kfac->last_compressed_bytes()
                                   : sgd->last_compressed_bytes();
    if (compressed && comp > 0) {
      cr_sum += static_cast<double>(orig) / static_cast<double>(comp);
      ++cr_n;
    }
    if ((t + 1) % eval_every == 0) {
      result.eval_curve.push_back(trainer.evaluate());
    }
  }
  result.final_accuracy = trainer.evaluate();
  result.final_loss =
      result.loss_curve.empty() ? 0.0 : result.loss_curve.back();
  result.avg_compression_ratio =
      cr_n > 0 ? cr_sum / static_cast<double>(cr_n) : 1.0;
  if (config.base.task == TrainTask::kSpans) {
    result.span = trainer.evaluate_spans();
  }
  return result;
}

}  // namespace compso::core
