// Tests for the COMPSO core: adaptive schedule (Alg. 1), performance
// simulator invariants, and end-to-end training integration.

#include "src/core/adaptive_schedule.hpp"
#include "src/core/perf_sim.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/obs/metrics.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

namespace cc = compso::core;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace cm = compso::comm;

namespace {

// --- adaptive schedule (Algorithm 1) ---

TEST(AdaptiveSchedule, StepLrSwitchesAtFirstDrop) {
  const auto sched = cc::AdaptiveSchedule::step_lr(25);
  const auto early = sched.at(10);
  EXPECT_TRUE(early.use_filter);
  EXPECT_DOUBLE_EQ(early.filter_bound, 4e-3);
  EXPECT_DOUBLE_EQ(early.quant_bound, 4e-3);
  const auto late = sched.at(25);
  EXPECT_FALSE(late.use_filter);          // SR-only conservative mode
  EXPECT_DOUBLE_EQ(late.quant_bound, 2e-3);  // tighter bound
}

TEST(AdaptiveSchedule, SmoothLrDecaysPerStage) {
  const auto sched = cc::AdaptiveSchedule::smooth_lr(1000, 0.5);
  EXPECT_EQ(sched.stage_length(), 250U);
  EXPECT_TRUE(sched.at(0).use_filter);       // stage 0 aggressive
  EXPECT_FALSE(sched.at(300).use_filter);    // later stages conservative
  EXPECT_NEAR(sched.at(300).quant_bound, 2e-3, 1e-12);  // 4e-3 * 0.5
  EXPECT_NEAR(sched.at(999).quant_bound, 5e-4, 1e-12);  // 4e-3 * 0.5^3
  EXPECT_EQ(sched.at(999).stage_index, 3U);
}

TEST(AdaptiveSchedule, BoundsDecreaseMonotonically) {
  const auto sched = cc::AdaptiveSchedule::smooth_lr(800, 0.5);
  for (std::size_t t = 1; t < 800; ++t) {
    EXPECT_LE(sched.at(t).quant_bound, sched.at(t - 1).quant_bound);
  }
}

TEST(AdaptiveSchedule, ParamsFlowIntoCompressor) {
  const auto sched = cc::AdaptiveSchedule::step_lr(25);
  const auto p0 = sched.params_at(0);
  EXPECT_TRUE(p0.use_filter);
  const auto p50 = sched.params_at(50);
  EXPECT_FALSE(p50.use_filter);
  EXPECT_LT(p50.quant_bound, p0.quant_bound);
}

TEST(AdaptiveSchedule, AggressiveCompressesMoreThanConservative) {
  const auto sched = cc::AdaptiveSchedule::step_lr(25);
  ct::Rng rng(7);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  const auto aggressive = cp::make_compso(sched.params_at(0));
  const auto conservative = cp::make_compso(sched.params_at(50));
  EXPECT_GT(aggressive->compression_ratio(grad, rng),
            conservative->compression_ratio(grad, rng));
}

TEST(AdaptiveSchedule, ZeroIterationsThrows) {
  EXPECT_THROW((void)cc::AdaptiveSchedule::smooth_lr(0, 0.5),
               std::invalid_argument);
}

// --- performance simulator ---

cc::PerfConfig rn50_config(std::size_t nodes) {
  cc::PerfConfig cfg;
  cfg.model = compso::nn::resnet50_shape();
  cfg.topo = cm::Topology{.nodes = nodes, .gpus_per_node = 4};
  return cfg;
}

TEST(PerfSim, BreakdownComponentsPositive) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto& b = sim.baseline();
  EXPECT_GT(b.allgather_s, 0.0);
  EXPECT_GT(b.allreduce_s, 0.0);
  EXPECT_GT(b.kfac_compute_s, 0.0);
  EXPECT_GT(b.forward_backward_s, 0.0);
  EXPECT_GT(b.others_s, 0.0);
}

TEST(PerfSim, CommunicationExceedsThirtyPercent) {
  // The paper's motivating observation (§1, Fig. 1) for ResNet-50 /
  // BERT-large style workloads.
  for (auto shape :
       {compso::nn::resnet50_shape(), compso::nn::bert_large_shape()}) {
    cc::PerfConfig cfg;
    cfg.model = shape;
    cfg.topo = cm::Topology{.nodes = 16, .gpus_per_node = 4};
    cfg.batch_per_gpu = shape.name == "ResNet-50" ? 4 : 1;
    cc::PerfSimulator sim(cfg);
    EXPECT_GT(sim.baseline().comm_fraction(), 0.30) << shape.name;
  }
}

TEST(PerfSim, AllgatherShareGrowsWithGpuCount) {
  const auto b16 = cc::PerfSimulator(rn50_config(16)).baseline();
  const auto b64 = cc::PerfSimulator(rn50_config(64)).baseline();
  EXPECT_GT(b64.allgather_s / b64.total_s(), b16.allgather_s / b16.total_s());
}

TEST(PerfSim, KfacComputeShareFallsWithGpuCount) {
  const auto b16 = cc::PerfSimulator(rn50_config(16)).baseline();
  const auto b64 = cc::PerfSimulator(rn50_config(64)).baseline();
  EXPECT_LT(b64.kfac_compute_s / b64.total_s(),
            b16.kfac_compute_s / b16.total_s());
}

TEST(PerfSim, CompsoBeatsBaselinesEndToEnd) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto compso = cp::make_compso({});
  const auto qsgd8 = cp::make_qsgd(8);
  const auto sz = cp::make_sz(4e-3);
  const auto cocktail = cp::make_cocktail(0.2, 8);
  const auto r_compso = sim.with_compressor(*compso, 4);
  EXPECT_GT(r_compso.end_to_end_speedup, 1.3);
  EXPECT_GT(r_compso.end_to_end_speedup,
            sim.with_compressor(*cocktail, 4).end_to_end_speedup);
  EXPECT_GE(r_compso.end_to_end_speedup,
            sim.with_compressor(*sz, 4).end_to_end_speedup * 0.99);
  EXPECT_GE(r_compso.end_to_end_speedup,
            sim.with_compressor(*qsgd8, 4).end_to_end_speedup * 0.99);
}

TEST(PerfSim, AggregationImprovesCommSpeedup) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto compso = cp::make_compso({});
  const auto m1 = sim.with_compressor(*compso, 1);
  const auto m4 = sim.with_compressor(*compso, 4);
  EXPECT_GT(m4.comm_speedup, m1.comm_speedup);
}

TEST(PerfSim, SlowerNetworkGainsMoreFromCompression) {
  // §5.2: the speedup is greater on Slingshot 10 than Slingshot 11.
  cc::PerfConfig c1 = rn50_config(16);
  cc::PerfConfig c2 = rn50_config(16);
  c2.net = cm::NetworkModel::platform2();
  const auto compso = cp::make_compso({});
  const auto r1 = cc::PerfSimulator(c1).with_compressor(*compso, 4);
  const auto r2 = cc::PerfSimulator(c2).with_compressor(*compso, 4);
  EXPECT_GT(r1.end_to_end_speedup, r2.end_to_end_speedup);
}

TEST(PerfSim, CompressionRatioNearPaperHeadline) {
  cc::PerfSimulator sim(rn50_config(16));
  const auto compso = cp::make_compso({});
  const auto r = sim.with_compressor(*compso, 4);
  // Paper: average CR ~19-24x across models; demand the right ballpark.
  EXPECT_GT(r.compression_ratio, 12.0);
  EXPECT_LT(r.compression_ratio, 40.0);
}

// --- trainer integration ---

/// Uncompressed distributed KFAC on the default cluster task.
cc::FtTrainerConfig kfac_run(std::size_t iterations, double lr,
                             std::vector<std::size_t> milestones) {
  cc::FtTrainerConfig cfg;
  cfg.total_iterations = iterations;
  cfg.base_lr = lr;
  cfg.lr_milestones = std::move(milestones);
  cfg.kfac.damping = 0.03;
  cfg.compress = false;
  return cfg;
}

TEST(TrainerIntegration, WorldMustFillWholeNodes) {
  // Topology::with_gpus rounds 5-7 and 9-11 GPUs up to whole 4-GPU nodes;
  // the trainer rejects such a world instead of building a larger
  // Communicator than it has replicas for.
  for (const std::size_t world : {0UL, 5UL, 6UL, 7UL, 9UL, 11UL}) {
    auto cfg = kfac_run(1, 0.02, {});
    cfg.base.world = world;
    try {
      cc::FaultTolerantTrainer trainer(cfg);
      ADD_FAILURE() << "world " << world << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("whole 4-GPU nodes"),
                std::string::npos)
          << e.what();
    }
  }
  for (const std::size_t world : {1UL, 3UL, 4UL, 8UL}) {
    auto cfg = kfac_run(1, 0.02, {});
    cfg.base.world = world;
    EXPECT_NO_THROW(cc::FaultTolerantTrainer trainer(cfg)) << world;
  }
}

TEST(TrainerIntegration, KfacConvergesOnClusters) {
  const auto r = cc::train(kfac_run(60, 0.02, {60}));
  EXPECT_GT(r.final_accuracy, 0.9);
  EXPECT_LT(r.final_loss, r.loss_curve.front());
}

TEST(TrainerIntegration, NaturalGradientBoundKeepsOutlierStepsClean) {
  // A small KFAC+COMPSO run at lr 0.01. Without the bound on a step's
  // Σ v·g (optim::kMaxNaturalGradSq), seed 7 blows up: its loss goes
  // non-finite at step 188 and 113 of its 300 steps take a non-finite
  // skip. With it, five outlier steps are scaled down and every step is
  // clean. Seed 1 never reaches the bound.
  for (const std::uint64_t seed : {1U, 7U}) {
    cc::FtTrainerConfig cfg;
    cfg.base = {.world = 2,
                .batch_per_rank = 16,
                .features = 8,
                .classes = 4,
                .hidden = 16,
                .depth = 3,
                .noise = 0.7F,
                .seed = seed};
    cfg.base_lr = 0.01;
    cfg.recovery.enabled = true;
    cc::FaultTolerantTrainer trainer(cfg);
    compso::obs::MetricsRegistry registry;
    trainer.set_obs({.metrics = &registry});
    trainer.run(300);
    EXPECT_EQ(trainer.comm().recovery().nonfinite_skips, 0U) << seed;
    EXPECT_EQ(registry.counter("kfac.clipped_updates") > 0, seed == 7)
        << seed;
    EXPECT_GT(trainer.evaluate(), 0.85) << seed;
  }
}

TEST(TrainerIntegration, KfacWithCompsoMatchesNoCompression) {
  const auto cfg = kfac_run(60, 0.02, {40});
  const auto base = cc::train(cfg);
  const auto compso = cp::make_compso({});
  const auto comp =
      cc::train(cfg, [&](std::size_t) { return compso.get(); });
  EXPECT_GT(comp.final_accuracy, base.final_accuracy - 0.05);
  EXPECT_GT(comp.avg_compression_ratio, 2.0);
}

TEST(TrainerIntegration, DeterministicAcrossRuns) {
  const auto cfg = kfac_run(10, 0.02, {40});
  const auto r1 = cc::train(cfg);
  const auto r2 = cc::train(cfg);
  ASSERT_EQ(r1.loss_curve.size(), r2.loss_curve.size());
  for (std::size_t i = 0; i < r1.loss_curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.loss_curve[i], r2.loss_curve[i]);
  }
}

TEST(TrainerIntegration, SpanTaskProducesMetrics) {
  auto cfg = kfac_run(120, 0.02, {100});
  cfg.base.task = cc::TrainTask::kSpans;
  cfg.base.classes = 12;  // positions
  cfg.base.hidden = 32;
  cfg.base.noise = 0.55F;
  cfg.base.seed = 99;
  const auto r = cc::train(cfg);
  EXPECT_GT(r.span.f1, 50.0);  // learnable structure is learned
  EXPECT_GE(r.span.f1, r.span.exact_match);
}

// The config's compressor (compress = true, kCompso) is Alg. 1 itself:
// under StepLR the trainer's adaptive schedule has exactly two stages, so
// it matches a provider switching between the two stage compressors bit
// for bit — loss curve, eval curve and mean compression ratio.
TEST(TrainerIntegration, ConfigScheduleMatchesTwoStageProvider) {
  auto cfg = kfac_run(40, 0.02, {25});
  cfg.kfac.aggregation = 4;
  cfg.compress = true;
  const auto sched = cc::AdaptiveSchedule::step_lr(25);
  const auto own = cc::train(cfg);
  const auto aggressive = cp::make_compso(sched.params_at(0));
  const auto conservative = cp::make_compso(sched.params_at(25));
  const auto provided = cc::train(cfg, [&](std::size_t t) {
    return sched.at(t).use_filter ? aggressive.get() : conservative.get();
  });
  ASSERT_EQ(own.loss_curve.size(), 40U);
  EXPECT_EQ(own.loss_curve, provided.loss_curve);
  EXPECT_EQ(own.eval_curve, provided.eval_curve);
  EXPECT_EQ(own.avg_compression_ratio, provided.avg_compression_ratio);
  EXPECT_GT(own.avg_compression_ratio, 2.0);
}

}  // namespace

namespace {

TEST(PerfSimOverlap, OverlapHidesCommunication) {
  auto cfg = rn50_config(16);
  cc::PerfSimulator exposed(cfg);
  cfg.comm_overlap = 0.5;
  cc::PerfSimulator overlapped(cfg);
  EXPECT_LT(overlapped.baseline().allgather_s,
            exposed.baseline().allgather_s);
  EXPECT_LT(overlapped.baseline().total_s(), exposed.baseline().total_s());
}

TEST(PerfSimOverlap, HiddenTimeBoundedByCompute) {
  auto cfg = rn50_config(16);
  cfg.comm_overlap = 1.0;
  cc::PerfSimulator sim(cfg);
  const auto& b = sim.baseline();
  cfg.comm_overlap = 0.0;
  const auto b0 = cc::PerfSimulator(cfg).baseline();
  const double hidden = b0.allgather_s - b.allgather_s;
  EXPECT_LE(hidden, b.kfac_compute_s + b.forward_backward_s + 1e-12);
  EXPECT_GE(b.allgather_s, 0.0);
}

TEST(PerfSimOverlap, CompressionGainShrinksWithOverlap) {
  const auto compso = cp::make_compso({});
  auto cfg = rn50_config(16);
  const double e0 =
      cc::PerfSimulator(cfg).with_compressor(*compso, 4).end_to_end_speedup;
  cfg.comm_overlap = 0.75;
  const double e75 =
      cc::PerfSimulator(cfg).with_compressor(*compso, 4).end_to_end_speedup;
  EXPECT_GT(e0, e75);
  EXPECT_GE(e75, 1.0);
}

}  // namespace
