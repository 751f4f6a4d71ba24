// End-to-end integration: the full COMPSO workflow a user would run —
// train distributed KFAC with the adaptive per-iteration compressor, feed
// auto-tuned bounds to it, take the §4.4 decision on warm-up gradients,
// and verify both the learning outcome and the communication savings.

#include "src/core/bound_tuner.hpp"
#include "src/core/perf_sim.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/perf/perf_model.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

namespace cc = compso::core;
namespace cm = compso::comm;
namespace cp = compso::compress;
namespace ct = compso::tensor;

namespace {

TEST(Integration, ScheduledCompressionTrainsToBaselineAccuracy) {
  cc::FtTrainerConfig cfg;
  cfg.base.noise = 1.1F;
  cfg.base.classes = 8;
  cfg.base.hidden = 24;
  cfg.total_iterations = 80;
  cfg.base_lr = 0.01;
  cfg.lr_milestones = {50};
  cfg.kfac.damping = 0.1;
  cfg.kfac.aggregation = 4;
  cfg.compress = false;
  const auto base = cc::train(cfg);
  cfg.compress = true;
  const auto compressed = cc::train(cfg);
  EXPECT_GT(compressed.final_accuracy, base.final_accuracy - 0.04);
  EXPECT_GT(compressed.avg_compression_ratio, 2.0);
}

TEST(Integration, TunedBoundsFeedTheCompressor) {
  // tune_bounds -> CompsoParams -> training: the auto-tuned configuration
  // must behave like a hand-tuned one.
  ct::Rng rng(6);
  const auto sample = ct::synthetic_gradient(
      1 << 15, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig tuner_cfg;
  tuner_cfg.max_relative_l2 = 0.10;
  tuner_cfg.max_cosine_distortion = 0.01;
  const auto tuned = cc::tune_bounds(sample, tuner_cfg, rng);

  cp::CompsoParams params;
  params.filter_bound = tuned.filter_bound;
  params.quant_bound = tuned.quant_bound;
  const auto compressor = cp::make_compso(params);

  cc::FtTrainerConfig cfg;
  cfg.base.noise = 1.1F;
  cfg.total_iterations = 80;
  cfg.base_lr = 0.01;
  cfg.lr_milestones = {50};
  cfg.kfac.damping = 0.1;
  const auto result =
      cc::train(cfg, [&](std::size_t) { return compressor.get(); });
  EXPECT_GT(result.final_accuracy, 0.9);
}

TEST(Integration, PerfModelDecisionMatchesSimulatorOptimum) {
  // The §4.4 decision pipeline end-to-end: the aggregation factor chosen
  // by the perf model should realize an end-to-end speedup within a few
  // percent of the best factor the simulator can find by sweeping.
  const auto shape = compso::nn::resnet50_shape();
  cc::PerfConfig pcfg;
  pcfg.model = shape;
  pcfg.topo = cm::Topology{.nodes = 16, .gpus_per_node = 4};
  const cc::PerfSimulator sim(pcfg);
  const auto compso = cp::make_compso({});

  double best = 0.0;
  for (std::size_t m : {1UL, 2UL, 4UL, 8UL, 16UL, 32UL}) {
    best = std::max(best,
                    sim.with_compressor(*compso, m).end_to_end_speedup);
  }

  const cm::Communicator comm(pcfg.topo, pcfg.net);
  const compso::perf::CommLookupTable table(comm);
  ct::Rng rng(7);
  const auto sample = ct::synthetic_gradient(
      1 << 16, ct::GradientProfile::kfac(), rng);
  const auto profile = compso::perf::profile_warmup(
      *compso, sample, pcfg.dev, sim.baseline().allgather_s,
      sim.baseline().total_s(), 1, rng);
  const auto decision = compso::perf::choose_aggregation_factor(
      sim.layer_bytes(), profile, *compso, pcfg.dev, table);
  const double realized =
      sim.with_compressor(*compso, decision.factor).end_to_end_speedup;
  EXPECT_GT(realized, best * 0.95);
}

TEST(Integration, BreakdownTotalsAreConsistent) {
  // Compressed-iteration breakdown components must sum to total_s and the
  // non-comm components must be identical to the baseline's.
  const auto shape = compso::nn::bert_large_shape();
  cc::PerfConfig pcfg;
  pcfg.model = shape;
  pcfg.batch_per_gpu = 1;
  const cc::PerfSimulator sim(pcfg);
  const auto compso = cp::make_compso({});
  const auto r = sim.with_compressor(*compso, 4);
  const auto& b = r.breakdown;
  EXPECT_NEAR(b.total_s(),
              b.allgather_s + b.allreduce_s + b.kfac_compute_s +
                  b.forward_backward_s + b.others_s + b.comp_s + b.decomp_s,
              1e-12);
  EXPECT_DOUBLE_EQ(b.forward_backward_s,
                   sim.baseline().forward_backward_s);
  EXPECT_DOUBLE_EQ(b.kfac_compute_s, sim.baseline().kfac_compute_s);
  EXPECT_LT(b.allgather_s, sim.baseline().allgather_s);
  EXPECT_GT(b.comp_s, 0.0);
  EXPECT_GT(b.decomp_s, 0.0);
}

TEST(Integration, SpanTaskSgdAndKfacBothLearn) {
  cc::FtTrainerConfig kc;
  kc.base = {.world = 4,
             .batch_per_rank = 16,
             .features = 24,
             .classes = 12,  // positions
             .hidden = 32,
             .depth = 2,
             .noise = 0.6F,
             .seed = 99,
             .task = cc::TrainTask::kSpans};
  kc.compress = false;
  auto sc = kc;
  kc.total_iterations = 100;
  kc.base_lr = 0.02;
  kc.lr_milestones = {80};
  kc.kfac.damping = 0.05;
  sc.optimizer = cc::OptimizerKind::kSgd;
  sc.total_iterations = 150;
  sc.base_lr = 0.05;
  sc.lr_milestones = {120};
  const auto kfac = cc::train(kc);
  const auto sgd = cc::train(sc);
  EXPECT_GT(kfac.span.f1, 70.0);
  EXPECT_GT(sgd.span.f1, 70.0);
}

}  // namespace
