// Tests for the §7 future-work extensions: the automatic bound tuner and
// factor (A/G) compression in distributed KFAC.

#include "src/comm/communicator.hpp"
#include "src/core/bound_tuner.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cc = compso::core;
namespace cm = compso::comm;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace nn = compso::nn;
namespace opt = compso::optim;

namespace {

// --- bound tuner ---

TEST(BoundTuner, DistortionMetricsKnownValues) {
  std::vector<float> a{1.0F, 0.0F};
  std::vector<float> same{1.0F, 0.0F};
  const auto d0 = cc::measure_distortion(a, same);
  EXPECT_NEAR(d0.relative_l2, 0.0, 1e-12);
  EXPECT_NEAR(d0.cosine_distortion, 0.0, 1e-9);
  std::vector<float> orth{0.0F, 1.0F};
  const auto d1 = cc::measure_distortion(a, orth);
  EXPECT_NEAR(d1.cosine_distortion, 1.0, 1e-9);
  EXPECT_NEAR(d1.relative_l2, std::sqrt(2.0), 1e-6);
}

TEST(BoundTuner, RespectsBudget) {
  ct::Rng rng(1);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig cfg;
  cfg.max_relative_l2 = 0.05;
  cfg.max_cosine_distortion = 0.005;
  const auto tuned = cc::tune_bounds(grad, cfg, rng);
  EXPECT_LE(tuned.achieved_relative_l2, cfg.max_relative_l2);
  EXPECT_LE(tuned.achieved_cosine_distortion, cfg.max_cosine_distortion);
  EXPECT_GT(tuned.quant_bound, 0.0);
  EXPECT_GT(tuned.achieved_compression_ratio, 1.0);
}

TEST(BoundTuner, LooserBudgetGivesLooserBoundsAndHigherRatio) {
  ct::Rng rng(2);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig tight;
  tight.max_relative_l2 = 0.01;
  tight.max_cosine_distortion = 1e-3;
  cc::BoundTunerConfig loose;
  loose.max_relative_l2 = 0.20;
  loose.max_cosine_distortion = 0.05;
  ct::Rng rng_a(3), rng_b(3);
  const auto t = cc::tune_bounds(grad, tight, rng_a);
  const auto l = cc::tune_bounds(grad, loose, rng_b);
  EXPECT_GT(l.quant_bound, t.quant_bound);
  EXPECT_GT(l.achieved_compression_ratio, t.achieved_compression_ratio);
}

TEST(BoundTuner, TunedBoundBeatsDefaultWhenBudgetAllows) {
  // With a generous budget the tuner should find a bound looser than the
  // paper's empirical 4e-3 default.
  ct::Rng rng(4);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig cfg;
  cfg.max_relative_l2 = 0.30;
  cfg.max_cosine_distortion = 0.05;
  const auto tuned = cc::tune_bounds(grad, cfg, rng);
  EXPECT_GT(tuned.quant_bound, 4e-3);
}

TEST(BoundTuner, ImpossibleBudgetReturnsTightestBound) {
  ct::Rng rng(5);
  const auto grad =
      ct::synthetic_gradient(1 << 14, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig cfg;
  cfg.max_relative_l2 = 1e-9;  // unreachable for lossy compression
  cfg.max_cosine_distortion = 1e-12;
  const auto tuned = cc::tune_bounds(grad, cfg, rng);
  EXPECT_GT(tuned.achieved_relative_l2, cfg.max_relative_l2);
  EXPECT_NEAR(tuned.quant_bound, cfg.min_bound, cfg.min_bound * 0.5);
}

TEST(BoundTuner, BadInputsThrow) {
  ct::Rng rng(6);
  std::vector<float> empty;
  EXPECT_THROW((void)cc::tune_bounds(empty, {}, rng), std::invalid_argument);
  std::vector<float> some(10, 1.0F);
  cc::BoundTunerConfig bad;
  bad.min_bound = 1.0;
  bad.max_bound = 0.5;
  EXPECT_THROW((void)cc::tune_bounds(some, bad, rng), std::invalid_argument);
}

// --- factor compression ---

struct KfacFixture {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  nn::ClusterDataset dataset{8, 3, 0.4F, 77};

  explicit KfacFixture(std::size_t world) {
    for (std::size_t r = 0; r < world; ++r) {
      ct::Rng rng(555);
      replicas.push_back(nn::make_mlp_classifier(8, 12, 3, 1, rng));
    }
    for (auto& m : replicas) ptrs.push_back(&m);
  }

  void fwd_bwd(ct::Rng& data_rng) {
    for (auto& m : replicas) {
      const auto batch = dataset.sample(8, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
  }
};

TEST(FactorCompression, BytesTrackedAndReduced) {
  KfacFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  cp::CompsoParams p;
  p.use_filter = false;
  p.quant_bound = 1e-3;
  const auto factor_comp = cp::make_compso(p);
  kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  f.fwd_bwd(data_rng);
  kfac.step(0, 0.01, nullptr, sr_rng);
  EXPECT_GT(kfac.last_factor_original_bytes(), 0U);
  EXPECT_LT(kfac.last_factor_compressed_bytes(),
            kfac.last_factor_original_bytes());
}

TEST(FactorCompression, DisabledByDefault) {
  KfacFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  ct::Rng data_rng(1), sr_rng(2);
  f.fwd_bwd(data_rng);
  kfac.step(0, 0.01, nullptr, sr_rng);
  EXPECT_EQ(kfac.last_factor_compressed_bytes(), 0U);
}

TEST(FactorCompression, TrainingStillConverges) {
  KfacFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  cp::CompsoParams p;
  p.use_filter = false;
  p.quant_bound = 1e-3;
  const auto factor_comp = cp::make_compso(p);
  kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  ct::Rng eval_rng(9);
  for (std::size_t t = 0; t < 50; ++t) {
    f.fwd_bwd(data_rng);
    kfac.step(t, 0.01, nullptr, sr_rng);
  }
  const auto batch = f.dataset.sample(256, eval_rng);
  EXPECT_GT(nn::accuracy(f.replicas[0].forward(batch.x), batch.labels), 0.9);
}

}  // namespace
