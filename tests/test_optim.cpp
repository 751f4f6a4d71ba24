// Tests for optimizers: LR schedulers, KFAC layer math, distributed KFAC
// and SGD (replica consistency, compression round-trips, convergence).

#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/metrics.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/kfac.hpp"
#include "src/optim/lr_scheduler.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

namespace opt = compso::optim;
namespace nn = compso::nn;
namespace ct = compso::tensor;
namespace cm = compso::comm;

namespace {

TEST(StepLr, DecaysAtMilestones) {
  opt::StepLr lr(1.0, {20, 10});
  EXPECT_DOUBLE_EQ(lr.lr(0), 1.0);
  EXPECT_DOUBLE_EQ(lr.lr(9), 1.0);
  EXPECT_DOUBLE_EQ(lr.lr(10), 0.1);
  EXPECT_DOUBLE_EQ(lr.lr(25), 0.01);
  EXPECT_EQ(lr.first_drop(), 10U);
}

TEST(StepLr, Validation) {
  EXPECT_THROW(opt::StepLr(0.0, {}), std::invalid_argument);
}

// --- KFAC layer math ---

/// One batch's factor update as DistKfac runs it: both covariances packed
/// by syrk_tn_packed (A = a^T a / B, G = B * g^T g), then blended.
void blend_batch(opt::KfacLayerState& st, const ct::Tensor& a,
                 const ct::Tensor& g, double stat_decay) {
  const auto batch = static_cast<float>(a.rows());
  std::vector<float> cov_a(ct::packed_size(a.cols()));
  std::vector<float> cov_g(ct::packed_size(g.cols()));
  ct::syrk_tn_packed(a, 1.0F / batch, cov_a);
  ct::syrk_tn_packed(g, batch, cov_g);
  st.blend_packed_factors(cov_a, cov_g, stat_decay);
}

TEST(KfacState, FactorsAreRunningAverages) {
  opt::KfacLayerState st(3, 2);
  ct::Tensor a1({4, 3});
  a1.fill(1.0F);
  ct::Tensor g1({4, 2});
  g1.fill(0.5F);
  blend_batch(st, a1, g1, 0.9);
  const float a_first = st.factor_a().at(0, 0);  // 4*1/4 = 1
  EXPECT_NEAR(a_first, 1.0F, 1e-5);
  // Second update with zeros blends 0.9 * old.
  ct::Tensor a2({4, 3}), g2({4, 2});
  blend_batch(st, a2, g2, 0.9);
  EXPECT_NEAR(st.factor_a().at(0, 0), 0.9F, 1e-5);
}

TEST(KfacState, PreconditionIdentityFactorsIsScaledGradient) {
  // With A = I and G = I, Eq. 2 reduces to K = Grad / (1 + gamma).
  opt::KfacLayerState st(3, 2);
  ct::Tensor a({3, 3});  // batch=3 identity rows -> a^T a / 3 = I/ ... use eye
  // Feed activations such that A == I: a = sqrt(3) * I rows.
  for (std::size_t i = 0; i < 3; ++i) {
    a.at(i, i) = std::sqrt(3.0F);
  }
  ct::Tensor g({3, 2});
  // g^T g * batch = I requires g columns orthonormal / sqrt(batch):
  g.at(0, 0) = 1.0F / std::sqrt(3.0F);
  g.at(1, 1) = 1.0F / std::sqrt(3.0F);
  blend_batch(st, a, g, 0.0);
  st.refresh_eigen();
  ct::Tensor grad({2, 3});
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] = static_cast<float>(i + 1);
  }
  const double gamma = 0.5;
  const ct::Tensor k = st.precondition(grad, gamma);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(k[i], grad[i] / (1.0 + gamma), 1e-4) << i;
  }
}

TEST(KfacState, PreconditionReducesConditioning) {
  // On an anisotropic quadratic, the preconditioned direction should be
  // closer to the true minimum direction than the raw gradient.
  ct::Rng rng(11);
  opt::KfacLayerState st(4, 3);
  // Random correlated activations -> ill-conditioned A.
  ct::Tensor a({64, 4});
  for (std::size_t r = 0; r < 64; ++r) {
    const float base = rng.normal();
    a.at(r, 0) = base * 3.0F;
    a.at(r, 1) = base * 2.9F + rng.normal() * 0.1F;
    a.at(r, 2) = rng.normal() * 0.2F;
    a.at(r, 3) = 1.0F;
  }
  ct::Tensor g({64, 3});
  rng.fill_normal(g.span(), 0.0F, 0.1F);
  blend_batch(st, a, g, 0.0);
  st.refresh_eigen();
  ct::Tensor grad({3, 4});
  rng.fill_normal(grad.span());
  const ct::Tensor k = st.precondition(grad, 1e-3);
  // The preconditioner must damp the dominant (high-curvature) subspace:
  // components along the large-eigenvalue directions shrink the most, so
  // the output norm is much smaller than a plain 1/gamma scaling.
  EXPECT_GT(ct::l2_norm(k.span()), 0.0);
  EXPECT_TRUE(std::isfinite(ct::l2_norm(k.span())));
}

TEST(KfacState, RefreshBeforeStatsThrows) {
  opt::KfacLayerState st(3, 2);
  EXPECT_THROW(st.refresh_eigen(), std::logic_error);
}

TEST(KfacState, PreconditionBeforeEigenThrows) {
  opt::KfacLayerState st(3, 2);
  ct::Tensor a({2, 3}), g({2, 2});
  blend_batch(st, a, g, 0.9);
  ct::Tensor grad({2, 3});
  EXPECT_THROW((void)st.precondition(grad, 0.1), std::logic_error);
}

TEST(KfacHelpers, CombinedGradientLayout) {
  ct::Rng rng(12);
  nn::Linear l(3, 2, rng);
  ct::Tensor x({4, 3});
  rng.fill_normal(x.span());
  l.forward(x);
  ct::Tensor gout({4, 2});
  rng.fill_normal(gout.span());
  l.backward(gout);
  ct::Tensor c;
  opt::combined_gradient_into(l, c);
  EXPECT_EQ(c.rows(), 2U);
  EXPECT_EQ(c.cols(), 4U);
  EXPECT_FLOAT_EQ(c.at(1, 3), (*l.bias_grad())[1]);
  EXPECT_FLOAT_EQ(c.at(0, 2), l.weight_grad()->at(0, 2));
}

TEST(KfacHelpers, ApplyCombinedUpdate) {
  ct::Rng rng(13);
  nn::Linear l(2, 2, rng);
  const float w00 = l.weight()->at(0, 0);
  const float b0 = (*l.bias())[0];
  ct::Tensor k({2, 3});
  k.fill(1.0F);
  opt::apply_combined_update(l, k, 0.1);
  EXPECT_NEAR(l.weight()->at(0, 0), w00 - 0.1F, 1e-6);
  EXPECT_NEAR((*l.bias())[0], b0 - 0.1F, 1e-6);
}

// --- distributed optimizers ---

struct DistFixture {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  nn::ClusterDataset dataset{8, 3, 0.4F, 77};

  explicit DistFixture(std::size_t world) {
    for (std::size_t r = 0; r < world; ++r) {
      ct::Rng rng(555);
      replicas.push_back(nn::make_mlp_classifier(8, 12, 3, 1, rng));
    }
    for (auto& m : replicas) ptrs.push_back(&m);
  }

  void run_fwd_bwd(ct::Rng& data_rng) {
    for (auto& m : replicas) {
      const auto batch = dataset.sample(8, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
  }

  double max_replica_divergence() {
    double worst = 0.0;
    for (std::size_t li : replicas[0].trainable_layers()) {
      const auto& w0 = *replicas[0].layer(li).weight();
      for (std::size_t r = 1; r < replicas.size(); ++r) {
        const auto& wr = *replicas[r].layer(li).weight();
        worst = std::max(worst, ct::max_abs_error(w0.span(), wr.span()));
      }
    }
    return worst;
  }
};

TEST(DistKfac, ReplicasStayIdenticalWithCompression) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  const auto compso = compso::compress::make_compso({});
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 5; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compso.get(), sr_rng);
    // Compression error is shared state after the allgather: replicas must
    // remain bit-identical.
    EXPECT_EQ(f.max_replica_divergence(), 0.0) << "t=" << t;
  }
}

TEST(DistKfac, CompressionReducesBytes) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  const auto compso = compso::compress::make_compso({});
  ct::Rng data_rng(1), sr_rng(2);
  f.run_fwd_bwd(data_rng);
  kfac.step(0, 0.01, nullptr, sr_rng);
  const auto orig = kfac.last_compressed_bytes();
  f.run_fwd_bwd(data_rng);
  kfac.step(1, 0.01, compso.get(), sr_rng);
  EXPECT_LT(kfac.last_compressed_bytes(), orig);
  EXPECT_EQ(kfac.last_original_bytes(), orig);
}

TEST(DistKfac, OwnerAssignmentRoundRobin) {
  DistFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({}, comm, f.ptrs);
  EXPECT_EQ(kfac.layer_count(), 2U);
  EXPECT_EQ(kfac.owner_of(0), 0U);
  EXPECT_EQ(kfac.owner_of(1), 1U);
}

TEST(DistKfac, RequiresOneReplicaPerRank) {
  DistFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  EXPECT_THROW(opt::DistKfac({}, comm, f.ptrs), std::invalid_argument);
}

TEST(DistKfac, ZeroRefreshPeriodThrows) {
  // A refresh period of 0 would reach `iteration % 0` in step().
  DistFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  try {
    opt::DistKfac kfac({.eigen_refresh_every = 0}, comm, f.ptrs);
    ADD_FAILURE() << "eigen_refresh_every = 0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("eigen_refresh_every"),
              std::string::npos)
        << e.what();
  }
}

TEST(DistKfac, StepBeforeBackwardThrows) {
  DistFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({}, comm, f.ptrs);
  ct::Rng rng(3);
  EXPECT_THROW(kfac.step(0, 0.01, nullptr, rng), std::logic_error);
}

/// Every trainable layer's weights and bias of `m` in the combined layout
/// (rows of [W | b]), layer after layer.
std::vector<float> combined_params(nn::Model& m) {
  std::vector<float> out;
  for (std::size_t li : m.trainable_layers()) {
    const ct::Tensor& w = *m.layer(li).weight();
    const ct::Tensor& b = *m.layer(li).bias();
    for (std::size_t i = 0; i < w.rows(); ++i) {
      for (std::size_t j = 0; j < w.cols(); ++j) out.push_back(w.at(i, j));
      out.push_back(b[i]);
    }
  }
  return out;
}

/// Forward/backward on every replica with the loss gradient scaled by
/// `k`; returns the rank-averaged gradient in combined_params' layout.
std::vector<double> scaled_fwd_bwd(DistFixture& f, ct::Rng& data_rng,
                                   float k) {
  std::vector<double> mean;
  for (auto& m : f.replicas) {
    const auto batch = f.dataset.sample(8, data_rng);
    const auto logits = m.forward(batch.x);
    ct::Tensor grad;
    nn::softmax_cross_entropy(logits, batch.labels, grad);
    for (float& g : grad.span()) g *= k;
    m.backward(grad);
    std::vector<float> flat;
    for (std::size_t li : m.trainable_layers()) {
      ct::Tensor c;
      opt::combined_gradient_into(m.layer(li), c);
      flat.insert(flat.end(), c.span().begin(), c.span().end());
    }
    mean.resize(flat.size(), 0.0);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      mean[i] += flat[i] / static_cast<double>(f.replicas.size());
    }
  }
  return mean;
}

TEST(DistKfac, NaturalGradientBoundScalesAnOutlierStep) {
  // Step 1 reuses step 0's eigenbasis, so its v is linear in its
  // gradient: a loss gradient scaled by k scales v by k and Σ v·g by k².
  // step1 returns what step 1 moved the weights beyond step 0's momentum
  // share (-lr · scale · v), the step's averaged gradient, and the
  // clipped-update count.
  constexpr double kLr = 0.01;
  const auto step1 = [](float k) {
    DistFixture f(2);
    cm::Communicator comm(cm::Topology::with_gpus(2),
                          cm::NetworkModel::platform1());
    compso::obs::MetricsRegistry registry;
    comm.set_obs({.metrics = &registry});
    opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
    ct::Rng data_rng(1), rng(2);
    const auto w0 = combined_params(f.replicas[0]);
    scaled_fwd_bwd(f, data_rng, 1.0F);
    kfac.step(0, kLr, nullptr, rng);
    const auto w1 = combined_params(f.replicas[0]);
    const auto g = scaled_fwd_bwd(f, data_rng, k);
    kfac.step(1, kLr, nullptr, rng);
    const auto w2 = combined_params(f.replicas[0]);
    std::vector<double> moved(w0.size());
    for (std::size_t i = 0; i < moved.size(); ++i) {
      moved[i] = (static_cast<double>(w2[i]) - w1[i]) -
                 0.9 * (static_cast<double>(w1[i]) - w0[i]);
    }
    return std::tuple{moved, g, registry.counter("kfac.clipped_updates")};
  };

  const auto [plain, g, plain_clips] = step1(1.0F);
  double vg = 0.0;
  for (std::size_t i = 0; i < plain.size(); ++i) vg -= plain[i] * g[i];
  vg /= kLr;
  ASSERT_GT(vg, 0.0);
  ASSERT_LT(vg, opt::kMaxNaturalGradSq);
  EXPECT_EQ(plain_clips, 0U);

  // k² · Σ v·g is 10^4 times the bound, so the step is scaled by
  // sqrt(bound / (k² · Σ v·g)), which brings scale² · k² · Σ v·g down to
  // the bound. It moves the weights r = k · scale = sqrt(bound / Σ v·g)
  // times as far as the plain step, in the same direction.
  const double r = std::sqrt(opt::kMaxNaturalGradSq / vg);
  const auto [outlier, gk, outlier_clips] =
      step1(static_cast<float>(100.0 * r));
  EXPECT_EQ(outlier_clips, 1U);
  double peak = 0.0;
  for (const double m : plain) peak = std::max(peak, std::abs(r * m));
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(outlier[i], r * plain[i], 1e-3 * peak) << "weight " << i;
  }
}

TEST(DistSgd, MatchesSingleProcessSgdWithoutCompression) {
  // Distributed SGD over 4 ranks with the same total batch must track a
  // reasonable descent (sanity on the allreduce averaging).
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistSgd sgd(comm, f.ptrs);
  ct::Rng data_rng(1), sr_rng(2);
  double first = 0.0, last = 0.0;
  for (std::size_t t = 0; t < 60; ++t) {
    double loss = 0.0;
    for (auto& m : f.replicas) {
      const auto batch = f.dataset.sample(8, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      loss += nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
    if (t == 0) first = loss;
    last = loss;
    sgd.step(0.05, nullptr, sr_rng);
  }
  EXPECT_LT(last, first * 0.3);
  EXPECT_EQ(f.max_replica_divergence(), 0.0);
}

TEST(DistSgd, ErrorFeedbackRecoversTopKLoss) {
  // With aggressive top-k sparsification, error feedback should keep the
  // final loss close to (or better than) no-EF.
  auto run = [](bool ef) {
    DistFixture f(2);
    cm::Communicator comm(cm::Topology::with_gpus(2),
                          cm::NetworkModel::platform1());
    opt::DistSgd sgd(comm, f.ptrs);
    const auto topk =
        ef ? compso::compress::make_error_feedback(
                 compso::compress::make_topk(0.1))
           : compso::compress::make_topk(0.1);
    ct::Rng data_rng(1), sr_rng(2);
    double last = 0.0;
    for (std::size_t t = 0; t < 80; ++t) {
      double loss = 0.0;
      for (auto& m : f.replicas) {
        const auto batch = f.dataset.sample(8, data_rng);
        const auto logits = m.forward(batch.x);
        ct::Tensor grad;
        loss += nn::softmax_cross_entropy(logits, batch.labels, grad);
        m.backward(grad);
      }
      last = loss / 2.0;
      sgd.step(0.05, topk.get(), sr_rng);
    }
    return last;
  };
  const double with_ef = run(true);
  const double without_ef = run(false);
  EXPECT_LT(with_ef, without_ef * 1.5);
}

TEST(DistSgd, IdentityCompressorMatchesUncompressedAtWorldThree) {
  // One averaging rule for the compressed exchange and the raw allreduce:
  // a lossless compressor lands on the uncompressed run's bits even where
  // 1/participants is inexact.
  const auto run = [](const compso::compress::GradientCompressor* c) {
    DistFixture f(3);
    cm::Communicator comm(cm::Topology::with_gpus(3),
                          cm::NetworkModel::platform1());
    opt::DistSgd sgd(comm, f.ptrs);
    ct::Rng data_rng(1), sr_rng(2);
    for (std::size_t t = 0; t < 10; ++t) {
      f.run_fwd_bwd(data_rng);
      sgd.step(0.05, c, sr_rng);
    }
    std::vector<float> params;
    for (std::size_t li : f.replicas[0].trainable_layers()) {
      auto& l = f.replicas[0].layer(li);
      params.insert(params.end(), l.weight()->span().begin(),
                    l.weight()->span().end());
      params.insert(params.end(), l.bias()->span().begin(),
                    l.bias()->span().end());
    }
    return params;
  };
  const auto identity = compso::compress::make_identity();
  const auto plain = run(nullptr);
  const auto lossless = run(identity.get());
  ASSERT_EQ(plain.size(), lossless.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    differ += std::bit_cast<std::uint32_t>(plain[i]) !=
                      std::bit_cast<std::uint32_t>(lossless[i])
                  ? 1
                  : 0;
  }
  EXPECT_EQ(differ, 0U) << "of " << plain.size() << " parameters";
}

TEST(DistSgd, CompressionBytesTracked) {
  DistFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistSgd sgd(comm, f.ptrs);
  const auto qsgd = compso::compress::make_qsgd(8);
  ct::Rng data_rng(1), sr_rng(2);
  f.run_fwd_bwd(data_rng);
  sgd.step(0.05, qsgd.get(), sr_rng);
  EXPECT_GT(sgd.last_original_bytes(), 0U);
  EXPECT_LT(sgd.last_compressed_bytes(), sgd.last_original_bytes());
}

}  // namespace
