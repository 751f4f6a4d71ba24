// Tests for the NN substrate: layer forward/backward correctness (finite
// differences), the layer kernels' exact bits, losses, datasets, model zoo
// shapes.

#include "src/nn/dataset.hpp"
#include "src/nn/model.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/tensor/stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace nn = compso::nn;
namespace ct = compso::tensor;

namespace {

TEST(Linear, ForwardKnownValues) {
  ct::Rng rng(1);
  nn::Linear l(2, 3, rng);
  l.weight()->at(0, 0) = 1.0F; l.weight()->at(0, 1) = 2.0F;
  l.weight()->at(1, 0) = 0.0F; l.weight()->at(1, 1) = -1.0F;
  l.weight()->at(2, 0) = 0.5F; l.weight()->at(2, 1) = 0.5F;
  (*l.bias())[0] = 1.0F; (*l.bias())[1] = 0.0F; (*l.bias())[2] = -1.0F;
  ct::Tensor x({1, 2}, {3.0F, 4.0F});
  const auto y = l.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 12.0F);   // 3 + 8 + 1
  EXPECT_FLOAT_EQ(y.at(0, 1), -4.0F);   // -4 + 0
  EXPECT_FLOAT_EQ(y.at(0, 2), 2.5F);    // 1.5 + 2 - 1
}

TEST(Linear, GradientMatchesFiniteDifference) {
  ct::Rng rng(2);
  nn::Linear l(4, 3, rng);
  ct::Tensor x({2, 4});
  rng.fill_normal(x.span());
  // Loss = sum(y): dL/dy = ones.
  auto y = l.forward(x);
  ct::Tensor ones({2, 3});
  ones.fill(1.0F);
  l.backward(ones);
  const ct::Tensor analytic = *l.weight_grad();

  const float eps = 1e-3F;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const float orig = l.weight()->at(r, c);
      l.weight()->at(r, c) = orig + eps;
      const auto yp = l.forward(x);
      l.weight()->at(r, c) = orig - eps;
      const auto ym = l.forward(x);
      l.weight()->at(r, c) = orig;
      double sp = 0.0, sm = 0.0;
      for (std::size_t i = 0; i < yp.size(); ++i) { sp += yp[i]; sm += ym[i]; }
      const double fd = (sp - sm) / (2.0 * eps);
      EXPECT_NEAR(analytic.at(r, c), fd, 2e-2) << r << "," << c;
    }
  }
}

TEST(Linear, InputGradientMatchesFiniteDifference) {
  ct::Rng rng(3);
  nn::Linear l(3, 2, rng);
  ct::Tensor x({1, 3});
  rng.fill_normal(x.span());
  l.forward(x);
  ct::Tensor ones({1, 2});
  ones.fill(1.0F);
  const auto gin = l.backward(ones);

  const float eps = 1e-3F;
  for (std::size_t c = 0; c < 3; ++c) {
    ct::Tensor xp = x, xm = x;
    xp.at(0, c) += eps;
    xm.at(0, c) -= eps;
    const auto yp = l.forward(xp);
    const auto ym = l.forward(xm);
    double sp = 0.0, sm = 0.0;
    for (std::size_t i = 0; i < yp.size(); ++i) { sp += yp[i]; sm += ym[i]; }
    EXPECT_NEAR(gin.at(0, c), (sp - sm) / (2.0 * eps), 2e-2);
  }
}

TEST(Linear, KfacHooksCaptureAugmentedInput) {
  ct::Rng rng(4);
  nn::Linear l(2, 2, rng);
  ct::Tensor x({3, 2});
  rng.fill_normal(x.span());
  l.forward(x);
  const ct::Tensor* a = l.kfac_input();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->rows(), 3U);
  EXPECT_EQ(a->cols(), 3U);  // in + 1 homogeneous column
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(a->at(r, 2), 1.0F);
}

TEST(Activations, ReluForwardBackward) {
  nn::Relu relu;
  ct::Tensor x({1, 4}, {-1.0F, 2.0F, 0.0F, -3.0F});
  const auto y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 2.0F);
  EXPECT_EQ(y[3], 0.0F);
  ct::Tensor g({1, 4}, {1.0F, 1.0F, 1.0F, 1.0F});
  const auto gin = relu.backward(g);
  EXPECT_EQ(gin[0], 0.0F);
  EXPECT_EQ(gin[1], 1.0F);
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// FNV-1a over the bits of `v`.
std::uint64_t fold_bits(std::uint64_t h, std::span<const float> v) {
  for (const float f : v) {
    const std::uint32_t w = bits(f);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((w >> (8 * b)) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Activations, ReluKeepsSignedZeroNanAndSubnormalBits) {
  // The select y = x < 0 ? 0 : x gives what the branchy loop it replaced
  // (`if (y < 0) y = 0`) gave: -0.0 and NaN pass through unchanged, a
  // negative subnormal becomes +0. The mask is x > 0.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> xs = {-0.0F, 0.0F, nan,   -nan, inf,
                                 -inf,  tiny, -tiny, 1.0F, -1.0F};
  const std::vector<float> want_y = {-0.0F, 0.0F, nan,  -nan, inf,
                                     0.0F,  tiny, 0.0F, 1.0F, 0.0F};
  const std::vector<float> want_mask = {0.0F, 0.0F, 0.0F, 0.0F, 1.0F,
                                        0.0F, 1.0F, 0.0F, 1.0F, 0.0F};
  const std::size_t n = xs.size();
  nn::Relu relu;
  const ct::Tensor y = relu.forward(ct::Tensor({1, n}, xs));
  const ct::Tensor mask = relu.backward(ct::Tensor::full({1, n}, 1.0F));
  const ct::Tensor g = relu.backward(ct::Tensor::full({1, n}, -2.0F));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits(y[i]), bits(want_y[i])) << "forward, x[" << i << "]";
    EXPECT_EQ(bits(mask[i]), bits(want_mask[i])) << "mask, x[" << i << "]";
    // -2 * 0 is -0.0: the backward product keeps its sign too.
    EXPECT_EQ(bits(g[i]), bits(-2.0F * want_mask[i])) << "backward, x[" << i
                                                      << "]";
  }
}

TEST(Activations, TanhGradient) {
  nn::Tanh tanh_l;
  ct::Tensor x({1, 1}, {0.5F});
  tanh_l.forward(x);
  ct::Tensor g({1, 1}, {1.0F});
  const auto gin = tanh_l.backward(g);
  const double expected = 1.0 - std::tanh(0.5) * std::tanh(0.5);
  EXPECT_NEAR(gin[0], expected, 1e-6);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue) {
  ct::Tensor logits({1, 2}, {0.0F, 0.0F});
  ct::Tensor grad;
  const double loss = nn::softmax_cross_entropy(logits, {0}, grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(grad.at(0, 0), -0.5, 1e-6);
  EXPECT_NEAR(grad.at(0, 1), 0.5, 1e-6);
}

TEST(Loss, SoftmaxGradientMatchesFiniteDifference) {
  ct::Rng rng(5);
  ct::Tensor logits({2, 4});
  rng.fill_normal(logits.span());
  const std::vector<int> labels{1, 3};
  ct::Tensor grad;
  nn::softmax_cross_entropy(logits, labels, grad);
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    ct::Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    ct::Tensor g_unused;
    const double fp = nn::softmax_cross_entropy(lp, labels, g_unused);
    const double fm = nn::softmax_cross_entropy(lm, labels, g_unused);
    EXPECT_NEAR(grad[i], (fp - fm) / (2.0 * eps), 1e-3);
  }
}

TEST(Loss, SpanCrossEntropyAveragesTheTwoHeads) {
  // Row = [start head | end head], two positions each.
  ct::Tensor logits({1, 4}, {0.0F, 0.0F, 0.0F, 0.0F});
  ct::Tensor grad;
  const double loss = nn::span_cross_entropy(logits, {0}, {1}, grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-6);
  EXPECT_NEAR(grad.at(0, 0), -0.25, 1e-6);
  EXPECT_NEAR(grad.at(0, 1), 0.25, 1e-6);
  EXPECT_NEAR(grad.at(0, 2), 0.25, 1e-6);
  EXPECT_NEAR(grad.at(0, 3), -0.25, 1e-6);
  ct::Tensor odd({1, 3});
  EXPECT_THROW(nn::span_cross_entropy(odd, {0}, {0}, grad),
               std::invalid_argument);
}

TEST(Loss, SoftmaxCrossEntropyBitsArePinned) {
  // Loss and gradient bits of a seeded 256 x 32 batch (kfac_compso's
  // logits). Each exp is computed once and reused; the hash is that of the
  // loop that computed it twice.
  ct::Rng rng(2025);
  ct::Tensor logits({256, 32});
  rng.fill_normal(logits.span());
  for (float& v : logits.span()) v *= 4.0F;
  std::vector<int> labels(256);
  for (int& y : labels) y = static_cast<int>(rng.uniform_index(32));
  ct::Tensor grad;
  const double loss = nn::softmax_cross_entropy(logits, labels, grad);
  std::uint64_t h = fold_bits(0xcbf29ce484222325ULL, grad.span());
  const auto loss_bits = std::bit_cast<std::uint64_t>(loss);
  for (int b = 0; b < 8; ++b) {
    h = (h ^ ((loss_bits >> (8 * b)) & 0xFF)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(h, 0x490adada9e5e663dULL) << "0x" << std::hex << h;
}

TEST(Loss, AccuracyCountsArgmax) {
  ct::Tensor logits({2, 3}, {1.0F, 5.0F, 0.0F, 2.0F, 0.0F, 1.0F});
  EXPECT_NEAR(nn::accuracy(logits, {1, 0}), 1.0, 1e-9);
  EXPECT_NEAR(nn::accuracy(logits, {0, 0}), 0.5, 1e-9);
}

TEST(Model, ForwardBackwardThroughStack) {
  ct::Rng rng(6);
  auto m = nn::make_mlp_classifier(8, 16, 4, 2, rng);
  EXPECT_EQ(m.trainable_layers().size(), 3U);
  ct::Tensor x({5, 8});
  rng.fill_normal(x.span());
  const auto logits = m.forward(x);
  EXPECT_EQ(logits.rows(), 5U);
  EXPECT_EQ(logits.cols(), 4U);
  ct::Tensor grad;
  nn::softmax_cross_entropy(logits, {0, 1, 2, 3, 0}, grad);
  m.backward(grad);  // must not throw; gradients stored per layer
  for (std::size_t li : m.trainable_layers()) {
    EXPECT_GT(compso::tensor::l2_norm(m.layer(li).weight_grad()->span()), 0.0);
  }
}

/// Folds every parameter gradient of `m` into one hash.
std::uint64_t gradient_hash(nn::Model& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t li : m.trainable_layers()) {
    h = fold_bits(h, m.layer(li).weight_grad()->span());
    h = fold_bits(h, m.layer(li).bias_grad()->span());
  }
  return h;
}

TEST(Model, BackwardSkipsOnlyTheFirstLayersInputGradient) {
  // Model::backward leaves out layer 0's input gradient, which nothing
  // reads. Every parameter gradient keeps the bits of the full chain, at
  // kfac_compso's shapes (blocked products) and below the blocked
  // engine's cutoff, where the pinned hash does not depend on the ISA.
  struct Case {
    std::size_t features, hidden, classes, depth, batch;
  };
  for (const Case c : {Case{32, 192, 32, 2, 256}, Case{8, 16, 4, 2, 16}}) {
    ct::Rng init_a(11), init_b(11), data(12);
    nn::Model a = nn::make_mlp_classifier(c.features, c.hidden, c.classes,
                                          c.depth, init_a);
    nn::Model b = nn::make_mlp_classifier(c.features, c.hidden, c.classes,
                                          c.depth, init_b);
    ct::Tensor x({c.batch, c.features});
    data.fill_normal(x.span());
    std::vector<int> labels(c.batch);
    for (std::size_t i = 0; i < c.batch; ++i) {
      labels[i] = static_cast<int>((i * 7) % c.classes);
    }
    ct::Tensor grad;
    nn::softmax_cross_entropy(a.forward(x), labels, grad);
    a.backward(grad);
    nn::softmax_cross_entropy(b.forward(x), labels, grad);
    ct::Tensor g = grad;
    for (std::size_t i = b.layer_count(); i-- > 0;) g = b.layer(i).backward(g);
    EXPECT_EQ(g.rows(), c.batch);  // the full chain's first input gradient.
    EXPECT_EQ(gradient_hash(a), gradient_hash(b)) << "hidden " << c.hidden;
    if (c.hidden == 16) {
      EXPECT_EQ(gradient_hash(a), 0xa782aea99532b7e5ULL)
          << "0x" << std::hex << gradient_hash(a);
    }
  }
}

TEST(Model, ParameterCount) {
  ct::Rng rng(7);
  auto m = nn::make_mlp_classifier(10, 20, 5, 1, rng);
  // (20*10 + 20) + (5*20 + 5) = 220 + 105.
  EXPECT_EQ(m.parameter_count(), 325U);
}

TEST(Dataset, ClustersAreLearnableStructure) {
  nn::ClusterDataset ds(16, 4, 0.3F, 42);
  ct::Rng rng(8);
  const auto b = ds.sample(64, rng);
  EXPECT_EQ(b.x.rows(), 64U);
  EXPECT_EQ(b.labels.size(), 64U);
  for (int y : b.labels) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 4);
  }
}

TEST(Dataset, SpanBatchValidSpans) {
  nn::SpanDataset ds(10, 16, 0.2F, 43);
  ct::Rng rng(9);
  const auto b = ds.sample(128, rng);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_GE(b.start[i], 0);
    EXPECT_LE(b.start[i], b.end[i]);
    EXPECT_LT(b.end[i], 10);
  }
}

TEST(Dataset, SpanMetricsPerfectAndPartial) {
  const std::vector<int> gs{2, 5}, ge{4, 7};
  const auto perfect = nn::span_metrics(gs, ge, gs, ge);
  EXPECT_NEAR(perfect.f1, 100.0, 1e-9);
  EXPECT_NEAR(perfect.exact_match, 100.0, 1e-9);
  // Half-overlapping prediction on sample 0 only.
  const auto partial = nn::span_metrics({3, 0}, {5, 1}, gs, ge);
  EXPECT_LT(partial.f1, 100.0);
  EXPECT_GT(partial.f1, 0.0);
  EXPECT_NEAR(partial.exact_match, 0.0, 1e-9);
}

TEST(ModelZoo, ParameterCountsMatchRealModels) {
  // KFAC element counts ~ parameter counts (+bias columns); the tables
  // should land near the real models' sizes.
  const auto r50 = nn::resnet50_shape();
  EXPECT_NEAR(static_cast<double>(r50.total_elements()), 25.6e6, 3e6);
  const auto bert = nn::bert_large_shape();
  EXPECT_NEAR(static_cast<double>(bert.total_elements()), 335e6, 40e6);
  const auto gpt = nn::gpt_neo_125m_shape();
  EXPECT_NEAR(static_cast<double>(gpt.total_elements()), 125e6, 20e6);
  const auto mask = nn::mask_rcnn_shape();
  EXPECT_NEAR(static_cast<double>(mask.total_elements()), 44e6, 8e6);
}

TEST(ModelZoo, LayerSizesVaryWidely) {
  // §4.4's motivation for aggregation: per-layer sizes differ by orders of
  // magnitude.
  const auto r50 = nn::resnet50_shape();
  std::size_t min_b = SIZE_MAX, max_b = 0;
  for (const auto& l : r50.layers) {
    min_b = std::min(min_b, l.kfac_bytes());
    max_b = std::max(max_b, l.kfac_bytes());
  }
  EXPECT_GT(max_b / min_b, 100U);
}

TEST(ModelZoo, FourPaperModels) {
  const auto all = nn::paper_model_shapes();
  ASSERT_EQ(all.size(), 4U);
  EXPECT_EQ(all[0].name, "ResNet-50");
  EXPECT_EQ(all[1].name, "Mask R-CNN");
  EXPECT_EQ(all[2].name, "BERT-large");
  EXPECT_EQ(all[3].name, "GPT-neo-125M");
}

}  // namespace
