// Unit tests for the tensor/linalg substrate.

#include "src/tensor/eigen.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"
#include "src/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ct = compso::tensor;

namespace {

/// A^T, the oracle the TN/NT kernels are checked against.
ct::Tensor transpose(const ct::Tensor& a) {
  ct::Tensor t({a.cols(), a.rows()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

/// Adds `value` to the diagonal of square `a`.
void add_diagonal(ct::Tensor& a, float value) {
  for (std::size_t i = 0; i < a.rows(); ++i) a.at(i, i) += value;
}

TEST(Tensor, ZeroConstruction) {
  ct::Tensor t({3, 4});
  EXPECT_EQ(t.size(), 12U);
  EXPECT_EQ(t.rows(), 3U);
  EXPECT_EQ(t.cols(), 4U);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, ReshapePreservesData) {
  ct::Tensor t({2, 6});
  t.at(1, 2) = 5.0F;
  t.reshape({3, 4});
  EXPECT_EQ(t.at(2, 0), 5.0F);  // flat index 8
  EXPECT_THROW(t.reshape({5, 5}), std::invalid_argument);
}

TEST(Tensor, ElementwiseOps) {
  ct::Tensor a = ct::Tensor::full({4}, 2.0F);
  ct::Tensor b = ct::Tensor::full({4}, 3.0F);
  a += b;
  EXPECT_EQ(a[0], 5.0F);
  a *= 2.0F;
  EXPECT_EQ(a[0], 10.0F);
  a.axpby(0.5F, 2.0F, b);
  EXPECT_EQ(a[0], 11.0F);
  ct::Tensor c({3});
  EXPECT_THROW(a += c, std::invalid_argument);
}

TEST(MatrixOps, GemmKnownResult) {
  ct::Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  ct::Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  ct::Tensor c;
  ct::gemm(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0F);
}

TEST(MatrixOps, GemmTnMatchesExplicitTranspose) {
  ct::Rng rng(1);
  ct::Tensor a({5, 3});
  ct::Tensor b({5, 4});
  rng.fill_normal(a.span());
  rng.fill_normal(b.span());
  ct::Tensor c1, c2;
  ct::gemm_tn(a, b, c1);
  ct::gemm(transpose(a), b, c2);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4);
}

TEST(MatrixOps, GemmNtMatchesExplicitTranspose) {
  ct::Rng rng(2);
  ct::Tensor a({4, 3});
  ct::Tensor b({6, 3});
  rng.fill_normal(a.span());
  rng.fill_normal(b.span());
  ct::Tensor c1, c2;
  ct::gemm_nt(a, b, c1);
  ct::gemm(a, transpose(b), c2);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4);
}

TEST(MatrixOps, SyrkMatchesGemm) {
  ct::Rng rng(3);
  ct::Tensor a({7, 4});
  rng.fill_normal(a.span());
  ct::Tensor c1;
  ct::syrk_tn(a, 1.0F, 0.0F, c1);
  ct::Tensor c2;
  ct::gemm_tn(a, a, c2);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-4);
}

TEST(MatrixOps, SyrkRunningAverage) {
  // The beta-blend used for KFAC's running-average factors.
  ct::Rng rng(4);
  ct::Tensor a({5, 3});
  rng.fill_normal(a.span());
  ct::Tensor c({3, 3});
  c.fill(1.0F);
  ct::syrk_tn(a, 0.1F, 0.9F, c);
  ct::Tensor ref;
  ct::gemm_tn(a, a, ref);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], 0.9F + 0.1F * ref[i], 1e-4);
  }
}

TEST(Eigen, DiagonalMatrix) {
  ct::Tensor d = ct::Tensor::zeros({3, 3});
  d.at(0, 0) = 3.0F;
  d.at(1, 1) = 1.0F;
  d.at(2, 2) = 2.0F;
  const auto e = ct::eigh(d);
  ASSERT_EQ(e.eigenvalues.size(), 3U);
  EXPECT_NEAR(e.eigenvalues[0], 1.0F, 1e-6);
  EXPECT_NEAR(e.eigenvalues[1], 2.0F, 1e-6);
  EXPECT_NEAR(e.eigenvalues[2], 3.0F, 1e-6);
}

class EigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenProperty, ReconstructionAndOrthogonality) {
  const std::size_t n = GetParam();
  ct::Rng rng(100 + n);
  // Random SPD-ish symmetric matrix: B^T B + small diagonal.
  ct::Tensor b({n, n});
  rng.fill_normal(b.span());
  ct::Tensor m;
  ct::gemm_tn(b, b, m);
  add_diagonal(m, 0.1F);

  const auto e = ct::eigh(m);
  const ct::Tensor rec = ct::eigen_reconstruct(e);
  double max_err = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    max_err = std::max(max_err, std::fabs(static_cast<double>(m[i]) - rec[i]));
  }
  const double scale = ct::extrema(m.span()).abs_max;
  EXPECT_LT(max_err, 1e-4 * std::max(scale, 1.0)) << "n=" << n;

  // Q^T Q = I.
  ct::Tensor qtq;
  ct::gemm_tn(e.eigenvectors, e.eigenvectors, qtq);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(qtq.at(i, j), i == j ? 1.0F : 0.0F, 1e-5);
    }
  }
  // SPD input => positive eigenvalues, ascending order.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GT(e.eigenvalues[i], 0.0F);
    if (i > 0) {
      EXPECT_GE(e.eigenvalues[i], e.eigenvalues[i - 1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty,
                         ::testing::Values(1, 2, 3, 8, 17, 33, 64));

TEST(Rng, DeterministicFromSeed) {
  ct::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitIndependence) {
  ct::Rng base(42);
  ct::Rng c1 = base.split(1);
  ct::Rng c2 = base.split(2);
  EXPECT_NE(c1(), c2());
}

TEST(Rng, UniformRange) {
  ct::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float u = rng.uniform();
    EXPECT_GE(u, 0.0F);
    EXPECT_LT(u, 1.0F);
  }
}

TEST(Rng, NormalMoments) {
  ct::Rng rng(8);
  std::vector<float> v(200000);
  rng.fill_normal(v);
  EXPECT_NEAR(ct::mean(v), 0.0, 0.01);
  EXPECT_NEAR(ct::variance(v), 1.0, 0.02);
}

TEST(Rng, LaplaceVariance) {
  ct::Rng rng(9);
  std::vector<float> v(200000);
  const float b = 0.5F;
  for (auto& x : v) x = rng.laplace(b);
  // Var(Laplace(0, b)) = 2 b^2.
  EXPECT_NEAR(ct::variance(v), 2.0 * b * b, 0.02);
}

TEST(Rng, UniformIndexInRange) {
  ct::Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17U);
  }
}

TEST(Stats, ExtremaAndNorms) {
  std::vector<float> v{-3.0F, 1.0F, 2.0F};
  const auto e = ct::extrema(v);
  EXPECT_EQ(e.min, -3.0F);
  EXPECT_EQ(e.max, 2.0F);
  EXPECT_EQ(e.abs_max, 3.0F);
  EXPECT_NEAR(ct::l2_norm(v), std::sqrt(14.0), 1e-9);
}

TEST(Stats, PsnrLosslessIsHuge) {
  std::vector<float> v{1.0F, 2.0F, 3.0F};
  EXPECT_GT(ct::psnr(v, v), 500.0);
}

TEST(Stats, RmseKnown) {
  std::vector<float> a{0.0F, 0.0F};
  std::vector<float> b{3.0F, 4.0F};
  EXPECT_NEAR(ct::rmse(a, b), std::sqrt(12.5), 1e-9);
}

TEST(Stats, HistogramDensityIntegratesToOne) {
  ct::Rng rng(11);
  std::vector<float> v(50000);
  rng.fill_uniform(v, -1.0F, 1.0F);
  const auto h = ct::histogram(v, -1.0, 1.0, 40);
  double integral = 0.0;
  const double width = 2.0 / 40.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    integral += h.density(i) * width;
  }
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Stats, KurtosisDistinguishesUniformFromTriangular) {
  ct::Rng rng(12);
  std::vector<float> uni(100000), tri(100000);
  rng.fill_uniform(uni, -1.0F, 1.0F);
  for (auto& x : tri) x = rng.uniform(-0.5F, 0.5F) + rng.uniform(-0.5F, 0.5F);
  EXPECT_NEAR(ct::kurtosis(uni), 1.8, 0.05);
  EXPECT_NEAR(ct::kurtosis(tri), 2.4, 0.05);
}

TEST(Synthetic, GradientProfileShapes) {
  ct::Rng rng(13);
  const auto kfac =
      ct::synthetic_gradient(100000, ct::GradientProfile::kfac(), rng);
  const auto sgd =
      ct::synthetic_gradient(100000, ct::GradientProfile::sgd(), rng);
  // KFAC gradients have a wider dynamic range than SGD gradients (§3).
  EXPECT_GT(ct::extrema(kfac).abs_max, ct::extrema(sgd).abs_max);
  // Heavy concentration near zero.
  std::size_t tiny = 0;
  for (float v : kfac) tiny += std::fabs(v) < 1e-3F ? 1 : 0;
  EXPECT_GT(tiny, 40000U);
}

}  // namespace
