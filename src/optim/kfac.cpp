#include "src/optim/kfac.hpp"

#include "src/tensor/matrix_ops.hpp"

#include <algorithm>
#include <stdexcept>

namespace compso::optim {

KfacLayerState::KfacLayerState(std::size_t in_aug, std::size_t out)
    : a_({in_aug, in_aug}), g_({out, out}) {}

void KfacLayerState::blend_factors(const Tensor& cov_a, const Tensor& cov_g,
                                   double stat_decay) {
  if (cov_a.size() != a_.size() || cov_g.size() != g_.size()) {
    throw std::invalid_argument("blend_factors: shape mismatch");
  }
  const double blend = updates_ == 0 ? 0.0 : stat_decay;
  a_.axpby(static_cast<float>(blend), static_cast<float>(1.0 - blend), cov_a);
  g_.axpby(static_cast<float>(blend), static_cast<float>(1.0 - blend), cov_g);
  ++updates_;
}

namespace {

/// f = alpha * f + beta * cov over f's upper triangle, read from `cov` in
/// pack_upper order one row segment at a time, then mirrored — the
/// arithmetic of Tensor::axpby on the unpacked covariance.
void blend_upper(Tensor& f, std::span<const float> cov, float alpha,
                 float beta) {
  const std::size_t d = f.rows();
  if (cov.size() != tensor::packed_size(d)) {
    throw std::invalid_argument("blend_packed_factors: shape mismatch");
  }
  const float* src = cov.data();
  for (std::size_t i = 0; i < d; ++i) {
    float* row = f.data() + i * d;
    for (std::size_t j = i; j < d; ++j) {
      row[j] = alpha * row[j] + beta * *src++;
    }
  }
  tensor::mirror_upper(f);
}

}  // namespace

void KfacLayerState::blend_packed_factors(std::span<const float> cov_a,
                                          std::span<const float> cov_g,
                                          double stat_decay) {
  const double blend = updates_ == 0 ? 0.0 : stat_decay;
  const auto alpha = static_cast<float>(blend);
  const auto beta = static_cast<float>(1.0 - blend);
  blend_upper(a_, cov_a, alpha, beta);
  blend_upper(g_, cov_g, alpha, beta);
  ++updates_;
}

void KfacLayerState::refresh_eigen() {
  refresh_eigen_a();
  refresh_eigen_g();
}

void KfacLayerState::refresh_eigen_a() {
  eig_a_ = decompose(a_);
  has_eigen_a_ = true;
}

void KfacLayerState::refresh_eigen_g() {
  eig_g_ = decompose(g_);
  has_eigen_g_ = true;
}

tensor::EigenDecomposition KfacLayerState::decompose(
    const Tensor& factor) const {
  if (updates_ == 0) {
    throw std::logic_error("KfacLayerState: no factor statistics yet");
  }
  return tensor::eigh(factor);
}

Tensor KfacLayerState::precondition(const Tensor& combined_grad,
                                    double gamma) const {
  if (!has_eigen()) {
    throw std::logic_error("KfacLayerState: eigendecomposition not ready");
  }
  const std::size_t out = g_.rows();
  const std::size_t in_aug = a_.rows();
  if (combined_grad.rows() != out || combined_grad.cols() != in_aug) {
    throw std::invalid_argument("precondition: gradient shape mismatch");
  }
  // V1 = Q_G^T Grad Q_A
  Tensor tmp, v;
  tensor::gemm_tn(eig_g_.eigenvectors, combined_grad, tmp);  // (out, in_aug)
  tensor::gemm(tmp, eig_a_.eigenvectors, v);                 // (out, in_aug)
  // V2 = V1 / (v_G v_A^T + gamma)
  for (std::size_t i = 0; i < out; ++i) {
    const double vg = eig_g_.eigenvalues[i];
    for (std::size_t j = 0; j < in_aug; ++j) {
      const double denom =
          vg * static_cast<double>(eig_a_.eigenvalues[j]) + gamma;
      v.at(i, j) = static_cast<float>(v.at(i, j) / denom);
    }
  }
  // K = Q_G V2 Q_A^T
  Tensor k;
  tensor::gemm(eig_g_.eigenvectors, v, tmp);
  tensor::gemm_nt(tmp, eig_a_.eigenvectors, k);
  return k;
}

void KfacLayerState::restore(Tensor a, Tensor g,
                             tensor::EigenDecomposition eig_a,
                             tensor::EigenDecomposition eig_g, bool has_eigen,
                             std::size_t updates) {
  if (a.size() != a_.size() || g.size() != g_.size()) {
    throw std::invalid_argument("KfacLayerState::restore: shape mismatch");
  }
  a_ = std::move(a);
  g_ = std::move(g);
  eig_a_ = std::move(eig_a);
  eig_g_ = std::move(eig_g);
  has_eigen_a_ = has_eigen_g_ = has_eigen;
  updates_ = updates;
}

void combined_gradient_into(nn::Layer& layer, Tensor& c) {
  const auto* wg = layer.weight_grad();
  if (wg == nullptr) {
    throw std::invalid_argument("combined_gradient: layer has no params");
  }
  tensor::ensure_shape2(c, wg->rows(), wg->cols() + 1);
  combined_gradient_into(layer, c.span());
}

void combined_gradient_into(nn::Layer& layer, std::span<float> c) {
  auto* wg = layer.weight_grad();
  auto* bg = layer.bias_grad();
  if (wg == nullptr || bg == nullptr) {
    throw std::invalid_argument("combined_gradient: layer has no params");
  }
  const std::size_t out = wg->rows(), in = wg->cols();
  if (c.size() != out * (in + 1)) {
    throw std::invalid_argument("combined_gradient: output size mismatch");
  }
  for (std::size_t r = 0; r < out; ++r) {
    float* row = std::copy_n(wg->data() + r * in, in, c.data() + r * (in + 1));
    *row = (*bg)[r];
  }
}

void apply_combined_update(nn::Layer& layer, const Tensor& combined,
                           double lr) {
  auto* w = layer.weight();
  auto* b = layer.bias();
  const std::size_t out = w->rows(), in = w->cols();
  if (combined.rows() != out || combined.cols() != in + 1) {
    throw std::invalid_argument("apply_combined_update: shape mismatch");
  }
  for (std::size_t r = 0; r < out; ++r) {
    for (std::size_t j = 0; j < in; ++j) {
      w->at(r, j) -= static_cast<float>(lr) * combined.at(r, j);
    }
    (*b)[r] -= static_cast<float>(lr) * combined.at(r, in);
  }
}

}  // namespace compso::optim
