#pragma once
// KFAC layer math (paper §2.1, Eq. 1-2).
//
// For each Linear layer, the Fisher block is approximated as
//   F_l = A_{l-1} (x) G_l,   A = E[a a^T],  G = E[g g^T]
// with `a` the (bias-augmented) input activations and `g` the
// pre-activation gradients. The preconditioned gradient is computed from
// the eigendecompositions of A and G:
//   K = Q_G [ (Q_G^T Grad Q_A) / (v_G v_A^T + gamma) ] Q_A^T        (Eq. 2)

#include "src/nn/layer.hpp"
#include "src/tensor/eigen.hpp"

#include <span>

namespace compso::optim {

using tensor::Tensor;

/// Per-layer KFAC state: running-average Kronecker factors and their
/// (periodically refreshed) eigendecompositions.
class KfacLayerState {
 public:
  KfacLayerState(std::size_t in_aug, std::size_t out);

  /// Blends externally computed (e.g. allreduce-averaged) covariance
  /// estimates into the running averages with decay `stat_decay`
  /// (running average, §4.3 reason 2); the first blend replaces the
  /// zero-initialized factors.
  void blend_factors(const Tensor& cov_a, const Tensor& cov_g,
                     double stat_decay);
  /// Same, from covariances packed as upper triangles (tensor::pack_upper
  /// layout) — DistKfac's one factor layout, which both of its factor
  /// exchanges average. The same bits as blend_factors on the unpacked
  /// matrices: the factors and the covariances are exactly symmetric, so
  /// each mirrored element repeats its upper twin's arithmetic.
  void blend_packed_factors(std::span<const float> cov_a,
                            std::span<const float> cov_g, double stat_decay);

  /// Refreshes the eigendecompositions (the expensive step that the
  /// distributed variant partitions across GPUs): refresh_eigen_a() then
  /// refresh_eigen_g(). The two halves touch disjoint state, so they may
  /// run concurrently (DistKfac schedules them as separate tasks).
  void refresh_eigen();
  void refresh_eigen_a();
  void refresh_eigen_g();

  /// Computes the preconditioned gradient for combined [W | b] gradient
  /// (out, in+1) with Tikhonov damping `gamma`. refresh_eigen() must have
  /// run at least once.
  Tensor precondition(const Tensor& combined_grad, double gamma) const;

  Tensor& factor_a() noexcept { return a_; }
  Tensor& factor_g() noexcept { return g_; }
  const Tensor& factor_a() const noexcept { return a_; }
  const Tensor& factor_g() const noexcept { return g_; }
  bool has_eigen() const noexcept { return has_eigen_a_ && has_eigen_g_; }
  std::size_t updates() const noexcept { return updates_; }

  /// Checkpoint support: the eigendecompositions belong to the factors as
  /// of the *last refresh*, not the current factors, so a bit-exact resume
  /// must restore them verbatim rather than recompute from a_/g_.
  const tensor::EigenDecomposition& eigen_a() const noexcept { return eig_a_; }
  const tensor::EigenDecomposition& eigen_g() const noexcept { return eig_g_; }
  void restore(Tensor a, Tensor g, tensor::EigenDecomposition eig_a,
               tensor::EigenDecomposition eig_g, bool has_eigen,
               std::size_t updates);

 private:
  tensor::EigenDecomposition decompose(const Tensor& factor) const;

  Tensor a_;  ///< (in+1, in+1)
  Tensor g_;  ///< (out, out)
  tensor::EigenDecomposition eig_a_;
  tensor::EigenDecomposition eig_g_;
  bool has_eigen_a_ = false;
  bool has_eigen_g_ = false;
  std::size_t updates_ = 0;
};

/// Builds the combined (out, in+1) gradient [dW | db] of a Linear layer
/// into a caller-owned tensor (reshaped in place when needed), so
/// steady-state steps reuse the buffer instead of allocating per call.
void combined_gradient_into(nn::Layer& layer, Tensor& out);
/// Same, row-major into `out` (exactly out * (in + 1) floats).
void combined_gradient_into(nn::Layer& layer, std::span<float> out);
/// Splits a combined (preconditioned) gradient back into dW / db and
/// applies `param -= lr * K` (with optional momentum handled by caller).
void apply_combined_update(nn::Layer& layer, const Tensor& combined,
                           double lr);

}  // namespace compso::optim
