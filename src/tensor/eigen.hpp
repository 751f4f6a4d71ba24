#pragma once
// Symmetric eigendecomposition — the kernel KFAC uses to invert its
// Kronecker factors (paper Eq. 2).
//
// The production `eigh` is the standard dense symmetric path in double:
// Householder reduction to tridiagonal form, then implicit-shift
// (Wilkinson) QL on the tridiagonal. Its kernels keep every rounding of
// the textbook loops, so the output bits do not depend on the host or on
// which ISA clone runs (DESIGN.md §11.4). The fused cyclic-Jacobi solver
// is retained as `eigh_jacobi`, the one correctness oracle for the tests
// and the benchmark.

#include "src/tensor/tensor.hpp"

namespace compso::tensor {

/// Result of eigendecomposing a symmetric matrix M = Q diag(v) Q^T.
struct EigenDecomposition {
  Tensor eigenvectors;  ///< (n x n), column i is the i-th eigenvector.
  std::vector<float> eigenvalues;  ///< length n, ascending order.
  /// false: an eigenvalue exhausted its iteration cap, or the input held
  /// a NaN or +-Inf (then the basis is the identity and every eigenvalue
  /// is NaN, so a caller that ignores the flag still sees the failure).
  bool converged = true;
  /// Iterations executed before termination: QL iterations summed over
  /// all eigenvalues for `eigh` (a few hundred on a 190^2 KFAC factor,
  /// ~1.5 per eigenvalue), cyclic sweeps for `eigh_jacobi` (~10).
  int sweeps_used = 0;
};

/// Householder tridiagonalization + implicit-shift QL eigendecomposition
/// of a symmetric matrix (the input is symmetrized by averaging first).
///
/// `max_iterations` caps the QL iterations spent on each eigenvalue, like
/// LAPACK's MAXIT; an eigenvalue that exhausts it is deflated as it
/// stands and the result reports `converged == false`. Non-finite input
/// is detected before any work and reported the same way.
EigenDecomposition eigh(const Tensor& m, int max_iterations = 30);

/// Cyclic-by-rows Jacobi (each rotation fused into one stride-1 pass over
/// two rows, eigenvectors in transposed storage), kept as the correctness
/// oracle for `eigh`. Stops once the off-diagonal mass falls below
/// 1e-10 of the Frobenius norm; `converged` is false when `max_sweeps`
/// sweeps were spent above that, or when the input is non-finite.
EigenDecomposition eigh_jacobi(const Tensor& m, int max_sweeps = 32);

/// Reconstructs Q diag(v) Q^T from a decomposition (testing / validation).
Tensor eigen_reconstruct(const EigenDecomposition& e);

}  // namespace compso::tensor
