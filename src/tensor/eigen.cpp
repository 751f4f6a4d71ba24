#include "src/tensor/eigen.hpp"

#include "src/tensor/matrix_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace compso::tensor {
namespace {

/// Jacobi stops once the off-diagonal mass is below this fraction of the
/// Frobenius norm.
constexpr double kJacobiTolerance = 1e-10;

/// Floor applied to the Frobenius norm before scaling the convergence
/// tolerance: an (effectively) all-zero matrix must terminate on the
/// first off-diagonal check instead of producing a zero threshold that
/// no residual can ever satisfy.
constexpr double kFrobeniusNormFloor = 1e-300;

/// Off-diagonal entries at or below this magnitude are treated as
/// already annihilated. At this scale the rotation angle computation
/// divides by a subnormal and produces garbage; skipping is exact for
/// any representable accumulation.
constexpr double kNegligibleOffDiagonal = 1e-300;

void check_square(const Tensor& m) {
  if (m.rank() != 2 || m.rows() != m.cols()) {
    throw std::invalid_argument("eigh: expected square matrix");
  }
}

bool all_finite(const Tensor& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

/// A row-major n x n double matrix with row stride `ld`.
struct Rows {
  double* data;
  std::size_t ld;
  double* operator[](std::size_t r) const { return data + r * ld; }
};

/// Sizes `storage` for `eigh`'s n x n working matrix and returns it with
/// the row stride rounded up to 8 doubles and row 0 on a 64-byte
/// boundary, so every row starts on one and no vector load or store in
/// the kernels splits a cache line.
Rows aligned_rows(std::vector<double>& storage, std::size_t n) {
  const std::size_t ld = (n + 7) / 8 * 8;
  storage.assign(ld * n + 7, 0.0);
  const auto misalign = reinterpret_cast<std::uintptr_t>(storage.data()) % 64;
  return {storage.data() + (64 - misalign) % 64 / sizeof(double), ld};
}

/// Copies `m` into double storage and symmetrizes it (running-average
/// factors can drift slightly off symmetric).
void load_symmetric(const Tensor& m, std::size_t n, Rows a) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a[i][j] = m.data()[i * n + j];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (a[i][j] + a[j][i]);
      a[i][j] = a[j][i] = avg;
    }
  }
}

/// Sorts eigenpairs ascending and materializes the result. Row i of `qt`
/// holds the eigenvector of `values[i]`.
EigenDecomposition finalize(const std::vector<double>& values, Rows qt,
                            std::size_t n, bool converged, int sweeps_used) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return values[x] < values[y];
                   });

  EigenDecomposition out;
  out.converged = converged;
  out.sweeps_used = sweeps_used;
  out.eigenvalues.resize(n);
  out.eigenvectors = Tensor({n, n});
  for (std::size_t col = 0; col < n; ++col) {
    const std::size_t src = order[col];
    out.eigenvalues[col] = static_cast<float>(values[src]);
    for (std::size_t rowi = 0; rowi < n; ++rowi) {
      out.eigenvectors.at(rowi, col) = static_cast<float>(qt[src][rowi]);
    }
  }
  return out;
}

/// The answer for an input holding a NaN or +-Inf: not converged, no
/// work done, identity basis, NaN eigenvalues.
EigenDecomposition non_finite_result(std::size_t n) {
  EigenDecomposition out;
  out.converged = false;
  out.eigenvalues.assign(n, std::numeric_limits<float>::quiet_NaN());
  out.eigenvectors = Tensor({n, n});
  for (std::size_t i = 0; i < n; ++i) out.eigenvectors.at(i, i) = 1.0F;
  return out;
}

// The two solver kernels below are written once, as always-inline
// bodies, and compiled twice: a baseline clone and an AVX2 clone, picked
// once per process. Both keep every output element's EISPACK operation
// sequence: each sum runs in its textbook order, and this file is built
// with -ffp-contract=off, so neither clone (nor a -march=native build)
// fuses a multiply-add. The clones differ only in vector width, so
// `eigh`'s bits do not depend on the host (DESIGN.md §11.4).

/// y[j] += sum_k a[k][j] * x[k * x_stride] over rows k in [0, rows) and
/// columns j in [0, len), each y[j] in ascending k: four rows share one
/// pass over y, and each element still adds its products one at a time.
[[gnu::always_inline]] inline void accumulate_rows(Rows a, std::size_t rows,
                                                   std::size_t len,
                                                   const double* x,
                                                   std::size_t x_stride,
                                                   double* y) {
  std::size_t k = 0;
  for (; k + 4 <= rows; k += 4) {
    const double* a0 = a[k];
    const double* a1 = a[k + 1];
    const double* a2 = a[k + 2];
    const double* a3 = a[k + 3];
    const double x0 = x[k * x_stride];
    const double x1 = x[(k + 1) * x_stride];
    const double x2 = x[(k + 2) * x_stride];
    const double x3 = x[(k + 3) * x_stride];
    for (std::size_t j = 0; j < len; ++j) {
      y[j] = y[j] + a0[j] * x0 + a1[j] * x1 + a2[j] * x2 + a3[j] * x3;
    }
  }
  for (; k < rows; ++k) {
    const double* ak = a[k];
    const double xk = x[k * x_stride];
    for (std::size_t j = 0; j < len; ++j) y[j] += ak[j] * xk;
  }
}

/// Householder reduction of the symmetric `a` (n x n) to tridiagonal
/// form: on return d holds the diagonal, e[1..n) the subdiagonal
/// (e[0] = 0), and row j of `a` column j of the orthogonal Q with
/// A = Q T Q^T. `g` is n doubles of scratch.
///
/// This is EISPACK's tred2 in JAMA's loop order, rearranged so that no
/// inner loop is a serial add chain, while every element keeps its exact
/// operation sequence:
/// - The working block is stored whole (both triangles, each element
///   bit-identical to its mirror), so column j of A is row j, and
///   p[j] = sum_k A[j][k] u[k], in ascending k, runs as sweeps over all
///   j (`accumulate_rows`): every row's chain advances at once.
/// - The reflector accumulation forms g[j] = sum_k u[k] Q[k][j] the same
///   way, over rows of Q.
/// Q is built in place, then transposed once for the QL rotations.
[[gnu::always_inline]] inline void tridiagonalize_body(Rows a, std::size_t n,
                                                       double* d, double* e,
                                                       double* g) {
  for (std::size_t j = 0; j < n; ++j) d[j] = a[n - 1][j];

  for (std::size_t i = n - 1; i > 0; --i) {
    // Reflector annihilating row i left of the subdiagonal; d[0..i) holds
    // that row on entry.
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = a[i - 1][j];
        a[i][j] = 0.0;
        a[j][i] = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      const double s = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * s;
      h -= f * s;
      d[i - 1] = f - s;
      // p = A u into e[0..i); u is kept in column i for the accumulation.
      std::fill(e, e + i, 0.0);
      accumulate_rows(a, i, i, d, 1, e);
      for (std::size_t j = 0; j < i; ++j) a[j][i] = d[j];
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      // Rank-2 update A -= u q^T + q u^T of the whole block: an element
      // and its mirror add the same two products, in swapped order.
      for (std::size_t j = 0; j < i; ++j) {
        double* aj = a[j];
        const double fj = d[j];
        const double gj = e[j];
        for (std::size_t k = 0; k < i; ++k) aj[k] -= fj * e[k] + gj * d[k];
      }
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = a[i - 1][j];
        a[i][j] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflectors into Q.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a[n - 1][i] = a[i][i];
    a[i][i] = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = a[k][i + 1] / h;
      // g = Q^T u, then Q -= d g^T, over the leading (i+1) block.
      std::fill(g, g + i + 1, 0.0);
      accumulate_rows(a, i + 1, i + 1, a[0] + i + 1, a.ld, g);
      for (std::size_t k = 0; k <= i; ++k) {
        const double dk = d[k];
        double* ak = a[k];
        for (std::size_t j = 0; j <= i; ++j) ak[j] -= g[j] * dk;
      }
    }
    for (std::size_t k = 0; k <= i; ++k) a[k][i + 1] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = a[n - 1][j];
    a[n - 1][j] = 0.0;
  }
  a[n - 1][n - 1] = 1.0;
  e[0] = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r + 1; c < n; ++c) std::swap(a[r][c], a[c][r]);
  }
}

/// Rotates eigenvector rows i and i+1 of `qt` by (c, s).
[[gnu::always_inline]] inline void rotate_rows(Rows qt, std::size_t n,
                                               std::size_t i, double c,
                                               double s) {
  double* qi = qt[i];
  double* qi1 = qt[i + 1];
  for (std::size_t k = 0; k < n; ++k) {
    const double t = qi1[k];
    qi1[k] = s * qi[k] + c * t;
    qi[k] = c * qi[k] - s * t;
  }
}

/// Implicit-shift QL (EISPACK's tql2) on the tridiagonal (d, e), rotating
/// the rows of `qt`; `work` is 4n doubles of scratch. Each eigenvalue gets
/// at most `cap` iterations; one that exhausts them is deflated as it
/// stands. Returns the total iteration count and clears `converged` on a
/// cap hit.
///
/// The sweep recurrence never reads `qt`, so a sweep's row rotations run
/// one sweep late, one per step of the next sweep's recurrence: they keep
/// the vector units busy while the recurrence waits on its hypot/divide
/// chain. Every row still takes the same rotations in the same order.
[[gnu::always_inline]] inline int tridiagonal_ql_body(double* d, double* e,
                                                      Rows qt, std::size_t n,
                                                      int cap, double* work,
                                                      bool& converged) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  // The previous sweep's rotations, i = pending-1 down to pending_end.
  double* pending_c = work;
  double* pending_s = work + n;
  double* sweep_c = work + 2 * n;
  double* sweep_s = work + 3 * n;
  std::size_t pending = 0;
  std::size_t pending_end = 0;
  const auto rotate_pending = [&] {
    --pending;
    rotate_rows(qt, n, pending, pending_c[pending], pending_s[pending]);
  };

  int iterations = 0;
  double shift_sum = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find the first negligible subdiagonal element at or after l.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > kEps * tst1) ++m;

    for (int iter = 0; m > l && std::fabs(e[l]) > kEps * tst1; ++iter) {
      if (iter == cap) {
        converged = false;
        break;
      }
      ++iterations;
      // Wilkinson shift from the leading 2x2 block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift_sum += h;

      // Implicit QL sweep from m-1 down to l.
      p = d[m];
      double c = 1.0, c2 = 1.0, c3 = 1.0;
      const double el1 = e[l + 1];
      double s = 0.0, s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        // p = e[i] = 0 needs no rotation; 0/0 would poison the sweep.
        s = r == 0.0 ? 0.0 : e[i] / r;
        c = r == 0.0 ? 1.0 : p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        sweep_c[i] = c;
        sweep_s[i] = s;
        if (pending > pending_end) rotate_pending();
      }
      while (pending > pending_end) rotate_pending();
      std::swap(pending_c, sweep_c);
      std::swap(pending_s, sweep_s);
      pending = m;
      pending_end = l;
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift_sum;
    e[l] = 0.0;
  }
  while (pending > pending_end) rotate_pending();
  return iterations;
}

/// The kernels' shared signature; `work` is 4n doubles of scratch.
struct EighKernels {
  void (*tridiagonalize)(Rows a, std::size_t n, double* d, double* e,
                         double* work);
  int (*tridiagonal_ql)(double* d, double* e, Rows qt, std::size_t n, int cap,
                        double* work, bool& converged);
};

void tridiagonalize_baseline(Rows a, std::size_t n, double* d, double* e,
                             double* work) {
  tridiagonalize_body(a, n, d, e, work);
}
int tridiagonal_ql_baseline(double* d, double* e, Rows qt, std::size_t n,
                            int cap, double* work, bool& converged) {
  return tridiagonal_ql_body(d, e, qt, n, cap, work, converged);
}

// AVX2 without FMA: four doubles per vector, the same roundings.
[[gnu::target("avx2")]] void tridiagonalize_avx2(Rows a, std::size_t n,
                                                 double* d, double* e,
                                                 double* work) {
  tridiagonalize_body(a, n, d, e, work);
}
[[gnu::target("avx2")]] int tridiagonal_ql_avx2(double* d, double* e, Rows qt,
                                                std::size_t n, int cap,
                                                double* work,
                                                bool& converged) {
  return tridiagonal_ql_body(d, e, qt, n, cap, work, converged);
}

/// Picks the widest clone the host supports, once per process.
const EighKernels& pick_kernels() {
  static const EighKernels kernels =
      __builtin_cpu_supports("avx2")
          ? EighKernels{tridiagonalize_avx2, tridiagonal_ql_avx2}
          : EighKernels{tridiagonalize_baseline, tridiagonal_ql_baseline};
  return kernels;
}

}  // namespace

EigenDecomposition eigh(const Tensor& m, int max_iterations) {
  check_square(m);
  const std::size_t n = m.rows();
  if (!all_finite(m)) return non_finite_result(n);
  if (n == 0) return finalize({}, {}, 0, true, 0);
  std::vector<double> storage;
  const Rows qt = aligned_rows(storage, n);
  load_symmetric(m, n, qt);
  std::vector<double> d(n), e(n), work(4 * n);
  const EighKernels& kernels = pick_kernels();
  kernels.tridiagonalize(qt, n, d.data(), e.data(), work.data());
  bool converged = true;
  const int iterations =
      kernels.tridiagonal_ql(d.data(), e.data(), qt, n,
                             std::max(max_iterations, 0), work.data(),
                             converged);
  return finalize(d, qt, n, converged, iterations);
}

EigenDecomposition eigh_jacobi(const Tensor& m, int max_sweeps) {
  check_square(m);
  const std::size_t n = m.rows();
  if (!all_finite(m)) return non_finite_result(n);
  std::vector<double> a(n * n);
  load_symmetric(m, n, {a.data(), n});
  // Q is stored TRANSPOSED: qt row i holds eigenvector-accumulator
  // column i, so the rotation below touches two contiguous rows.
  std::vector<double> qt(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) qt[i * n + i] = 1.0;

  double fro = 0.0;
  for (double v : a) fro += v * v;
  const double stop =
      kJacobiTolerance * std::max(std::sqrt(fro), kFrobeniusNormFloor);
  const auto off_diagonal_mass = [&a, n] {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        off += a[i * n + j] * a[i * n + j];
      }
    }
    return std::sqrt(2.0 * off);
  };

  bool converged = false;
  int sweeps_used = 0;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_mass() <= stop) {
      converged = true;
      break;
    }
    ++sweeps_used;

    // Cyclic-by-rows sweep. Each rotation (p, r) is applied in ONE pass
    // over rows p and r (both contiguous): because A is symmetric, the
    // two-sided update of off-diagonal entries reduces to the same 2x2
    // rotation applied along the rows, with the diagonal corrected in
    // closed form (app' = app - t*apq, aqq' = aqq + t*apq) and the
    // mirror columns copied from the updated rows afterwards.
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* rowp = a.data() + p * n;
      for (std::size_t r = p + 1; r < n; ++r) {
        const double apq = rowp[r];
        if (std::fabs(apq) <= kNegligibleOffDiagonal) continue;
        double* rowr = a.data() + r * n;
        const double app = rowp[p];
        const double aqq = rowr[r];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = rowp[k];
          const double akq = rowr[k];
          rowp[k] = c * akp - s * akq;
          rowr[k] = s * akp + c * akq;
        }
        // Exact closed-form entries the row pass cannot produce alone.
        rowp[p] = app - t * apq;
        rowr[r] = aqq + t * apq;
        rowp[r] = 0.0;
        rowr[p] = 0.0;
        // Mirror the updated rows into columns p and r.
        for (std::size_t k = 0; k < n; ++k) {
          if (k == p || k == r) continue;
          a[k * n + p] = rowp[k];
          a[k * n + r] = rowr[k];
        }
        // Accumulate the rotation into Q (transposed: rows p and r).
        double* qp = qt.data() + p * n;
        double* qr = qt.data() + r * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = qp[k];
          const double qkq = qr[k];
          qp[k] = c * qkp - s * qkq;
          qr[k] = s * qkp + c * qkq;
        }
      }
    }
  }
  if (!converged) converged = off_diagonal_mass() <= stop;

  std::vector<double> diagonal(n);
  for (std::size_t i = 0; i < n; ++i) diagonal[i] = a[i * n + i];
  return finalize(diagonal, {qt.data(), n}, n, converged, sweeps_used);
}

Tensor eigen_reconstruct(const EigenDecomposition& e) {
  const std::size_t n = e.eigenvalues.size();
  Tensor scaled({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      scaled.at(i, j) = e.eigenvectors.at(i, j) * e.eigenvalues[j];
    }
  }
  Tensor out;
  gemm_nt(scaled, e.eigenvectors, out);
  return out;
}

}  // namespace compso::tensor
