#include "src/tensor/eigen.hpp"

#include "src/tensor/matrix_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
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

/// Copies `m` into double storage and symmetrizes it (running-average
/// factors can drift slightly off symmetric).
std::vector<double> load_symmetric(const Tensor& m, std::size_t n) {
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n * n; ++i) a[i] = m.data()[i];
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (a[i * n + j] + a[j * n + i]);
      a[i * n + j] = a[j * n + i] = avg;
    }
  }
  return a;
}

/// Sorts eigenpairs ascending and materializes the result. Row i of `qt`
/// holds the eigenvector of `values[i]`.
EigenDecomposition finalize(const std::vector<double>& values,
                            const std::vector<double>& qt, std::size_t n,
                            bool converged, int sweeps_used) {
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
      out.eigenvectors.at(rowi, col) = static_cast<float>(qt[src * n + rowi]);
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

/// Householder reduction of the symmetric `w` (n x n, row-major) to
/// tridiagonal form: on return d holds the diagonal, e[1..n) the
/// subdiagonal (e[0] = 0), and row j of `w` column j of the orthogonal Q
/// with A = Q T Q^T. This is EISPACK's tred2 with the accumulator
/// transposed, so every inner loop runs along a row.
void tridiagonalize(std::vector<double>& w, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e) {
  const auto row = [&w, n](std::size_t r) { return w.data() + r * n; };
  for (std::size_t j = 0; j < n; ++j) d[j] = row(j)[n - 1];

  for (std::size_t i = n - 1; i > 0; --i) {
    // Reflector annihilating row i left of the subdiagonal; d[0..i) holds
    // that row (scaled) on entry.
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = row(j)[i - 1];
        row(j)[i] = 0.0;
        row(i)[j] = 0.0;
      }
    } else {
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      // p = A u / h into e[0..i), using the lower triangle only.
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
      for (std::size_t j = 0; j < i; ++j) {
        double* rj = row(j);
        f = d[j];
        row(i)[j] = f;
        g = e[j] + rj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += rj[k] * d[k];
          e[k] += rj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      // Rank-2 update A -= u q^T + q u^T on the lower triangle.
      for (std::size_t j = 0; j < i; ++j) {
        double* rj = row(j);
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) rj[k] -= f * e[k] + g * d[k];
        d[j] = rj[i - 1];
        rj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflectors into Q (stored transposed).
  for (std::size_t i = 0; i + 1 < n; ++i) {
    row(i)[n - 1] = row(i)[i];
    row(i)[i] = 1.0;
    const double h = d[i + 1];
    double* u = row(i + 1);
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* rj = row(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += u[k] * rj[k];
        for (std::size_t k = 0; k <= i; ++k) rj[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = row(j)[n - 1];
    row(j)[n - 1] = 0.0;
  }
  row(n - 1)[n - 1] = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL (EISPACK's tql2) on the tridiagonal (d, e), rotating
/// the rows of `qt`. Each eigenvalue gets at most `cap` iterations; one
/// that exhausts them is deflated as it stands. Returns the total
/// iteration count and clears `converged` on a cap hit.
int tridiagonal_ql(std::vector<double>& d, std::vector<double>& e,
                   std::vector<double>& qt, std::size_t n, int cap,
                   bool& converged) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

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
        // Rotate eigenvector rows i and i+1 (contiguous).
        double* qi = qt.data() + i * n;
        double* qi1 = qi + n;
        for (std::size_t k = 0; k < n; ++k) {
          const double t = qi1[k];
          qi1[k] = s * qi[k] + c * t;
          qi[k] = c * qi[k] - s * t;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift_sum;
    e[l] = 0.0;
  }
  return iterations;
}

}  // namespace

EigenDecomposition eigh(const Tensor& m, int max_iterations) {
  check_square(m);
  const std::size_t n = m.rows();
  if (!all_finite(m)) return non_finite_result(n);
  if (n == 0) return finalize({}, {}, 0, true, 0);
  std::vector<double> qt = load_symmetric(m, n);
  std::vector<double> d(n), e(n);
  tridiagonalize(qt, n, d, e);
  bool converged = true;
  const int iterations =
      tridiagonal_ql(d, e, qt, n, std::max(max_iterations, 0), converged);
  return finalize(d, qt, n, converged, iterations);
}

EigenDecomposition eigh_jacobi(const Tensor& m, int max_sweeps) {
  check_square(m);
  const std::size_t n = m.rows();
  if (!all_finite(m)) return non_finite_result(n);
  std::vector<double> a = load_symmetric(m, n);
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
  return finalize(diagonal, qt, n, converged, sweeps_used);
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
