#pragma once
// Dense matrix kernels used by the NN substrate and the KFAC optimizer.
//
// The production kernels (gemm / gemm_tn / gemm_nt / syrk_tn) are lowered
// onto one cache-blocked engine whose register tiles read their operands
// in place (DESIGN.md §11.1): A by broadcast through a row/k-stride view,
// B from rows ldb apart; only gemm_nt's B and syrk's alpha-scaled A are
// copied. Output row blocks can additionally run in parallel on a shared
// ThreadPool (set_math_pool) via the deterministic static partitioner —
// every output element keeps its serial accumulation order (k ascending,
// single accumulator), so results are bit-identical at any thread count.
//
// The original naive kernels are retained as *_reference oracles: the
// property tests and the math micro-benchmark compare the blocked engine
// against them.

#include "src/tensor/tensor.hpp"

namespace compso::common {
class ThreadPool;
}

namespace compso::tensor {

/// Attaches (or detaches, with nullptr) the pool the blocked kernels use
/// to parallelize output-row blocks. The pool is shared with whatever
/// else the caller runs (typically the FaultTolerantTrainer's pool, which
/// also runs the StepGraph tasks) — the kernels never spawn threads of
/// their own, and calls that already run on a pool worker execute
/// inline, so layer-level parallelism above is never oversubscribed by
/// gemm-level parallelism below.
void set_math_pool(common::ThreadPool* pool) noexcept;
common::ThreadPool* math_pool() noexcept;

/// RAII helper for benches/tests: attaches a pool, restores the previous
/// one on destruction.
class MathPoolGuard {
 public:
  explicit MathPoolGuard(common::ThreadPool* pool) noexcept
      : prev_(math_pool()) {
    set_math_pool(pool);
  }
  ~MathPoolGuard() { set_math_pool(prev_); }
  MathPoolGuard(const MathPoolGuard&) = delete;
  MathPoolGuard& operator=(const MathPoolGuard&) = delete;

 private:
  common::ThreadPool* prev_;
};

/// A read-only row-major matrix operand: element (r, c) at
/// data[r * ld + c], ld >= cols. A rank-2 Tensor converts implicitly
/// (ld = cols); a narrower view reads a tensor's leading columns in place,
/// as Linear's backward reads x out of its [x | 1] input.
struct MatrixView {
  MatrixView(const Tensor& t);  // NOLINT(google-explicit-constructor)
  MatrixView(const float* data, std::size_t rows, std::size_t cols,
             std::size_t ld);

  const float* data;
  std::size_t rows, cols, ld;
};

/// C = A * B.  A is (m x k), B is (k x n), C is (m x n).
void gemm(MatrixView a, MatrixView b, Tensor& c);

/// C = A^T * B.  A is (k x m), B is (k x n), C is (m x n).
void gemm_tn(MatrixView a, MatrixView b, Tensor& c);

/// C = A * B^T.  A is (m x k), B is (n x k), C is (m x n).
void gemm_nt(MatrixView a, MatrixView b, Tensor& c);

/// C = alpha * A^T A + beta * C, for A of shape (n x d): the covariance
/// accumulation at the heart of KFAC factor computation (Eq. 1). Only the
/// upper-triangle blocks are computed; the result is mirrored, so C
/// equals C^T bit for bit.
void syrk_tn(const Tensor& a, float alpha, float beta, Tensor& c);

/// Floats in the packed upper triangle of a d x d symmetric matrix: row i
/// contributes its elements j = i .. d-1, rows in order.
constexpr std::size_t packed_size(std::size_t d) noexcept {
  return d * (d + 1) / 2;
}

/// Copies the upper triangle of square `c` into `packed` (packed_size
/// floats), one contiguous row segment per row.
void pack_upper(const Tensor& c, std::span<float> packed);

/// Copies the upper triangle of square `c` into its lower one.
void mirror_upper(Tensor& c);

/// The upper triangle of syrk_tn(a, alpha, 0, c) on a fresh c, written
/// into `packed` (see pack_upper) — the same bits. The d x d product is
/// staged in a per-thread scratch that is written before it is read, so
/// steady-state calls neither allocate nor zero-fill.
void syrk_tn_packed(const Tensor& a, float alpha, std::span<float> packed);

/// Naive single-thread reference kernels (the pre-blocking loops), kept
/// as correctness oracles. NOTE: like the blocked kernels, these do NOT
/// skip zero multiplicands — 0 * NaN must stay NaN so non-finite values
/// propagate into the output and the optimizer guards can fire.
void gemm_reference(MatrixView a, MatrixView b, Tensor& c);
void gemm_tn_reference(MatrixView a, MatrixView b, Tensor& c);
void gemm_nt_reference(MatrixView a, MatrixView b, Tensor& c);
void syrk_tn_reference(const Tensor& a, float alpha, float beta, Tensor& c);

/// Reshapes `t` to (rows x cols), reallocating only when the shape
/// actually differs — scratch-reuse helper for per-step workspaces.
void ensure_shape2(Tensor& t, std::size_t rows, std::size_t cols);

}  // namespace compso::tensor
