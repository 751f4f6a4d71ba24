#include "src/tensor/matrix_ops.hpp"

#include "src/common/thread_pool.hpp"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace compso::tensor {
namespace {

void check2(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(name) + ": expected rank-2 tensor");
  }
}

// The shared math pool (DESIGN.md §11). Plain pointer, set at wiring time
// (benches/tests) before any concurrent use; kernels re-read it per call.
std::atomic<common::ThreadPool*> g_math_pool{nullptr};

// ---------------------------------------------------------------------------
// Blocked operand-view engine.
//
// Classic three-level blocking (jc -> pc -> ic):
//   NC: columns of B per outer block,
//   KC: depth of one pass over an MR x NR register tile,
//   MC: rows of C per parallel work unit (multiple of MR).
//
// The tiles read their operands where they lie (DESIGN.md §11.1): A by
// broadcast through a view with a row and a k stride, B from rows ldb
// apart. Only two operands are copied, each once per call: gemm_nt's B,
// stored along k, is transposed into rows, and syrk's A is scaled by
// alpha.
//
// Determinism: the pc loop is serial and ascending, and a tile starts each
// C element from its stored value (from zero on a fresh output's first KC
// pass), extends its accumulation chain with k ascending (one fused or
// unfused multiply-add per k), and stores it back. Every output element
// therefore sees one fixed operation sequence regardless of blocking or of
// which thread computed its row block — results are bit-identical at any
// thread count. The tile is runtime-dispatched to the widest ISA the host
// offers (AVX-512+FMA, AVX2+FMA, baseline SSE2); the chosen variant is a
// pure function of the host CPU, so within a machine the dispatch is
// deterministic too. The FMA variants round once per multiply-add, so
// blocked results agree with the unfused *_reference oracles to
// accumulation tolerance, not bitwise (the property tests encode exactly
// that contract).
// ---------------------------------------------------------------------------

/// An A operand: element (i, p) at data[i * ld + p] when stored along k,
/// at data[p * ld + i] when `trans` (stored along the tile rows).
struct AView {
  const float* data;
  std::size_t ld;
  bool trans;
};

/// A B operand: element (p, j) at data[p * ld + j].
struct BView {
  const float* data;
  std::size_t ld;
};

/// One register tile: C rows [0, mr) x columns [0, nr) += A rows x B
/// columns over kb ks, all pointers at the tile's first row, column and k.
struct Tile {
  const float* a;
  std::size_t rs, ks;  ///< A's row and k strides.
  const float* b;
  std::size_t ldb;
  float* c;
  std::size_t ldc;
  std::size_t kb, mr, nr;
  bool load_c;  ///< start from C's values; false starts from +0.
  /// Row r keeps only columns j >= diag + r (syrk's upper triangle);
  /// kNoDiag everywhere else.
  std::ptrdiff_t diag;
};

constexpr std::ptrdiff_t kNoDiag =
    std::numeric_limits<std::ptrdiff_t>::min() / 2;

using TileFn = void (*)(const Tile&);

/// One ISA variant of the engine: register-tile shape, blocking
/// parameters and the tile kernel.
struct KernelDesc {
  std::size_t mr, nr;      ///< register tile.
  std::size_t mc, kc, nc;  ///< cache blocking (mc is a multiple of mr).
  TileFn tile;
};

/// Generic tile body for the AVX2 and SSE2 variants. With UseFma the
/// multiply-add is a single fused rounding (std::fma compiles to one
/// vfmadd when the enclosing function carries the matching target
/// attribute); without it, separate mul+add exactly like the reference
/// loops. A full tile runs the fixed-size loops; a short or diagonal one
/// reads and writes only its real elements. Must inline into its
/// ISA-targeted wrapper to inherit the wider instruction set.
template <std::size_t MRv, std::size_t NRv, bool UseFma>
[[gnu::always_inline]] inline void tile_body(const Tile& t) {
  const auto madd = [](float a, float b, float acc) {
    if constexpr (UseFma) {
      return std::fma(a, b, acc);
    } else {
      return acc + a * b;
    }
  };
  float acc[MRv][NRv];
  if (t.mr == MRv && t.nr == NRv &&
      t.diag + static_cast<std::ptrdiff_t>(MRv) <= 1) {
    for (std::size_t r = 0; r < MRv; ++r) {
      for (std::size_t j = 0; j < NRv; ++j) {
        acc[r][j] = t.load_c ? t.c[r * t.ldc + j] : 0.0F;
      }
    }
    for (std::size_t p = 0; p < t.kb; ++p) {
      const float* b = t.b + p * t.ldb;
      for (std::size_t r = 0; r < MRv; ++r) {
        const float av = t.a[r * t.rs + p * t.ks];
        for (std::size_t j = 0; j < NRv; ++j) {
          acc[r][j] = madd(av, b[j], acc[r][j]);
        }
      }
    }
    for (std::size_t r = 0; r < MRv; ++r) {
      for (std::size_t j = 0; j < NRv; ++j) t.c[r * t.ldc + j] = acc[r][j];
    }
    return;
  }
  const auto keep = [&t](std::size_t r, std::size_t j) {
    return r < t.mr && j < t.nr &&
           static_cast<std::ptrdiff_t>(j) >=
               t.diag + static_cast<std::ptrdiff_t>(r);
  };
  for (std::size_t r = 0; r < MRv; ++r) {
    for (std::size_t j = 0; j < NRv; ++j) {
      acc[r][j] = t.load_c && keep(r, j) ? t.c[r * t.ldc + j] : 0.0F;
    }
  }
  for (std::size_t p = 0; p < t.kb; ++p) {
    const float* b = t.b + p * t.ldb;
    float bv[NRv];
    for (std::size_t j = 0; j < NRv; ++j) bv[j] = j < t.nr ? b[j] : 0.0F;
    for (std::size_t r = 0; r < t.mr; ++r) {
      const float av = t.a[r * t.rs + p * t.ks];
      for (std::size_t j = 0; j < NRv; ++j) {
        acc[r][j] = madd(av, bv[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < MRv; ++r) {
    for (std::size_t j = 0; j < NRv; ++j) {
      if (keep(r, j)) t.c[r * t.ldc + j] = acc[r][j];
    }
  }
}

// Baseline (SSE2): 6x8 tile = 12 xmm accumulators, mul+add (no FMA in
// the baseline ISA), bit-identical to the reference loops.
void tile_generic(const Tile& t) { tile_body<6, 8, false>(t); }

// AVX2+FMA: 4x16 tile = 8 ymm accumulators.
[[gnu::target("avx2,fma")]] void tile_avx2(const Tile& t) {
  tile_body<4, 16, true>(t);
}

/// AVX-512+FMA tile of R rows and V 16-float column vectors, in
/// intrinsics so the 16 accumulators of the 8x32 tile stay in registers
/// at any optimization level and under sanitizers. A is broadcast one
/// element per row and k (Trans: the R rows of a k lie side by side); B
/// loads and C loads and stores are masked to the tile's real columns
/// and, on syrk's diagonal, to the upper triangle, so nothing past the
/// last row or column is read or written.
template <int R, int V, bool Trans>
[[gnu::target("avx512f,fma"), gnu::always_inline]] inline void tile512(
    const Tile& t) {
  const std::uint32_t cols =
      t.nr >= 32 ? 0xFFFFFFFFU : (std::uint32_t{1} << t.nr) - 1;
  __mmask16 keep[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    std::uint32_t m = cols;
    const std::ptrdiff_t drop = t.diag + r;
    if (drop > 0) m = drop >= 32 ? 0 : m & (~std::uint32_t{0} << drop);
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      keep[r][v] = static_cast<__mmask16>(m >> (16 * v));
    }
  }
  __m512 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      acc[r][v] = t.load_c ? _mm512_maskz_loadu_ps(keep[r][v],
                                                   t.c + r * t.ldc + 16 * v)
                           : _mm512_setzero_ps();
    }
  }
  const __mmask16 bmask[2] = {static_cast<__mmask16>(cols),
                              static_cast<__mmask16>(cols >> 16)};
  const float* arow[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) arow[r] = t.a + (Trans ? r : r * t.rs);
  const float* b = t.b;
  for (std::size_t p = 0; p < t.kb; ++p, b += t.ldb) {
    __m512 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      bv[v] = _mm512_maskz_loadu_ps(bmask[v], b + 16 * v);
    }
    const std::size_t off = Trans ? p * t.ks : p;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r][off]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      _mm512_mask_storeu_ps(t.c + r * t.ldc + 16 * v, keep[r][v], acc[r][v]);
    }
  }
}

template <int V, bool Trans>
[[gnu::target("avx512f,fma")]] void tile512_rows(const Tile& t) {
  switch (t.mr) {
    case 1: return tile512<1, V, Trans>(t);
    case 2: return tile512<2, V, Trans>(t);
    case 3: return tile512<3, V, Trans>(t);
    case 4: return tile512<4, V, Trans>(t);
    case 5: return tile512<5, V, Trans>(t);
    case 6: return tile512<6, V, Trans>(t);
    case 7: return tile512<7, V, Trans>(t);
    default: return tile512<8, V, Trans>(t);
  }
}

// AVX-512+FMA: 8x32 tile = 16 zmm accumulators; a tile of at most 16
// real columns runs on one vector per row. Every A view has a unit row
// or a unit k stride; rs == 1 is the transposed one.
void tile_avx512(const Tile& t) {
  if (t.rs == 1) {
    return t.nr > 16 ? tile512_rows<2, true>(t) : tile512_rows<1, true>(t);
  }
  return t.nr > 16 ? tile512_rows<2, false>(t) : tile512_rows<1, false>(t);
}

/// Picks the widest variant the host supports, once per process. KC is
/// sized so one B tile (KC x NR floats) stays ~half-L1.
const KernelDesc& pick_kernel() {
  static const KernelDesc desc = [] {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
      return KernelDesc{8, 32, 96, 128, 512, tile_avx512};
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return KernelDesc{4, 16, 96, 256, 256, tile_avx2};
    }
    return KernelDesc{6, 8, 96, 256, 256, tile_generic};
  }();
  return desc;
}

/// Below this flop count the naive reference loops run instead.
constexpr std::size_t kSmallGemmFlops = 1UL << 15;
/// Minimum per-call flop count before row blocks go to the pool.
constexpr std::size_t kParallelFlops = 1UL << 21;

/// One product C += A * B as the row blocks see it.
struct Product {
  const KernelDesc* kd;
  AView a;
  BView b;
  float* c;
  std::size_t ldc, n, k;
  bool fresh;  ///< C holds no start values: the first KC pass starts at 0.
  bool triangular;  ///< syrk mode: skip tiles and stores below the diagonal.
};

/// Computes C rows [i0, i1): every NC x KC block of B in order, each
/// swept by the register tiles of the row block.
void run_row_block(const Product& pr, std::size_t i0, std::size_t i1) {
  const KernelDesc& kd = *pr.kd;
  const bool trans = pr.a.trans;
  Tile t{};
  t.rs = trans ? 1 : pr.a.ld;
  t.ks = trans ? pr.a.ld : 1;
  t.ldb = pr.b.ld;
  t.ldc = pr.ldc;
  for (std::size_t jc = 0; jc < pr.n; jc += kd.nc) {
    const std::size_t j1 = std::min(jc + kd.nc, pr.n);
    // syrk: the whole row block lies strictly below this column block.
    if (pr.triangular && j1 <= i0) continue;
    for (std::size_t pc = 0; pc < pr.k; pc += kd.kc) {
      t.kb = std::min(pc + kd.kc, pr.k) - pc;
      t.load_c = !pr.fresh || pc > 0;
      for (std::size_t gj = jc; gj < j1; gj += kd.nr) {
        t.nr = std::min(kd.nr, j1 - gj);
        t.b = pr.b.data + pc * pr.b.ld + gj;
        for (std::size_t gi = i0; gi < i1; gi += kd.mr) {
          if (pr.triangular && gj + t.nr <= gi) break;  // below diagonal.
          t.mr = std::min(kd.mr, i1 - gi);
          t.a = pr.a.data + (trans ? pc * pr.a.ld + gi : gi * pr.a.ld + pc);
          t.diag = pr.triangular ? static_cast<std::ptrdiff_t>(gi) -
                                       static_cast<std::ptrdiff_t>(gj)
                                 : kNoDiag;
          t.c = pr.c + gi * pr.ldc + gj;
          kd.tile(t);
        }
      }
    }
  }
}

/// Blocked driver: C(m x n) += A * B, or C = A * B when `fresh` (C's
/// contents are then never read). `triangular` computes the upper
/// triangle only (syrk).
void gemm_driver(const AView& a, const BView& b, float* c, std::size_t ldc,
                 std::size_t m, std::size_t n, std::size_t k, bool fresh,
                 bool triangular) {
  if (m == 0 || n == 0 || k == 0) return;
  const KernelDesc& kd = pick_kernel();
  common::ThreadPool* pool = g_math_pool.load(std::memory_order_acquire);
  const bool parallel = pool != nullptr &&
                        !common::ThreadPool::on_worker_thread() &&
                        m > kd.mc && m * n * k >= kParallelFlops;
  const Product pr{&kd, a, b, c, ldc, n, k, fresh, triangular};
  const std::size_t mblocks = (m + kd.mc - 1) / kd.mc;
  auto ranges = [&pr, &kd, m](std::size_t b0, std::size_t b1) {
    for (std::size_t ib = b0; ib < b1; ++ib) {
      run_row_block(pr, ib * kd.mc, std::min(ib * kd.mc + kd.mc, m));
    }
  };
  if (parallel) {
    pool->parallel_for_static(mblocks, ranges);
  } else {
    ranges(0, mblocks);
  }
}

/// Per-call operand copies and syrk_tn_packed's staging product. A
/// row-parallel product's workers read its caller's copies; the caller
/// runs queued tasks while it waits (parallel_for_static), as a worker,
/// so the products of those tasks use the worker set and never
/// reallocate a buffer being read.
struct Scratch {
  std::vector<float> operand;
  std::vector<float> product;
};

Scratch& scratch() {
  thread_local Scratch t_worker;
  thread_local Scratch t_top;
  return common::ThreadPool::on_worker_thread() ? t_worker : t_top;
}

/// out[p * n + j] = b(j, p) for b of n rows and k columns: gemm_nt's B,
/// stored along k, as the rows the tiles read. Four rows by four ks per
/// step; a pure copy.
void transpose_into(const MatrixView& b, float* out) {
  const std::size_t n = b.rows, k = b.cols;
  const std::size_t k4 = k - k % 4;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* s0 = b.data + j * b.ld;
    const float* s1 = s0 + b.ld;
    const float* s2 = s1 + b.ld;
    const float* s3 = s2 + b.ld;
    for (std::size_t p = 0; p < k4; p += 4) {
      __m128 r0 = _mm_loadu_ps(s0 + p), r1 = _mm_loadu_ps(s1 + p);
      __m128 r2 = _mm_loadu_ps(s2 + p), r3 = _mm_loadu_ps(s3 + p);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      _mm_storeu_ps(out + p * n + j, r0);
      _mm_storeu_ps(out + (p + 1) * n + j, r1);
      _mm_storeu_ps(out + (p + 2) * n + j, r2);
      _mm_storeu_ps(out + (p + 3) * n + j, r3);
    }
    for (std::size_t p = k4; p < k; ++p) {
      out[p * n + j] = s0[p];
      out[p * n + j + 1] = s1[p];
      out[p * n + j + 2] = s2[p];
      out[p * n + j + 3] = s3[p];
    }
  }
  for (; j < n; ++j) {
    const float* s = b.data + j * b.ld;
    for (std::size_t p = 0; p < k; ++p) out[p * n + j] = s[p];
  }
}

std::size_t flops_of(std::size_t m, std::size_t n, std::size_t k) {
  return m * n * k;
}

/// The reference syrk loop: C's upper triangle += (alpha * A)^T A for A
/// of shape (n x d), C a dense d x d buffer holding the initial values.
void syrk_upper_reference(const Tensor& a, float alpha, float* c) {
  const std::size_t n = a.rows(), d = a.cols();
  for (std::size_t s = 0; s < n; ++s) {
    const float* row = a.data() + s * d;
    for (std::size_t i = 0; i < d; ++i) {
      const float av = alpha * row[i];
      float* crow = c + i * d;
      for (std::size_t j = i; j < d; ++j) crow[j] += av * row[j];
    }
  }
}

/// syrk_upper_reference on the blocked engine once the product is large
/// enough. alpha folds into a scaled copy of A, which matches the
/// reference's `(alpha * row[i]) * row[j]` operation order exactly.
/// `fresh`: C holds no start values, and the upper triangle is written
/// without being read.
void syrk_upper(const Tensor& a, float alpha, float* c, bool fresh) {
  const std::size_t n = a.rows(), d = a.cols();
  if (flops_of(d, d, n) < kSmallGemmFlops) {
    if (fresh) std::fill(c, c + d * d, 0.0F);
    syrk_upper_reference(a, alpha, c);
    return;
  }
  std::vector<float>& scaled = scratch().operand;
  scaled.resize(n * d);
  const float* src = a.data();
  float* dst = scaled.data();
  const std::size_t size = n * d, size4 = size - size % 4;
  const __m128 valpha = _mm_set1_ps(alpha);
  for (std::size_t i = 0; i < size4; i += 4) {
    _mm_storeu_ps(dst + i, _mm_mul_ps(valpha, _mm_loadu_ps(src + i)));
  }
  for (std::size_t i = size4; i < size; ++i) dst[i] = alpha * src[i];
  gemm_driver({dst, d, true}, {src, d}, c, d, d, d, n, fresh, true);
}

}  // namespace

MatrixView::MatrixView(const Tensor& t) {
  check2(t, "MatrixView");
  data = t.data();
  rows = t.rows();
  cols = t.cols();
  ld = cols;
}

MatrixView::MatrixView(const float* d, std::size_t r, std::size_t c,
                       std::size_t stride)
    : data(d), rows(r), cols(c), ld(stride) {
  if (ld < cols) throw std::invalid_argument("MatrixView: ld < cols");
}

void set_math_pool(common::ThreadPool* pool) noexcept {
  g_math_pool.store(pool, std::memory_order_release);
}

common::ThreadPool* math_pool() noexcept {
  return g_math_pool.load(std::memory_order_acquire);
}

void ensure_shape2(Tensor& t, std::size_t rows, std::size_t cols) {
  if (t.rank() != 2 || t.rows() != rows || t.cols() != cols) {
    t = Tensor({rows, cols});
  }
}

// --- naive reference oracles -----------------------------------------------
//
// The pre-blocking loops, retained verbatim minus one bug: the old
// `if (av == 0.0F) continue;` fast-skip silently dropped NaN/Inf
// propagation (0 * NaN must stay NaN so the optimizer's non-finite
// guards fire on poisoned inputs). No kernel skips zero multiplicands.

namespace {

/// Sizes C to (m x n) and zeroes it: the references accumulate into it.
void zeroed(Tensor& c, std::size_t m, std::size_t n) {
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
}

}  // namespace

void gemm_reference(MatrixView a, MatrixView b, Tensor& c) {
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  if (b.rows != k) throw std::invalid_argument("gemm: inner dim mismatch");
  zeroed(c, m, n);
  // ikj loop order: streams B rows, accumulates into C rows.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    const float* arow = a.data + i * a.ld;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b.data + p * b.ld;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_tn_reference(MatrixView a, MatrixView b, Tensor& c) {
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  if (b.rows != k) throw std::invalid_argument("gemm_tn: inner dim mismatch");
  zeroed(c, m, n);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data + p * a.ld;
    const float* brow = b.data + p * b.ld;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_reference(MatrixView a, MatrixView b, Tensor& c) {
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  if (b.cols != k) throw std::invalid_argument("gemm_nt: inner dim mismatch");
  zeroed(c, m, n);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data + i * a.ld;
    float* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data + j * b.ld;
      float acc = 0.0F;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void syrk_tn_reference(const Tensor& a, float alpha, float beta, Tensor& c) {
  check2(a, "syrk_tn A");
  const std::size_t d = a.cols();
  if (c.rank() != 2 || c.rows() != d || c.cols() != d) {
    c = Tensor({d, d});
    beta = 0.0F;
  }
  for (auto& v : c.span()) v *= beta;
  syrk_upper_reference(a, alpha, c.data());
  mirror_upper(c);
}

// --- blocked production kernels --------------------------------------------

void gemm(MatrixView a, MatrixView b, Tensor& c) {
  const std::size_t m = a.rows, k = a.cols, n = b.cols;
  if (b.rows != k) throw std::invalid_argument("gemm: inner dim mismatch");
  if (flops_of(m, n, k) < kSmallGemmFlops) {
    gemm_reference(a, b, c);
    return;
  }
  ensure_shape2(c, m, n);
  gemm_driver({a.data, a.ld, false}, {b.data, b.ld}, c.data(), n, m, n, k,
              /*fresh=*/true, false);
}

void gemm_tn(MatrixView a, MatrixView b, Tensor& c) {
  const std::size_t k = a.rows, m = a.cols, n = b.cols;
  if (b.rows != k) throw std::invalid_argument("gemm_tn: inner dim mismatch");
  if (flops_of(m, n, k) < kSmallGemmFlops) {
    gemm_tn_reference(a, b, c);
    return;
  }
  ensure_shape2(c, m, n);
  gemm_driver({a.data, a.ld, true}, {b.data, b.ld}, c.data(), n, m, n, k,
              /*fresh=*/true, false);
}

void gemm_nt(MatrixView a, MatrixView b, Tensor& c) {
  const std::size_t m = a.rows, k = a.cols, n = b.rows;
  if (b.cols != k) throw std::invalid_argument("gemm_nt: inner dim mismatch");
  if (flops_of(m, n, k) < kSmallGemmFlops) {
    gemm_nt_reference(a, b, c);
    return;
  }
  ensure_shape2(c, m, n);
  std::vector<float>& bt = scratch().operand;
  bt.resize(k * n);
  transpose_into(b, bt.data());
  gemm_driver({a.data, a.ld, false}, {bt.data(), n}, c.data(), n, m, n, k,
              /*fresh=*/true, false);
}

void syrk_tn(const Tensor& a, float alpha, float beta, Tensor& c) {
  check2(a, "syrk_tn A");
  const std::size_t d = a.cols();
  const bool fresh = c.rank() != 2 || c.rows() != d || c.cols() != d;
  if (fresh) {
    c = Tensor({d, d});
  } else {
    for (auto& v : c.span()) v *= beta;
  }
  syrk_upper(a, alpha, c.data(), fresh);
  mirror_upper(c);
}

void syrk_tn_packed(const Tensor& a, float alpha, std::span<float> packed) {
  check2(a, "syrk_tn_packed A");
  const std::size_t d = a.cols();
  if (packed.size() != packed_size(d)) {
    throw std::invalid_argument("syrk_tn_packed: packed size mismatch");
  }
  // d x d staging, upper triangle written and read.
  std::vector<float>& product = scratch().product;
  product.resize(d * d);
  syrk_upper(a, alpha, product.data(), /*fresh=*/true);
  float* dst = packed.data();
  for (std::size_t i = 0; i < d; ++i) {
    dst = std::copy_n(product.data() + i * d + i, d - i, dst);
  }
}

void pack_upper(const Tensor& c, std::span<float> packed) {
  check2(c, "pack_upper");
  const std::size_t d = c.rows();
  if (c.cols() != d || packed.size() != packed_size(d)) {
    throw std::invalid_argument("pack_upper: shape mismatch");
  }
  float* dst = packed.data();
  for (std::size_t i = 0; i < d; ++i) {
    dst = std::copy_n(c.data() + i * d + i, d - i, dst);
  }
}

void mirror_upper(Tensor& c) {
  check2(c, "mirror_upper");
  const std::size_t d = c.rows();
  if (c.cols() != d) throw std::invalid_argument("mirror_upper: not square");
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i + 1; j < d; ++j) c.at(j, i) = c.at(i, j);
  }
}

}  // namespace compso::tensor
