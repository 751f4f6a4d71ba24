#include "src/tensor/matrix_ops.hpp"

#include "src/common/thread_pool.hpp"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <stdexcept>
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
// Blocked packed-panel engine.
//
// Classic three-level blocking (jc -> pc -> ic) with packed panels:
//   NC: columns of B per outer block (B panel: KC x NC, L2-resident),
//   KC: depth of one packed panel pass,
//   MC: rows of C per parallel work unit (multiple of MR),
//   MR x NR: the register tile one microkernel invocation accumulates.
//
// Determinism: the pc loop is serial and ascending, and the microkernel
// loads each C element into a register, extends its accumulation chain
// with k ascending (one fused or unfused multiply-add per k), and stores
// it back. Every output element therefore sees one fixed operation
// sequence regardless of blocking or of which thread computed its row
// block — results are bit-identical at any thread count. The microkernel
// is runtime-dispatched to the widest ISA the host offers (AVX-512+FMA,
// AVX2+FMA, baseline SSE2); the chosen variant is a pure function of the
// host CPU, so within a machine the dispatch is deterministic too. The
// FMA variants round once per multiply-add, so blocked results agree
// with the unfused *_reference oracles to accumulation tolerance, not
// bitwise (the property tests encode exactly that contract).
// ---------------------------------------------------------------------------

thread_local std::vector<float> t_apack;  ///< per-thread A panel scratch.
/// Caller-thread B panel scratch: t_bpack for inline products, t_bpack_top
/// for row-parallel ones. The caller of a row-parallel product runs queued
/// tasks while it waits for its row blocks (parallel_for_static), and
/// those tasks' products run inline on this thread: they pack into
/// t_bpack, never into the panel the workers are reading.
thread_local std::vector<float> t_bpack;
thread_local std::vector<float> t_bpack_top;

/// Operand layouts the packers understand. `trans == false` reads
/// element (i, p) at src[i * ld + p], the operand stored along k;
/// `trans == true` reads src[p * ld + i], the operand stored along the
/// tile dimension i (transposed relative to its role).
struct Panel {
  const float* data;
  std::size_t ld;
  bool trans;
};

/// Packs tile indices [i0, i1) x ks [p0, p1) of an operand into W-wide
/// micropanels: element (i0 + t*W + w, p0 + p) lands at t*W*kb + p*W + w,
/// multiplied by `scale` when Scaled (A folds alpha in here; B is copied
/// as is). Only the last micropanel can be short; its missing lanes are
/// zero. A pure copy, so no packer layout can move a bit of the product.
template <std::size_t W, bool Scaled>
void pack_panel(const Panel& src, std::size_t i0, std::size_t i1,
                std::size_t p0, std::size_t p1, float scale,
                std::vector<float>& buf) {
  const std::size_t kb = p1 - p0;
  const std::size_t tiles = (i1 - i0 + W - 1) / W;
  buf.resize(std::max(buf.size(), tiles * W * kb));
  const auto value = [scale](float v) { return Scaled ? scale * v : v; };
  const __m128 vscale = _mm_set1_ps(scale);
  for (std::size_t t = 0; t < tiles; ++t) {
    float* dst = buf.data() + t * W * kb;
    const std::size_t ib = i0 + t * W;
    const std::size_t w = std::min(W, i1 - ib);
    if (src.trans) {
      // Stored along the tile dimension: each k is a contiguous run, of
      // the compile-time width W except at the edge.
      const float* s = src.data + p0 * src.ld + ib;
      if (w == W) {
        for (std::size_t p = 0; p < kb; ++p, s += src.ld) {
          for (std::size_t l = 0; l < W; ++l) dst[p * W + l] = value(s[l]);
        }
      } else {
        for (std::size_t p = 0; p < kb; ++p, s += src.ld) {
          for (std::size_t l = 0; l < w; ++l) dst[p * W + l] = value(s[l]);
        }
      }
    } else {
      // Stored along k: transpose four lanes by four ks per step.
      const std::size_t kb4 = kb - kb % 4;
      std::size_t l = 0;
      for (; l + 4 <= w; l += 4) {
        const float* s0 = src.data + (ib + l) * src.ld + p0;
        const float* s1 = s0 + src.ld;
        const float* s2 = s1 + src.ld;
        const float* s3 = s2 + src.ld;
        for (std::size_t p = 0; p < kb4; p += 4) {
          __m128 r0 = _mm_loadu_ps(s0 + p), r1 = _mm_loadu_ps(s1 + p);
          __m128 r2 = _mm_loadu_ps(s2 + p), r3 = _mm_loadu_ps(s3 + p);
          _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
          if constexpr (Scaled) {
            r0 = _mm_mul_ps(vscale, r0);
            r1 = _mm_mul_ps(vscale, r1);
            r2 = _mm_mul_ps(vscale, r2);
            r3 = _mm_mul_ps(vscale, r3);
          }
          _mm_storeu_ps(dst + p * W + l, r0);
          _mm_storeu_ps(dst + (p + 1) * W + l, r1);
          _mm_storeu_ps(dst + (p + 2) * W + l, r2);
          _mm_storeu_ps(dst + (p + 3) * W + l, r3);
        }
        for (std::size_t p = kb4; p < kb; ++p) {
          dst[p * W + l] = value(s0[p]);
          dst[p * W + l + 1] = value(s1[p]);
          dst[p * W + l + 2] = value(s2[p]);
          dst[p * W + l + 3] = value(s3[p]);
        }
      }
      for (; l < w; ++l) {
        const float* s = src.data + (ib + l) * src.ld + p0;
        for (std::size_t p = 0; p < kb; ++p) dst[p * W + l] = value(s[p]);
      }
    }
    for (std::size_t p = 0; w < W && p < kb; ++p) {
      std::fill(dst + p * W + w, dst + (p + 1) * W, 0.0F);
    }
  }
}

using PackFn = void (*)(const Panel& src, std::size_t i0, std::size_t i1,
                        std::size_t p0, std::size_t p1, float scale,
                        std::vector<float>& buf);
using MicroFn = void (*)(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc);
using MicroEdgeFn = void (*)(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, std::size_t mr,
                             std::size_t nr, std::size_t gi0, std::size_t gj0,
                             bool triangular);
using NarrowFn = void (*)(std::size_t kb, const float* ap, std::size_t rows,
                          const float* bp, float* c, std::size_t ldc,
                          std::size_t nr, std::size_t gi0, std::size_t gj0,
                          bool triangular);

/// One ISA variant of the engine: register-tile shape, blocking
/// parameters, the two microkernels and the packers for its tile.
struct KernelDesc {
  std::size_t mr, nr;  ///< register tile.
  std::size_t mc, kc, nc;  ///< cache blocking (mc is a multiple of mr).
  MicroFn full;
  MicroEdgeFn edge;
  /// A last column tile of at most kNarrowCols columns, over a whole row
  /// block; null where the edge kernel covers it.
  NarrowFn narrow;
  PackFn pack_a;  ///< mr-wide, alpha folded in.
  PackFn pack_b;  ///< nr-wide, copied as is.
};

/// Widest last column tile the narrow kernel takes: each column costs it
/// a pass, and at 4 columns (192x196x193) it measured as slow as the
/// 6x32 edge tiles it replaces.
constexpr std::size_t kNarrowCols = 3;

/// Generic tile body. With UseFma the multiply-add is a single fused
/// rounding (std::fma compiles to one vfmadd when the enclosing function
/// carries the matching target attribute); without it, separate mul+add
/// exactly like the reference loops. Must inline into its ISA-targeted
/// wrapper to inherit the wider instruction set.
template <std::size_t MRv, std::size_t NRv, bool UseFma>
[[gnu::always_inline]] inline void micro_body(std::size_t kb, const float* ap,
                                              const float* bp, float* c,
                                              std::size_t ldc) {
  float acc[MRv][NRv];
  for (std::size_t r = 0; r < MRv; ++r) {
    for (std::size_t j = 0; j < NRv; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (std::size_t p = 0; p < kb; ++p) {
    const float* a = ap + p * MRv;
    const float* b = bp + p * NRv;
    for (std::size_t r = 0; r < MRv; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < NRv; ++j) {
        if constexpr (UseFma) {
          acc[r][j] = std::fma(av, b[j], acc[r][j]);
        } else {
          acc[r][j] += av * b[j];
        }
      }
    }
  }
  for (std::size_t r = 0; r < MRv; ++r) {
    for (std::size_t j = 0; j < NRv; ++j) c[r * ldc + j] = acc[r][j];
  }
}

/// Edge tile body: same accumulation chains, bounds-checked load/store.
/// `triangular` drops stores where global column < global row (syrk
/// upper-triangle tiles crossing the diagonal).
template <std::size_t MRv, std::size_t NRv, bool UseFma>
[[gnu::always_inline]] inline void micro_edge_body(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, std::size_t gi0,
    std::size_t gj0, bool triangular) {
  float acc[MRv][NRv];
  for (std::size_t r = 0; r < MRv; ++r) {
    for (std::size_t j = 0; j < NRv; ++j) {
      acc[r][j] = (r < mr && j < nr) ? c[r * ldc + j] : 0.0F;
    }
  }
  for (std::size_t p = 0; p < kb; ++p) {
    const float* a = ap + p * MRv;
    const float* b = bp + p * NRv;
    for (std::size_t r = 0; r < MRv; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < NRv; ++j) {
        if constexpr (UseFma) {
          acc[r][j] = std::fma(av, b[j], acc[r][j]);
        } else {
          acc[r][j] += av * b[j];
        }
      }
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t j = 0; j < nr; ++j) {
      if (triangular && gj0 + j < gi0 + r) continue;
      c[r * ldc + j] = acc[r][j];
    }
  }
}

// Baseline (SSE2): 6x8 tile = 12 xmm accumulators, mul+add (no FMA in
// the baseline ISA), bit-identical to the reference loops.
void micro_generic(std::size_t kb, const float* ap, const float* bp, float* c,
                   std::size_t ldc) {
  micro_body<6, 8, false>(kb, ap, bp, c, ldc);
}
void micro_generic_edge(std::size_t kb, const float* ap, const float* bp,
                        float* c, std::size_t ldc, std::size_t mr,
                        std::size_t nr, std::size_t gi0, std::size_t gj0,
                        bool triangular) {
  micro_edge_body<6, 8, false>(kb, ap, bp, c, ldc, mr, nr, gi0, gj0,
                               triangular);
}

// AVX2+FMA: 4x16 tile = 8 ymm accumulators.
[[gnu::target("avx2,fma")]] void micro_avx2(std::size_t kb, const float* ap,
                                            const float* bp, float* c,
                                            std::size_t ldc) {
  micro_body<4, 16, true>(kb, ap, bp, c, ldc);
}
[[gnu::target("avx2,fma")]] void micro_avx2_edge(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, std::size_t gi0,
    std::size_t gj0, bool triangular) {
  micro_edge_body<4, 16, true>(kb, ap, bp, c, ldc, mr, nr, gi0, gj0,
                               triangular);
}

// AVX-512+FMA: 6x32 tile = 12 zmm accumulators.
[[gnu::target("avx512f,fma")]] void micro_avx512(std::size_t kb,
                                                 const float* ap,
                                                 const float* bp, float* c,
                                                 std::size_t ldc) {
  micro_body<6, 32, true>(kb, ap, bp, c, ldc);
}
[[gnu::target("avx512f,fma")]] void micro_avx512_edge(
    std::size_t kb, const float* ap, const float* bp, float* c,
    std::size_t ldc, std::size_t mr, std::size_t nr, std::size_t gi0,
    std::size_t gj0, bool triangular) {
  micro_edge_body<6, 32, true>(kb, ap, bp, c, ldc, mr, nr, gi0, gj0,
                               triangular);
}

/// AVX-512 narrow edge. A 6x32 tile costs its 32 columns' FMAs however
/// few of them are real, and every A factor is in + 1 wide (33, 65, 193),
/// so its syrk's and each precondition product's last column tile did 32
/// columns of work for one. Here each column is one pass over the row
/// block, eight 6-row micropanels side by side in the low lanes of eight
/// zmm chains, so the k loop issues eight independent FMAs a step. Every
/// C element still takes one fused multiply-add per k, in ascending k,
/// from its stored value: the bits of the 6x32 path.
[[gnu::target("avx512f,fma")]] void micro_avx512_narrow(
    std::size_t kb, const float* ap, std::size_t rows, const float* bp,
    float* c, std::size_t ldc, std::size_t nr, std::size_t gi0,
    std::size_t gj0, bool triangular) {
  constexpr std::size_t kMr = 6, kNr = 32, kChains = 8;
  constexpr __mmask16 kRows = (1U << kMr) - 1;
  const std::size_t tiles = (rows + kMr - 1) / kMr;
  for (std::size_t j = 0; j < nr; ++j) {
    for (std::size_t t0 = 0; t0 < tiles; t0 += kChains) {
      const float* a[kChains];
      __m512 acc[kChains];
      for (std::size_t q = 0; q < kChains; ++q) {
        // Chains past the last tile rerun it; their sums are dropped.
        a[q] = ap + std::min(t0 + q, tiles - 1) * kMr * kb;
        alignas(64) float init[16] = {};
        for (std::size_t r = 0, i = (t0 + q) * kMr; r < kMr && i < rows;
             ++r, ++i) {
          init[r] = c[i * ldc + j];
        }
        acc[q] = _mm512_load_ps(init);
      }
      for (std::size_t p = 0; p < kb; ++p) {
        const __m512 b = _mm512_set1_ps(bp[p * kNr + j]);
        for (std::size_t q = 0; q < kChains; ++q) {
          const __m512 av = _mm512_maskz_loadu_ps(kRows, a[q] + p * kMr);
          acc[q] = _mm512_fmadd_ps(av, b, acc[q]);
        }
      }
      for (std::size_t q = 0; q < kChains; ++q) {
        alignas(64) float out[16];
        _mm512_store_ps(out, acc[q]);
        for (std::size_t r = 0, i = (t0 + q) * kMr; r < kMr && i < rows;
             ++r, ++i) {
          if (triangular && gj0 + j < gi0 + i) continue;
          c[i * ldc + j] = out[r];
        }
      }
    }
  }
}

/// Picks the widest variant the host supports, once per process. KC is
/// sized so one packed B micropanel (KC x NR floats) stays ~half-L1.
const KernelDesc& pick_kernel() {
  static const KernelDesc desc = [] {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
      return KernelDesc{6, 32, 96, 128, 512, micro_avx512, micro_avx512_edge,
                        micro_avx512_narrow, pack_panel<6, true>,
                        pack_panel<32, false>};
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return KernelDesc{4, 16, 96, 256, 256, micro_avx2, micro_avx2_edge,
                        nullptr, pack_panel<4, true>, pack_panel<16, false>};
    }
    return KernelDesc{6, 8, 96, 256, 256, micro_generic, micro_generic_edge,
                      nullptr, pack_panel<6, true>, pack_panel<8, false>};
  }();
  return desc;
}

/// Below this flop count the packing overhead dominates: use the naive
/// reference loops instead.
constexpr std::size_t kSmallGemmFlops = 1UL << 15;
/// Minimum per-call flop count before row blocks go to the pool.
constexpr std::size_t kParallelFlops = 1UL << 21;

struct BlockArgs {
  Panel a;
  const KernelDesc* kd;
  const float* bpack;  ///< packed B panel for [p0,p1) x [j0,j1).
  float* c;
  std::size_t ldc;
  std::size_t p0, p1, j0, j1;
  float alpha;
  bool triangular;  ///< syrk mode: skip stores below the diagonal.
};

/// Computes C rows [i0, i1) against the packed B panel: packs the A
/// block (per-thread scratch) and sweeps the microkernel grid.
void run_row_block(const BlockArgs& ba, std::size_t i0, std::size_t i1) {
  // syrk: the whole row block lies strictly below the diagonal band.
  if (ba.triangular && ba.j1 <= i0) return;
  const KernelDesc& kd = *ba.kd;
  kd.pack_a(ba.a, i0, i1, ba.p0, ba.p1, ba.alpha, t_apack);
  const std::size_t kb = ba.p1 - ba.p0;
  const std::size_t nb = ba.j1 - ba.j0;
  const std::size_t ntiles = (nb + kd.nr - 1) / kd.nr;
  const std::size_t last_nr = nb - (ntiles - 1) * kd.nr;
  const bool narrow = kd.narrow != nullptr && last_nr <= kNarrowCols;
  const std::size_t wide_tiles = narrow ? ntiles - 1 : ntiles;
  for (std::size_t it = 0; it * kd.mr < i1 - i0; ++it) {
    const std::size_t gi = i0 + it * kd.mr;
    const std::size_t mr = std::min(kd.mr, i1 - gi);
    const float* ap = t_apack.data() + it * kd.mr * kb;
    for (std::size_t jt = 0; jt < wide_tiles; ++jt) {
      const std::size_t gj = ba.j0 + jt * kd.nr;
      const std::size_t nr = std::min(kd.nr, ba.j1 - gj);
      if (ba.triangular && gj + nr <= gi) continue;  // fully below diagonal.
      const float* bp = ba.bpack + jt * kd.nr * kb;
      float* ctile = ba.c + gi * ba.ldc + gj;
      if (mr == kd.mr && nr == kd.nr &&
          !(ba.triangular && gj < gi + kd.mr)) {
        kd.full(kb, ap, bp, ctile, ba.ldc);
      } else {
        kd.edge(kb, ap, bp, ctile, ba.ldc, mr, nr, gi, gj, ba.triangular);
      }
    }
  }
  if (narrow) {
    const std::size_t gj = ba.j0 + wide_tiles * kd.nr;
    kd.narrow(kb, t_apack.data(), i1 - i0, ba.bpack + wide_tiles * kd.nr * kb,
              ba.c + i0 * ba.ldc + gj, ba.ldc, last_nr, i0, gj,
              ba.triangular);
  }
}

/// Blocked driver: C(m x n) += alpha * A * B with the given operand
/// layouts. C must already hold its initial values (the accumulation
/// chain continues from them). `triangular` enables the syrk
/// upper-triangle specialization.
void gemm_driver(const Panel& a, const Panel& b, float* c, std::size_t m,
                 std::size_t n, std::size_t k, float alpha, bool triangular) {
  if (m == 0 || n == 0 || k == 0) return;
  const KernelDesc& kd = pick_kernel();
  common::ThreadPool* pool = g_math_pool.load(std::memory_order_acquire);
  const bool parallel = pool != nullptr &&
                        !common::ThreadPool::on_worker_thread() &&
                        m > kd.mc && m * n * k >= kParallelFlops;
  const std::size_t mblocks = (m + kd.mc - 1) / kd.mc;
  for (std::size_t jc = 0; jc < n; jc += kd.nc) {
    const std::size_t j1 = std::min(jc + kd.nc, n);
    for (std::size_t pc = 0; pc < k; pc += kd.kc) {
      const std::size_t p1 = std::min(pc + kd.kc, k);
      std::vector<float>& bpack = parallel ? t_bpack_top : t_bpack;
      kd.pack_b(b, jc, j1, pc, p1, 1.0F, bpack);
      BlockArgs ba{a, &kd, bpack.data(), c, n, pc, p1, jc, j1, alpha,
                   triangular};
      auto ranges = [&ba, &kd, m](std::size_t b0, std::size_t b1) {
        for (std::size_t ib = b0; ib < b1; ++ib) {
          run_row_block(ba, ib * kd.mc, std::min(ib * kd.mc + kd.mc, m));
        }
      };
      if (parallel) {
        pool->parallel_for_static(mblocks, ranges);
      } else {
        ranges(0, mblocks);
      }
    }
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
/// enough to amortize packing. alpha folds into the A pack, which matches
/// the reference's `(alpha * row[i]) * row[j]` operation order exactly.
void syrk_upper(const Tensor& a, float alpha, float* c) {
  const std::size_t n = a.rows(), d = a.cols();
  if (flops_of(d, d, n) < kSmallGemmFlops) {
    syrk_upper_reference(a, alpha, c);
    return;
  }
  gemm_driver({a.data(), d, true}, {a.data(), d, true}, c, d, d, n, alpha,
              true);
}

}  // namespace

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

void gemm_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm A");
  check2(b, "gemm B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm: inner dim mismatch");
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  // ikj loop order: streams B rows, accumulates into C rows.
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    const float* arow = a.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b.data() + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_tn_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_tn A");
  check2(b, "gemm_tn B");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm_tn: inner dim mismatch");
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data() + p * m;
    const float* brow = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_nt A");
  check2(b, "gemm_nt B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) throw std::invalid_argument("gemm_nt: inner dim mismatch");
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.data() + j * k;
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

void gemm(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm A");
  check2(b, "gemm B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm: inner dim mismatch");
  if (flops_of(m, n, k) < kSmallGemmFlops) {
    gemm_reference(a, b, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  gemm_driver({a.data(), k, false}, {b.data(), n, true}, c.data(), m, n, k,
              1.0F, false);
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_tn A");
  check2(b, "gemm_tn B");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (b.rows() != k) throw std::invalid_argument("gemm_tn: inner dim mismatch");
  if (flops_of(m, n, k) < kSmallGemmFlops) {
    gemm_tn_reference(a, b, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  gemm_driver({a.data(), m, true}, {b.data(), n, true}, c.data(), m, n, k,
              1.0F, false);
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c) {
  check2(a, "gemm_nt A");
  check2(b, "gemm_nt B");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (b.cols() != k) throw std::invalid_argument("gemm_nt: inner dim mismatch");
  if (flops_of(m, n, k) < kSmallGemmFlops) {
    gemm_nt_reference(a, b, c);
    return;
  }
  if (c.rank() != 2 || c.rows() != m || c.cols() != n) {
    c = Tensor({m, n});
  } else {
    c.fill(0.0F);
  }
  gemm_driver({a.data(), k, false}, {b.data(), k, false}, c.data(), m, n, k,
              1.0F, false);
}

void syrk_tn(const Tensor& a, float alpha, float beta, Tensor& c) {
  check2(a, "syrk_tn A");
  const std::size_t d = a.cols();
  if (c.rank() != 2 || c.rows() != d || c.cols() != d) {
    c = Tensor({d, d});
    beta = 0.0F;
  }
  for (auto& v : c.span()) v *= beta;
  syrk_upper(a, alpha, c.data());
  mirror_upper(c);
}

void syrk_tn_packed(const Tensor& a, float alpha, std::span<float> packed) {
  check2(a, "syrk_tn_packed A");
  const std::size_t d = a.cols();
  if (packed.size() != packed_size(d)) {
    throw std::invalid_argument("syrk_tn_packed: packed size mismatch");
  }
  // d x d, upper triangle used. As with the B panel, a row-parallel
  // product's output must not be a buffer that a task this thread runs
  // while it waits (an inline call, on_worker_thread()) reallocates.
  thread_local std::vector<float> t_product;
  thread_local std::vector<float> t_product_top;
  std::vector<float>& product =
      common::ThreadPool::on_worker_thread() ? t_product : t_product_top;
  product.assign(d * d, 0.0F);
  syrk_upper(a, alpha, product.data());
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
