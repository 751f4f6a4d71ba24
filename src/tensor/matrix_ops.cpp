#include "src/tensor/matrix_ops.hpp"

#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <atomic>
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
/// element (i, p) at src[i * ld + p]; `trans == true` reads src[p * ld + i]
/// (i.e. the operand is stored transposed relative to its role).
struct Panel {
  const float* data;
  std::size_t ld;
  bool trans;

  float at(std::size_t i, std::size_t p) const {
    return trans ? data[p * ld + i] : data[i * ld + p];
  }
};

using MicroFn = void (*)(std::size_t kb, const float* ap, const float* bp,
                         float* c, std::size_t ldc);
using MicroEdgeFn = void (*)(std::size_t kb, const float* ap, const float* bp,
                             float* c, std::size_t ldc, std::size_t mr,
                             std::size_t nr, std::size_t gi0, std::size_t gj0,
                             bool triangular);

/// One ISA variant of the engine: register-tile shape, blocking
/// parameters, and the two microkernels.
struct KernelDesc {
  std::size_t mr, nr;  ///< register tile.
  std::size_t mc, kc, nc;  ///< cache blocking (mc is a multiple of mr).
  MicroFn full;
  MicroEdgeFn edge;
};

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

/// Picks the widest variant the host supports, once per process. KC is
/// sized so one packed B micropanel (KC x NR floats) stays ~half-L1.
const KernelDesc& pick_kernel() {
  static const KernelDesc desc = [] {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
      return KernelDesc{6, 32, 96, 128, 512, micro_avx512, micro_avx512_edge};
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return KernelDesc{4, 16, 96, 256, 256, micro_avx2, micro_avx2_edge};
    }
    return KernelDesc{6, 8, 96, 256, 256, micro_generic, micro_generic_edge};
  }();
  return desc;
}

/// Below this flop count the packing overhead dominates: use the naive
/// reference loops instead.
constexpr std::size_t kSmallGemmFlops = 1UL << 15;
/// Minimum per-call flop count before row blocks go to the pool.
constexpr std::size_t kParallelFlops = 1UL << 21;

/// Packs rows [i0, i1) x ks [p0, p1) of A into mr-row micropanels,
/// scaling by alpha (exact identity for alpha == 1). Zero-pads to mr.
void pack_a(const Panel& a, const KernelDesc& kd, std::size_t i0,
            std::size_t i1, std::size_t p0, std::size_t p1, float alpha,
            std::vector<float>& buf) {
  const std::size_t mr = kd.mr;
  const std::size_t kb = p1 - p0;
  const std::size_t mtiles = (i1 - i0 + mr - 1) / mr;
  buf.resize(std::max(buf.size(), mtiles * mr * kb));
  for (std::size_t t = 0; t < mtiles; ++t) {
    float* dst = buf.data() + t * mr * kb;
    const std::size_t ibase = i0 + t * mr;
    for (std::size_t p = 0; p < kb; ++p) {
      for (std::size_t r = 0; r < mr; ++r) {
        const std::size_t i = ibase + r;
        dst[p * mr + r] = i < i1 ? alpha * a.at(i, p0 + p) : 0.0F;
      }
    }
  }
}

/// Packs ks [p0, p1) x cols [j0, j1) of B into nr-column micropanels.
void pack_b(const Panel& b, const KernelDesc& kd, std::size_t p0,
            std::size_t p1, std::size_t j0, std::size_t j1,
            std::vector<float>& buf) {
  const std::size_t nr = kd.nr;
  const std::size_t kb = p1 - p0;
  const std::size_t ntiles = (j1 - j0 + nr - 1) / nr;
  buf.resize(std::max(buf.size(), ntiles * nr * kb));
  for (std::size_t t = 0; t < ntiles; ++t) {
    float* dst = buf.data() + t * nr * kb;
    const std::size_t jbase = j0 + t * nr;
    for (std::size_t p = 0; p < kb; ++p) {
      for (std::size_t c = 0; c < nr; ++c) {
        const std::size_t j = jbase + c;
        // b role: element (p, j) -> at(j, p) under the Panel convention
        // (Panel::at takes (i, p) with i the non-k index).
        dst[p * nr + c] = j < j1 ? b.at(j, p0 + p) : 0.0F;
      }
    }
  }
}

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
  pack_a(ba.a, kd, i0, i1, ba.p0, ba.p1, ba.alpha, t_apack);
  const std::size_t kb = ba.p1 - ba.p0;
  const std::size_t nb = ba.j1 - ba.j0;
  const std::size_t ntiles = (nb + kd.nr - 1) / kd.nr;
  for (std::size_t it = 0; it * kd.mr < i1 - i0; ++it) {
    const std::size_t gi = i0 + it * kd.mr;
    const std::size_t mr = std::min(kd.mr, i1 - gi);
    const float* ap = t_apack.data() + it * kd.mr * kb;
    for (std::size_t jt = 0; jt < ntiles; ++jt) {
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
      pack_b(b, kd, pc, p1, jc, j1, bpack);
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

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  gemm(a, b, c);
  return c;
}

Tensor transpose(const Tensor& a) {
  check2(a, "transpose");
  Tensor t({a.cols(), a.rows()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void gemv(const Tensor& a, std::span<const float> x, std::span<float> y) {
  check2(a, "gemv A");
  const std::size_t m = a.rows(), n = a.cols();
  if (x.size() != n || y.size() != m) {
    throw std::invalid_argument("gemv: shape mismatch");
  }
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * n;
    float acc = 0.0F;
    for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

void add_diagonal(Tensor& a, float value) {
  check2(a, "add_diagonal");
  const std::size_t n = std::min(a.rows(), a.cols());
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += value;
}

}  // namespace compso::tensor
