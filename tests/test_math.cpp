// Blocked math engine (src/tensor/matrix_ops, DESIGN.md §11) against the
// retained naive references: property tests on awkward shapes, bitwise
// determinism of the pool-parallel path at several thread counts, NaN/Inf
// propagation through the kernels (no zero-skip), the Householder + QL
// eigh against the Jacobi oracle on adversarial spectra, non-convergence
// reporting, eigh's exact output bits, and the scratch-reuse helper. The
// parallel suites run under TSan via ci.sh's build-tsan config.

#include "src/common/thread_pool.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/tensor/eigen.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

namespace ct = compso::tensor;
namespace common = compso::common;

namespace {

ct::Tensor rand2(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ct::Tensor t({rows, cols});
  ct::Rng rng(seed);
  rng.fill_uniform(t.span(), -1.0F, 1.0F);
  return t;
}

/// Blocked vs reference agree to accumulation tolerance (the FMA
/// microkernels round once per multiply-add, the references twice), with
/// slack proportional to the reduction length k.
void expect_close(const ct::Tensor& got, const ct::Tensor& want,
                  std::size_t k, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  const float tol = 1e-6F * static_cast<float>(k + 4);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float w = want[i];
    ASSERT_NEAR(got[i], w, tol * std::max(1.0F, std::fabs(w)))
        << what << " diverges at flat index " << i;
  }
}

void expect_bitwise(const ct::Tensor& got, const ct::Tensor& want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " diverges at flat index " << i;
  }
}

// Shapes chosen to hit every edge of the blocked engine: below the
// small-op cutoff (routes to the reference), just above it, 1xN / Nx1
// (degenerate register tiles), non-multiples of MR/NR/MC/KC/NC, and
// sizes spanning several cache blocks.
const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
    kGemmShapes = {
        {1, 1, 1},    {1, 8, 1},      {5, 1, 9},      {3, 7, 5},
        {1, 300, 400}, {400, 300, 1}, {33, 65, 17},   {96, 96, 96},
        {97, 129, 65}, {128, 64, 256}, {130, 200, 110},
};

TEST(BlockedGemm, MatchesReferenceOnAwkwardShapes) {
  std::uint64_t seed = 100;
  for (const auto& [m, k, n] : kGemmShapes) {
    const auto a = rand2(m, k, seed++);
    const auto b = rand2(k, n, seed++);
    ct::Tensor got, want;
    ct::gemm(a, b, got);
    ct::gemm_reference(a, b, want);
    expect_close(got, want, k,
                 ("gemm " + std::to_string(m) + "x" + std::to_string(k) + "x" +
                  std::to_string(n))
                     .c_str());
  }
}

TEST(BlockedGemm, TnMatchesReferenceOnAwkwardShapes) {
  std::uint64_t seed = 200;
  for (const auto& [m, k, n] : kGemmShapes) {
    const auto a = rand2(k, m, seed++);  // stored transposed.
    const auto b = rand2(k, n, seed++);
    ct::Tensor got, want;
    ct::gemm_tn(a, b, got);
    ct::gemm_tn_reference(a, b, want);
    expect_close(got, want, k, "gemm_tn");
  }
}

TEST(BlockedGemm, NtMatchesReferenceOnAwkwardShapes) {
  std::uint64_t seed = 300;
  for (const auto& [m, k, n] : kGemmShapes) {
    const auto a = rand2(m, k, seed++);
    const auto b = rand2(n, k, seed++);  // stored transposed.
    ct::Tensor got, want;
    ct::gemm_nt(a, b, got);
    ct::gemm_nt_reference(a, b, want);
    expect_close(got, want, k, "gemm_nt");
  }
}

TEST(BlockedGemm, EmptyOperandsProduceZeroOutput) {
  for (const auto& [m, k, n] :
       std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>{
           {0, 5, 7}, {5, 0, 7}, {5, 7, 0}, {0, 0, 0}}) {
    const auto a = rand2(m, k, 7);
    const auto b = rand2(k, n, 8);
    ct::Tensor c;
    ct::gemm(a, b, c);
    EXPECT_EQ(c.rows(), m);
    EXPECT_EQ(c.cols(), n);
    for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0F);
  }
}

TEST(BlockedSyrk, MatchesReferenceIncludingBetaAccumulation) {
  std::uint64_t seed = 400;
  for (const auto& [n, d] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {4, 7}, {33, 97}, {150, 130}, {64, 200}}) {
    const auto a = rand2(n, d, seed++);
    // Fresh output.
    ct::Tensor got, want;
    ct::syrk_tn(a, 0.7F, 0.0F, got);
    ct::syrk_tn_reference(a, 0.7F, 0.0F, want);
    expect_close(got, want, n, "syrk_tn fresh");
    // Accumulating into identical prior state (beta != 0).
    ct::Tensor prior = rand2(d, d, seed);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) prior.at(j, i) = prior.at(i, j);
    }
    ct::Tensor got2 = prior, want2 = prior;
    ct::syrk_tn(a, 1.3F, 0.4F, got2);
    ct::syrk_tn_reference(a, 1.3F, 0.4F, want2);
    expect_close(got2, want2, n, "syrk_tn accumulate");
    // The mirrored output is exactly symmetric.
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(got2.at(i, j)),
                  std::bit_cast<std::uint32_t>(got2.at(j, i)));
      }
    }
  }
}

// DistKfac keeps and ships covariances as packed upper triangles, which
// loses nothing only because syrk_tn's output is exactly symmetric.
// Shapes straddle the MR / NR / KC tile edges of every ISA variant and
// the small-op cutoff; pool sizes cover the serial and the row-parallel
// paths. syrk_tn_packed must write the same bits.
TEST(BlockedSyrk, FreshOutputIsExactlySymmetricAtAnyPoolSize) {
  std::uint64_t seed = 450;
  for (const std::size_t threads : {0UL, 2UL, 4UL}) {
    std::unique_ptr<common::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
    ct::MathPoolGuard guard(pool.get());
    for (const std::size_t d : {1UL, 31UL, 33UL, 65UL, 193UL, 257UL}) {
      for (const std::size_t n : {1UL, 7UL, 256UL}) {
        const std::string what = "syrk_tn d=" + std::to_string(d) +
                                 " n=" + std::to_string(n) + " threads=" +
                                 std::to_string(threads);
        const auto a = rand2(n, d, seed++);
        ct::Tensor c;
        ct::syrk_tn(a, 0.3F, 0.0F, c);
        for (std::size_t i = 0; i < d; ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)),
                      std::bit_cast<std::uint32_t>(c.at(j, i)))
                << what << " at (" << i << ", " << j << ")";
          }
        }
        std::vector<float> packed(ct::packed_size(d));
        std::vector<float> direct(ct::packed_size(d));
        ct::pack_upper(c, packed);
        ct::syrk_tn_packed(a, 0.3F, direct);
        ASSERT_EQ(packed, direct) << what;
      }
    }
  }
}

// --- bitwise determinism of the pool-parallel path ---
//
// Each output row block keeps its serial accumulation order, so the
// blocked kernels must produce byte-identical results with no pool and
// with pools of any size (DESIGN.md §11). Shapes exceed both the
// small-op and the parallel-dispatch thresholds.

TEST(ParallelMath, GemmBitIdenticalAcrossThreadCounts) {
  const auto a = rand2(257, 193, 41);
  const auto b = rand2(193, 211, 42);
  ct::Tensor serial;
  ct::gemm(a, b, serial);
  for (std::size_t threads : {1UL, 2UL, 8UL}) {
    common::ThreadPool pool(threads);
    ct::MathPoolGuard guard(&pool);
    ct::Tensor parallel;
    ct::gemm(a, b, parallel);
    expect_bitwise(parallel, serial,
                   ("gemm @" + std::to_string(threads) + " threads").c_str());
  }
  EXPECT_EQ(ct::math_pool(), nullptr);  // guard restored the previous pool.
}

TEST(ParallelMath, AllKernelsBitIdenticalUnderSharedPool) {
  const auto a = rand2(230, 140, 51);    // (m x k) for gemm_nt, (n x d) syrk.
  const auto at = rand2(140, 230, 52);   // (k x m) for gemm_tn.
  const auto bt = rand2(140, 180, 54);   // (k x n) for gemm_tn.
  const auto bn = rand2(180, 140, 53);   // (n x k) for gemm_nt.
  ct::Tensor s_tn, s_nt, s_syrk;
  ct::gemm_tn(at, bt, s_tn);
  ct::gemm_nt(a, bn, s_nt);
  ct::syrk_tn(a, 0.5F, 0.0F, s_syrk);
  for (std::size_t threads : {2UL, 8UL}) {
    common::ThreadPool pool(threads);
    ct::MathPoolGuard guard(&pool);
    ct::Tensor p_tn, p_nt, p_syrk;
    ct::gemm_tn(at, bt, p_tn);
    ct::gemm_nt(a, bn, p_nt);
    ct::syrk_tn(a, 0.5F, 0.0F, p_syrk);
    expect_bitwise(p_tn, s_tn, "gemm_tn parallel");
    expect_bitwise(p_nt, s_nt, "gemm_nt parallel");
    expect_bitwise(p_syrk, s_syrk, "syrk_tn parallel");
  }
}

// --- the engine's exact bits ---

/// FNV-1a over the bits of `v`.
std::uint64_t fold_bits(std::uint64_t h, std::span<const float> v) {
  for (const float f : v) {
    const std::uint32_t w = std::bit_cast<std::uint32_t>(f);
    for (int b = 0; b < 4; ++b) {
      h = (h ^ ((w >> (8 * b)) & 0xFF)) * 0x100000001b3ULL;
    }
  }
  return h;
}

using Mnk = std::tuple<std::size_t, std::size_t, std::size_t>;

/// Product shapes (m, n, k) of C (m x n) over k, by the edge they probe:
/// every MR remainder and MC boundary of the three ISA variants (m), NR
/// and NC (n), KC (k), both sides of kSmallGemmFlops (2^15), and the
/// trainbench workloads' products.
const std::vector<std::pair<const char*, std::vector<Mnk>>> kPinnedGemms = {
    {"m", {{1, 65, 520},  {2, 65, 520},  {3, 65, 520},  {4, 65, 520},
           {5, 65, 520},  {6, 65, 520},  {7, 65, 520},  {8, 65, 520},
           {9, 65, 520},  {12, 65, 520}, {13, 65, 520}, {95, 65, 520},
           {96, 65, 520}, {97, 65, 520}, {193, 65, 520}}},
    {"n", {{13, 1, 150},   {13, 2, 150},   {13, 3, 150},   {13, 4, 150},
           {13, 5, 150},   {13, 7, 150},   {13, 8, 150},   {13, 9, 150},
           {13, 15, 150},  {13, 16, 150},  {13, 17, 150},  {13, 31, 150},
           {13, 32, 150},  {13, 33, 150},  {13, 34, 150},  {13, 35, 150},
           {13, 63, 150},  {13, 64, 150},  {13, 65, 150},  {13, 511, 150},
           {13, 512, 150}, {13, 513, 150}}},
    {"k", {{14, 40, 1},   {14, 40, 2},   {14, 40, 3},   {14, 40, 5},
           {14, 40, 64},  {14, 40, 127}, {14, 40, 128}, {14, 40, 129},
           {14, 40, 255}, {14, 40, 256}, {14, 40, 257}, {14, 40, 300}}},
    {"cutoff", {{32, 32, 32}, {31, 32, 33}, {32, 32, 31}, {2, 128, 128},
                {7, 31, 151}}},
    {"workloads", {{256, 192, 192}, {256, 32, 192}, {256, 192, 32},
                   {192, 33, 192}, {192, 193, 193}, {32, 193, 32},
                   {32, 64, 64}, {64, 64, 32}}},
};

/// syrk shapes (rows, d): d's tile edges over kfac_compso's 256 rows, and
/// KC's edges in the row count.
const std::vector<std::pair<std::size_t, std::size_t>> kPinnedSyrks = {
    {256, 1},   {256, 5},   {256, 6},   {256, 7},  {256, 31},
    {256, 32},  {256, 33},  {256, 35},  {256, 64}, {256, 95},
    {256, 96},  {256, 97},  {256, 192}, {256, 193}, {1, 70},
    {127, 70},  {128, 70},  {129, 70},  {300, 70},
};

TEST(BlockedGemm, BitsArePinned) {
  // One hash per kernel and shape group. The hashes are the output of the
  // engine's first, per-element packers, so a packer or driver rewrite
  // that moves one rounding, or a build that fuses one multiply-add in
  // the reference loops, fails here (DESIGN.md §11.1). The AVX-512 and
  // AVX2 variants both do one std::fma per k and share a set; the SSE2
  // variant's mul+add has its own.
  struct Pin {
    const char* name;
    std::uint64_t fma, sse2;
  };
  const Pin pins[] = {
      {"gemm m", 0x1388a13238e44833ULL, 0x347888313ea57ca9ULL},
      {"gemm_tn m", 0xaa7cfbad07cf3e22ULL, 0x3e5dab08d7aa3bd4ULL},
      {"gemm_nt m", 0x8c1c789722512dcfULL, 0x166e97997a37c6e6ULL},
      {"gemm n", 0xed508c3207f51f0bULL, 0x2f665026685ed0adULL},
      {"gemm_tn n", 0x4807e13841218ec0ULL, 0x6a86f93530337ca1ULL},
      {"gemm_nt n", 0x47b3cc2c68f922f6ULL, 0xeb593bb1b22ae45dULL},
      {"gemm k", 0xe1fb3855d7a408f9ULL, 0xfd9c4814106e9daaULL},
      {"gemm_tn k", 0x05930d2b48a3d150ULL, 0xc0b03dcdcd400a51ULL},
      {"gemm_nt k", 0x4c39a1864718a9bbULL, 0x56d77293461bb8ccULL},
      {"gemm cutoff", 0x0cfc070411b3568aULL, 0xfa79052b04c5c85bULL},
      {"gemm_tn cutoff", 0x02ed40065fac7328ULL, 0x451e34e7d40e97f9ULL},
      {"gemm_nt cutoff", 0x8024721d766603d1ULL, 0xe192f8000bc64fdbULL},
      {"gemm workloads", 0x4e2ad72edcd18f66ULL, 0x43d3094a6049747eULL},
      {"gemm_tn workloads", 0xaec9acc7397bb343ULL, 0x56daed4755a2cde0ULL},
      {"gemm_nt workloads", 0x032c2d6f4b5d7957ULL, 0x6d36396f40c378e4ULL},
      {"syrk_tn beta 0", 0x5a2e19f9b5f5f0ecULL, 0x7a72ddb9136d8310ULL},
      {"syrk_tn beta 0.95", 0xd77b5a5fa55e2b0dULL, 0xfc287fbddbc55612ULL},
      {"syrk_tn_packed", 0xfd4b5d7542161500ULL, 0x49bda97dc5292f70ULL},
  };
  const bool fma = __builtin_cpu_supports("fma") &&
                   (__builtin_cpu_supports("avx512f") ||
                    __builtin_cpu_supports("avx2"));
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  std::vector<std::pair<std::string, std::uint64_t>> got;
  std::uint64_t seed = 7000;
  ct::Tensor c;
  for (const auto& [group, shapes] : kPinnedGemms) {
    std::uint64_t hg = kOffset, htn = kOffset, hnt = kOffset;
    for (const auto& [m, n, k] : shapes) {
      ct::gemm(rand2(m, k, seed), rand2(k, n, seed + 1), c);
      hg = fold_bits(hg, c.span());
      ct::gemm_tn(rand2(k, m, seed + 2), rand2(k, n, seed + 3), c);
      htn = fold_bits(htn, c.span());
      ct::gemm_nt(rand2(m, k, seed + 4), rand2(n, k, seed + 5), c);
      hnt = fold_bits(hnt, c.span());
      seed += 6;
    }
    got.emplace_back(std::string("gemm ") + group, hg);
    got.emplace_back(std::string("gemm_tn ") + group, htn);
    got.emplace_back(std::string("gemm_nt ") + group, hnt);
  }
  std::uint64_t hs0 = kOffset, hs1 = kOffset, hp = kOffset;
  for (const auto& [rows, d] : kPinnedSyrks) {
    const ct::Tensor a = rand2(rows, d, seed++);
    ct::Tensor fresh;
    ct::syrk_tn(a, 1.0F / static_cast<float>(rows), 0.0F, fresh);
    hs0 = fold_bits(hs0, fresh.span());
    ct::Tensor blend = rand2(d, d, seed++);
    ct::syrk_tn(a, 0.37F, 0.95F, blend);
    hs1 = fold_bits(hs1, blend.span());
    std::vector<float> packed(ct::packed_size(d));
    ct::syrk_tn_packed(a, 0.25F, packed);
    hp = fold_bits(hp, packed);
  }
  got.emplace_back("syrk_tn beta 0", hs0);
  got.emplace_back("syrk_tn beta 0.95", hs1);
  got.emplace_back("syrk_tn_packed", hp);

  ASSERT_EQ(got.size(), std::size(pins));
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, pins[i].name);
    EXPECT_EQ(got[i].second, fma ? pins[i].fma : pins[i].sse2)
        << got[i].first << (fma ? " (fma)" : " (sse2)") << ": 0x"
        << std::hex << got[i].second;
  }
}

// --- non-finite propagation (the old zero-skip bug class) ---
//
// 0 * NaN must stay NaN: the optimizer's non-finite guards rely on
// poisoned inputs reaching the output even through zero multiplicands.

TEST(NonFinite, ZeroTimesNanPropagatesThroughSmallKernels) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  ct::Tensor a({2, 3});  // all zeros.
  ct::Tensor b({3, 2});
  b.at(0, 0) = nan;
  ct::Tensor c;
  ct::gemm_reference(a, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));
  EXPECT_TRUE(std::isnan(c.at(1, 0)));
  ct::gemm(a, b, c);  // small shape routes to the reference.
  EXPECT_TRUE(std::isnan(c.at(0, 0)));

  ct::Tensor at({3, 2});  // zeros, for gemm_tn.
  ct::gemm_tn_reference(at, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));

  ct::Tensor bn({2, 3});
  bn.at(0, 1) = nan;
  ct::gemm_nt_reference(a, bn, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));

  ct::Tensor sa({4, 5});  // zeros with one NaN row entry.
  sa.at(0, 0) = nan;
  ct::Tensor sc;
  ct::syrk_tn_reference(sa, 1.0F, 0.0F, sc);
  EXPECT_TRUE(std::isnan(sc.at(0, 0)));
  // alpha == 0 must not bypass propagation either (0 * NaN).
  ct::syrk_tn_reference(sa, 0.0F, 0.0F, sc);
  EXPECT_TRUE(std::isnan(sc.at(0, 0)));
}

TEST(NonFinite, ZeroTimesNanPropagatesThroughBlockedKernels) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  ct::Tensor a({128, 128});  // all zeros -> blocked path (2^21 flops).
  ct::Tensor b({128, 128});
  b.at(77, 5) = nan;
  b.at(3, 100) = inf;
  ct::Tensor c;
  ct::gemm(a, b, c);
  for (std::size_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(std::isnan(c.at(i, 5))) << "row " << i;
    ASSERT_TRUE(std::isnan(c.at(i, 100))) << "row " << i;  // 0 * inf.
  }

  ct::Tensor sa({130, 128});  // zeros, blocked syrk path.
  sa.at(0, 64) = nan;
  ct::Tensor sc;
  ct::syrk_tn(sa, 1.0F, 0.0F, sc);
  EXPECT_TRUE(std::isnan(sc.at(64, 64)));
  EXPECT_TRUE(std::isnan(sc.at(0, 64)));
  EXPECT_TRUE(std::isnan(sc.at(64, 0)));  // mirrored triangle.
}

// --- eigh (Householder + implicit QL) vs the Jacobi oracle ---

ct::Tensor random_symmetric(std::size_t n, std::uint64_t seed) {
  ct::Tensor m = rand2(n, n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const float avg = 0.5F * (m.at(i, j) + m.at(j, i));
      m.at(i, j) = m.at(j, i) = avg;
    }
  }
  return m;
}

/// diag(values) conjugated by three random Householder reflections, in
/// double and rounded once: a dense symmetric matrix with that spectrum.
ct::Tensor with_spectrum(const std::vector<double>& values,
                         std::uint64_t seed) {
  const std::size_t n = values.size();
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = values[i];
  ct::Rng rng(seed);
  std::vector<float> v(n);
  std::vector<double> av(n);
  for (int r = 0; r < 3; ++r) {
    rng.fill_normal(v);
    double vv = 0.0;
    for (float x : v) vv += double{x} * x;
    // H A H with H = I - 2 v v^T / v^T v, applied as a rank-2 update.
    double vav = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      av[i] = 0.0;
      for (std::size_t j = 0; j < n; ++j) av[i] += a[i * n + j] * v[j];
      vav += v[i] * av[i];
    }
    const double k = 2.0 / vv;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a[i * n + j] += -k * (v[i] * av[j] + av[i] * v[j]) +
                        k * k * vav * v[i] * v[j];
      }
    }
  }
  ct::Tensor m({n, n});
  for (std::size_t i = 0; i < n * n; ++i) m[i] = static_cast<float>(a[i]);
  return m;
}

/// Near-identity spectrum: four clusters 1e-2 apart, members 1e-6 apart.
ct::Tensor clustered(std::size_t n, std::uint64_t seed) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 1.0 + 1e-2 * static_cast<double>(i % 4) +
                1e-6 * static_cast<double>(i / 4);
  }
  return with_spectrum(values, seed);
}

/// Adds `value` to the diagonal of square `a`.
void add_diagonal(ct::Tensor& a, float value) {
  for (std::size_t i = 0; i < a.rows(); ++i) a.at(i, i) += value;
}

/// B^T B with B of ceil(n/4) x n (rank ceil(n/4)), plus `shift` * I.
ct::Tensor rank_deficient(std::size_t n, float shift, std::uint64_t seed) {
  ct::Tensor b({(n + 3) / 4, n});
  ct::Rng rng(seed);
  rng.fill_normal(b.span());
  ct::Tensor m;
  ct::syrk_tn(b, 1.0F, 0.0F, m);
  add_diagonal(m, shift);
  return m;
}

double frobenius(const ct::Tensor& m) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) sum += double{m[i]} * m[i];
  return std::sqrt(sum);
}

struct EighErrors {
  double reconstruction = 0.0;  ///< |Q diag(v) Q^T - M|_F / |M|_F.
  double orthogonality = 0.0;   ///< max |Q^T Q - I|.
};

/// Both errors in double from the float outputs.
EighErrors errors_of(const ct::EigenDecomposition& e, const ct::Tensor& m) {
  const std::size_t n = m.rows();
  const ct::Tensor& q = e.eigenvectors;
  double rec = 0.0;
  double orth = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double qdq = 0.0;
      double qtq = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        qdq += double{q.at(i, k)} * e.eigenvalues[k] * q.at(j, k);
        qtq += double{q.at(k, i)} * q.at(k, j);
      }
      // The solvers symmetrize their input; measure against that.
      const double mij = 0.5 * (double{m.at(i, j)} + m.at(j, i));
      rec += (qdq - mij) * (qdq - mij);
      orth = std::max(orth, std::fabs(qtq - (i == j ? 1.0 : 0.0)));
    }
  }
  const double fro = frobenius(m);
  return {fro > 0.0 ? std::sqrt(rec) / fro : std::sqrt(rec), orth};
}

TEST(Eigh, MatchesJacobiOracleOnAdversarialSpectra) {
  const float damping =
      static_cast<float>(compso::optim::DistKfacConfig{}.damping);
  for (std::size_t n : {1UL, 2UL, 5UL, 33UL, 64UL, 129UL, 193UL}) {
    const std::pair<const char*, ct::Tensor> cases[] = {
        {"random", random_symmetric(n, 900 + n)},
        {"clustered", clustered(n, 1900 + n)},
        {"rank-deficient", rank_deficient(n, 0.0F, 2900 + n)},
        {"damped rank-deficient", rank_deficient(n, damping, 3900 + n)},
    };
    for (const auto& [name, m] : cases) {
      SCOPED_TRACE(testing::Message() << name << ", n=" << n);
      const auto got = ct::eigh(m);
      const auto want = ct::eigh_jacobi(m);
      ASSERT_TRUE(got.converged);
      ASSERT_TRUE(want.converged);
      ASSERT_EQ(got.eigenvalues.size(), n);
      for (std::size_t i = 1; i < n; ++i) {
        EXPECT_LE(got.eigenvalues[i - 1], got.eigenvalues[i]);
      }
      const double fro = frobenius(m);
      double worst = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        worst = std::max(worst, std::fabs(double{got.eigenvalues[i]} -
                                          want.eigenvalues[i]));
      }
      EXPECT_LE(worst, 1e-5 * fro);
      const EighErrors e = errors_of(got, m);
      const EighErrors oracle = errors_of(want, m);
      EXPECT_LE(e.reconstruction, std::max(2.0 * oracle.reconstruction, 1e-6));
      EXPECT_LE(e.orthogonality, std::max(2.0 * oracle.orthogonality, 1e-6));
    }
  }
}

TEST(Eigh, ReportsNonConvergence) {
  const ct::Tensor m = random_symmetric(16, 77);
  // A cap of zero on a matrix with off-diagonal mass: no work done.
  const auto none = ct::eigh(m, /*max_iterations=*/0);
  EXPECT_FALSE(none.converged);
  EXPECT_EQ(none.sweeps_used, 0);
  const auto none_jacobi = ct::eigh_jacobi(m, /*max_sweeps=*/0);
  EXPECT_FALSE(none_jacobi.converged);
  EXPECT_EQ(none_jacobi.sweeps_used, 0);
  // Non-finite input is reported by both solvers, before any work.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    ct::Tensor poisoned = m;
    poisoned.at(3, 5) = bad;
    poisoned.at(5, 3) = bad;
    for (const auto& e : {ct::eigh(poisoned), ct::eigh_jacobi(poisoned)}) {
      EXPECT_FALSE(e.converged) << bad;
      EXPECT_EQ(e.sweeps_used, 0) << bad;
      ASSERT_EQ(e.eigenvalues.size(), 16U);
      EXPECT_TRUE(std::isnan(e.eigenvalues[0])) << bad;
    }
  }
  // The default cap converges and says so.
  const auto ok = ct::eigh(m);
  EXPECT_TRUE(ok.converged);
  EXPECT_GT(ok.sweeps_used, 0);
}

TEST(Eigh, DegenerateInputsConverge) {
  // All-zero matrix: nothing to iterate on.
  const ct::Tensor zero({8, 8});
  const auto z = ct::eigh(zero, /*max_iterations=*/0);
  EXPECT_TRUE(z.converged);
  EXPECT_EQ(z.sweeps_used, 0);
  // Already-diagonal matrix: converges without an iteration.
  ct::Tensor diag({5, 5});
  for (std::size_t i = 0; i < 5; ++i) diag.at(i, i) = static_cast<float>(i);
  const auto d = ct::eigh(diag);
  EXPECT_TRUE(d.converged);
  EXPECT_EQ(d.sweeps_used, 0);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FLOAT_EQ(d.eigenvalues[i], static_cast<float>(i));
  }
}

// --- eigh's exact bits ---

/// FNV-1a folded over everything eigh returns.
std::uint64_t hash_eigh(std::uint64_t h, const ct::EigenDecomposition& e) {
  const auto fold = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((word >> (8 * b)) & 0xFF)) * 0x100000001b3ULL;
    }
  };
  for (float v : e.eigenvalues) fold(std::bit_cast<std::uint32_t>(v));
  for (float v : e.eigenvectors.span()) fold(std::bit_cast<std::uint32_t>(v));
  fold(static_cast<std::uint64_t>(e.sweeps_used));
  fold(e.converged ? 1 : 0);
  return h;
}

/// B^T B / r for a uniform B of r = n + 3 rows, summed in double: a
/// product of two floats is exact in double, so no host or contraction
/// rule can move the input's bits (the blocked syrk's can move).
ct::Tensor covariance(std::size_t n, std::uint64_t seed) {
  const std::size_t r = n + 3;
  const ct::Tensor b = rand2(r, n, seed);
  ct::Tensor m({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < r; ++k) {
        sum += double{b.at(k, i)} * double{b.at(k, j)};
      }
      m.at(i, j) = static_cast<float>(sum / static_cast<double>(r));
    }
  }
  return m;
}

/// Diagonal with repeated, zero and negative entries.
ct::Tensor repeated_diagonal(std::size_t n) {
  ct::Tensor m({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    m.at(i, i) = static_cast<float>((i * 7) % 5) - 2.0F;
  }
  return m;
}

TEST(Eigh, BitsArePinned) {
  // One hash per size over four inputs: random symmetric, covariance,
  // diagonal and zero. The sizes cover every vector-width remainder of
  // the kernels' row loops. The hashes are the textbook tred2/tql2 loops'
  // output, so a kernel rewrite that reorders one rounding, or a build
  // that fuses one multiply-add, fails here (DESIGN.md §11.4).
  const std::pair<std::size_t, std::uint64_t> pins[] = {
      {1, 0xaea8a779f87284a9ULL},   {2, 0x067e1cec8757acbaULL},
      {3, 0xdc69d63658afc248ULL},   {4, 0xd1f3fbaaba8bbaf1ULL},
      {5, 0x918810fa017e7459ULL},   {6, 0xb4de958d00b0c67fULL},
      {7, 0xf1e9f2e1e44a6375ULL},   {8, 0xd6c49cc1a3d86e0eULL},
      {9, 0x33990512b6ed8df2ULL},   {16, 0xb6296429b8d30e3bULL},
      {17, 0x77f712ec33b49028ULL},  {31, 0x83da8d3bbd29f018ULL},
      {32, 0xd4994a24d8dd9ef5ULL},  {33, 0xcb8c119b86dc6cf5ULL},
      {64, 0xb7b691334ee14400ULL},  {65, 0x37aa903d80256823ULL},
      {129, 0x96447122ebcd0cadULL}, {192, 0x381230ed5f31c5f0ULL},
      {193, 0x3d9befbf4784cb88ULL},
  };
  for (const auto& [n, want] : pins) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const ct::Tensor& m :
         {random_symmetric(n, 5000 + n), covariance(n, 6000 + n),
          repeated_diagonal(n), ct::Tensor({n, n})}) {
      h = hash_eigh(h, ct::eigh(m));
    }
    EXPECT_EQ(h, want) << "n=" << n << ": 0x" << std::hex << h;
  }
}

// --- scratch-reuse helper ---

TEST(EnsureShape2, ReusesAllocationWhenShapeUnchanged) {
  ct::Tensor t({4, 5});
  const float* before = t.data();
  ct::ensure_shape2(t, 4, 5);
  EXPECT_EQ(t.data(), before);  // no reallocation.
  ct::ensure_shape2(t, 3, 2);
  EXPECT_EQ(t.rows(), 3U);
  EXPECT_EQ(t.cols(), 2U);
}

}  // namespace
