// Cross-module property sweeps (parameterized gtest):
//  - error-bound contracts hold across bounds, modes, and data shapes;
//  - compressor roundtrips preserve counts across methods and sizes;
//  - the KFAC preconditioner degenerates to scaled SGD at huge damping;
//  - collective timing models are monotone in size and world.

#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/optim/kfac.hpp"
#include "src/quant/quantizer.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cm = compso::comm;
namespace cp = compso::compress;
namespace cq = compso::quant;
namespace ct = compso::tensor;
namespace opt = compso::optim;

namespace {

// --- error-bound contract sweep ---

struct BoundCase {
  double eb;
  cq::RoundingMode mode;
  const char* shape;
};

class ErrorBoundContract : public ::testing::TestWithParam<BoundCase> {};

TEST_P(ErrorBoundContract, ReconstructionWithinBound) {
  const auto& c = GetParam();
  ct::Rng rng(static_cast<std::uint64_t>(c.eb * 1e6) + 17);
  std::vector<float> data;
  if (std::string(c.shape) == "uniform") {
    data.resize(30000);
    rng.fill_uniform(data, -3.0F, 3.0F);
  } else if (std::string(c.shape) == "normal") {
    data.resize(30000);
    rng.fill_normal(data, 0.0F, 0.7F);
  } else {
    data = ct::synthetic_gradient(30000, ct::GradientProfile::kfac(), rng);
  }
  const cq::ErrorBoundedQuantizer q(c.eb, c.mode);
  const auto block = q.quantize(data, rng);
  std::vector<float> rec(data.size());
  cq::ErrorBoundedQuantizer::dequantize(block, rec);
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  const double limit = (c.mode == cq::RoundingMode::kNearest ? 1.0 : 2.0) *
                       c.eb * abs_max;
  // FP32 dequantization adds up to ~1 ulp of the value scale on top of
  // the analytic bound.
  EXPECT_LE(ct::max_abs_error(data, rec), limit * (1.0 + 1e-4) + 1e-7)
      << "eb=" << c.eb << " mode=" << cq::to_string(c.mode);
}

std::vector<BoundCase> bound_cases() {
  std::vector<BoundCase> cases;
  for (double eb : {1e-1, 1e-2, 4e-3, 1e-3, 1e-4}) {
    for (auto mode : {cq::RoundingMode::kNearest,
                      cq::RoundingMode::kStochastic,
                      cq::RoundingMode::kHalfProbability}) {
      for (const char* shape : {"uniform", "normal", "gradient"}) {
        cases.push_back({eb, mode, shape});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErrorBoundContract, ::testing::ValuesIn(bound_cases()),
    [](const auto& info) {
      const auto& c = info.param;
      std::string mode = cq::to_string(c.mode);
      for (auto& ch : mode) {
        if (ch == '.') ch = '_';
      }
      std::string eb = std::to_string(static_cast<int>(-std::log10(c.eb) * 10));
      return std::string(c.shape) + "_" + mode + "_em" + eb;
    });

// --- compressor roundtrip sweep ---

struct RoundtripCase {
  const char* name;
  std::function<std::unique_ptr<cp::GradientCompressor>()> make;
  std::size_t size;
};

class CompressorRoundtrip : public ::testing::TestWithParam<RoundtripCase> {};

TEST_P(CompressorRoundtrip, CountPreservedAndFinite) {
  const auto& c = GetParam();
  const auto compressor = c.make();
  ct::Rng rng(c.size + 3);
  const auto data =
      ct::synthetic_gradient(c.size, ct::GradientProfile::kfac(), rng);
  const auto payload = compressor->compress(data, rng);
  const auto rec = compressor->decompress(payload);
  ASSERT_EQ(rec.size(), data.size());
  for (float v : rec) EXPECT_TRUE(std::isfinite(v));
}

std::vector<RoundtripCase> roundtrip_cases() {
  struct Maker {
    const char* name;
    std::function<std::unique_ptr<cp::GradientCompressor>()> make;
  };
  const Maker makers[] = {
      {"COMPSO", [] { return cp::make_compso({}); }},
      {"QSGD4", [] { return cp::make_qsgd(4); }},
      {"QSGD8", [] { return cp::make_qsgd(8); }},
      {"SZ", [] { return cp::make_sz(4e-3); }},
      {"Cocktail", [] { return cp::make_cocktail(0.2, 8); }},
      {"TopK", [] { return cp::make_topk(0.05); }},
      {"Identity", [] { return cp::make_identity(); }},
  };
  std::vector<RoundtripCase> cases;
  for (const auto& m : makers) {
    for (std::size_t size : {1UL, 63UL, 1024UL, 100000UL}) {
      cases.push_back({m.name, m.make, size});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompressorRoundtrip,
                         ::testing::ValuesIn(roundtrip_cases()),
                         [](const auto& info) {
                           return std::string(info.param.name) + "_" +
                                  std::to_string(info.param.size);
                         });

// --- KFAC degenerates to scaled SGD at huge damping ---

/// One batch's factor update as DistKfac runs it: both covariances packed
/// by syrk_tn_packed (A = a^T a / B, G = B * g^T g), then blended.
void blend_batch(opt::KfacLayerState& st, const ct::Tensor& a,
                 const ct::Tensor& g, double stat_decay) {
  const auto batch = static_cast<float>(a.rows());
  std::vector<float> cov_a(ct::packed_size(a.cols()));
  std::vector<float> cov_g(ct::packed_size(g.cols()));
  ct::syrk_tn_packed(a, 1.0F / batch, cov_a);
  ct::syrk_tn_packed(g, batch, cov_g);
  st.blend_packed_factors(cov_a, cov_g, stat_decay);
}

TEST(KfacProperty, HugeDampingGivesScaledGradient) {
  // As gamma -> inf, (F + gamma I)^-1 -> I/gamma, so the preconditioned
  // gradient approaches grad / gamma.
  ct::Rng rng(21);
  opt::KfacLayerState st(5, 4);
  ct::Tensor a({16, 5}), g({16, 4});
  rng.fill_normal(a.span());
  rng.fill_normal(g.span(), 0.0F, 0.1F);
  blend_batch(st, a, g, 0.0);
  st.refresh_eigen();
  ct::Tensor grad({4, 5});
  rng.fill_normal(grad.span());
  const double gamma = 1e8;
  const ct::Tensor k = st.precondition(grad, gamma);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(k[i] * gamma, grad[i], 1e-2 + 1e-3 * std::fabs(grad[i]));
  }
}

TEST(KfacProperty, PreconditionerIsLinearInGradient) {
  // K(a*G1 + b*G2) == a*K(G1) + b*K(G2): Eq. 2 is a linear operator.
  ct::Rng rng(22);
  opt::KfacLayerState st(4, 3);
  ct::Tensor a({8, 4}), g({8, 3});
  rng.fill_normal(a.span());
  rng.fill_normal(g.span(), 0.0F, 0.2F);
  blend_batch(st, a, g, 0.0);
  st.refresh_eigen();
  ct::Tensor g1({3, 4}), g2({3, 4});
  rng.fill_normal(g1.span());
  rng.fill_normal(g2.span());
  ct::Tensor combo = g1;
  combo.axpby(2.0F, -3.0F, g2);  // 2*g1 - 3*g2
  const auto k1 = st.precondition(g1, 0.1);
  const auto k2 = st.precondition(g2, 0.1);
  const auto kc = st.precondition(combo, 0.1);
  for (std::size_t i = 0; i < kc.size(); ++i) {
    EXPECT_NEAR(kc[i], 2.0F * k1[i] - 3.0F * k2[i], 2e-3);
  }
}

// --- collective timing monotonicity sweep ---

class TimingMonotone : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimingMonotone, TimeGrowsWithBytes) {
  cm::Communicator comm(cm::Topology::with_gpus(GetParam()),
                        cm::NetworkModel::platform1());
  double prev_ar = 0.0, prev_ag = 0.0, prev_bc = 0.0;
  for (std::size_t b = 1 << 12; b <= (1UL << 26); b <<= 2) {
    const double ar = comm.allreduce_time(b);
    const double ag = comm.allgather_time(b);
    const double bc = comm.pipelined_broadcast_time(b);
    EXPECT_GE(ar, prev_ar);
    EXPECT_GE(ag, prev_ag);
    EXPECT_GE(bc, prev_bc);
    prev_ar = ar;
    prev_ag = ag;
    prev_bc = bc;
  }
}

TEST_P(TimingMonotone, AllgathervMatchesEqualChunks) {
  const std::size_t world = GetParam();
  if (world < 2) GTEST_SKIP();
  cm::Communicator comm(cm::Topology::with_gpus(world),
                        cm::NetworkModel::platform1());
  std::vector<std::size_t> equal(world, 1 << 20);
  EXPECT_NEAR(comm.allgatherv_time(equal) / comm.allgather_time(1 << 20),
              1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Worlds, TimingMonotone,
                         ::testing::Values(1, 4, 16, 64, 256));

// --- filter + quantizer composition invariant ---

class FilterComposition : public ::testing::TestWithParam<double> {};

TEST_P(FilterComposition, CompsoErrorNeverExceedsCombinedBound) {
  const double eb = GetParam();
  ct::Rng rng(static_cast<std::uint64_t>(eb * 1e7));
  const auto data =
      ct::synthetic_gradient(40000, ct::GradientProfile::kfac(), rng);
  cp::CompsoParams p;
  p.filter_bound = eb;
  p.quant_bound = eb;
  const auto compso = cp::make_compso(p);
  const auto rec = compso->decompress(compso->compress(data, rng));
  const double abs_max = ct::extrema(std::span<const float>(data)).abs_max;
  // Filtered values err by < eb*absmax; survivors by < 2*eb*absmax (SR).
  EXPECT_LE(ct::max_abs_error(data, rec), 2.0 * eb * abs_max * (1 + 1e-5));
}

INSTANTIATE_TEST_SUITE_P(Bounds, FilterComposition,
                         ::testing::Values(1e-1, 1e-2, 4e-3, 1e-3, 1e-4));

}  // namespace
