// Tests for the §7 future-work extensions: the automatic bound tuner and
// factor (A/G) compression in distributed KFAC.

#include "src/codec/ckpt.hpp"
#include "src/comm/communicator.hpp"
#include "src/core/bound_tuner.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/tracer.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

namespace cc = compso::core;
namespace ckpt = compso::codec::ckpt;
namespace cm = compso::comm;
namespace cp = compso::compress;
namespace ct = compso::tensor;
namespace cw = compso::codec::wire;
namespace nn = compso::nn;
namespace obs = compso::obs;
namespace opt = compso::optim;

namespace {

// --- bound tuner ---

TEST(BoundTuner, DistortionMetricsKnownValues) {
  std::vector<float> a{1.0F, 0.0F};
  std::vector<float> same{1.0F, 0.0F};
  const auto d0 = cc::measure_distortion(a, same);
  EXPECT_NEAR(d0.relative_l2, 0.0, 1e-12);
  EXPECT_NEAR(d0.cosine_distortion, 0.0, 1e-9);
  std::vector<float> orth{0.0F, 1.0F};
  const auto d1 = cc::measure_distortion(a, orth);
  EXPECT_NEAR(d1.cosine_distortion, 1.0, 1e-9);
  EXPECT_NEAR(d1.relative_l2, std::sqrt(2.0), 1e-6);
}

TEST(BoundTuner, RespectsBudget) {
  ct::Rng rng(1);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig cfg;
  cfg.max_relative_l2 = 0.05;
  cfg.max_cosine_distortion = 0.005;
  const auto tuned = cc::tune_bounds(grad, cfg, rng);
  EXPECT_LE(tuned.achieved_relative_l2, cfg.max_relative_l2);
  EXPECT_LE(tuned.achieved_cosine_distortion, cfg.max_cosine_distortion);
  EXPECT_GT(tuned.quant_bound, 0.0);
  EXPECT_GT(tuned.achieved_compression_ratio, 1.0);
}

TEST(BoundTuner, LooserBudgetGivesLooserBoundsAndHigherRatio) {
  ct::Rng rng(2);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig tight;
  tight.max_relative_l2 = 0.01;
  tight.max_cosine_distortion = 1e-3;
  cc::BoundTunerConfig loose;
  loose.max_relative_l2 = 0.20;
  loose.max_cosine_distortion = 0.05;
  ct::Rng rng_a(3), rng_b(3);
  const auto t = cc::tune_bounds(grad, tight, rng_a);
  const auto l = cc::tune_bounds(grad, loose, rng_b);
  EXPECT_GT(l.quant_bound, t.quant_bound);
  EXPECT_GT(l.achieved_compression_ratio, t.achieved_compression_ratio);
}

TEST(BoundTuner, TunedBoundBeatsDefaultWhenBudgetAllows) {
  // With a generous budget the tuner should find a bound looser than the
  // paper's empirical 4e-3 default.
  ct::Rng rng(4);
  const auto grad =
      ct::synthetic_gradient(1 << 16, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig cfg;
  cfg.max_relative_l2 = 0.30;
  cfg.max_cosine_distortion = 0.05;
  const auto tuned = cc::tune_bounds(grad, cfg, rng);
  EXPECT_GT(tuned.quant_bound, 4e-3);
}

TEST(BoundTuner, ImpossibleBudgetReturnsTightestBound) {
  ct::Rng rng(5);
  const auto grad =
      ct::synthetic_gradient(1 << 14, ct::GradientProfile::kfac(), rng);
  cc::BoundTunerConfig cfg;
  cfg.max_relative_l2 = 1e-9;  // unreachable for lossy compression
  cfg.max_cosine_distortion = 1e-12;
  const auto tuned = cc::tune_bounds(grad, cfg, rng);
  EXPECT_GT(tuned.achieved_relative_l2, cfg.max_relative_l2);
  EXPECT_NEAR(tuned.quant_bound, cc::kMinTunedBound,
              cc::kMinTunedBound * 0.5);
}

TEST(BoundTuner, BadInputsThrow) {
  ct::Rng rng(6);
  std::vector<float> empty;
  EXPECT_THROW((void)cc::tune_bounds(empty, {}, rng), std::invalid_argument);
}

// --- factor compression ---

struct KfacFixture {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  nn::ClusterDataset dataset{8, 3, 0.4F, 77};

  explicit KfacFixture(std::size_t world) {
    for (std::size_t r = 0; r < world; ++r) {
      ct::Rng rng(555);
      replicas.push_back(nn::make_mlp_classifier(8, 12, 3, 1, rng));
    }
    for (auto& m : replicas) ptrs.push_back(&m);
  }

  void fwd_bwd(ct::Rng& data_rng) {
    for (auto& m : replicas) {
      const auto batch = dataset.sample(8, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
  }
};

TEST(FactorCompression, BytesTrackedAndReduced) {
  KfacFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  cp::CompsoParams p;
  p.use_filter = false;
  p.quant_bound = 1e-3;
  const auto factor_comp = cp::make_compso(p);
  kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  f.fwd_bwd(data_rng);
  kfac.step(0, 0.01, nullptr, sr_rng);
  EXPECT_GT(kfac.last_factor_original_bytes(), 0U);
  EXPECT_LT(kfac.last_factor_compressed_bytes(),
            kfac.last_factor_original_bytes());
}

TEST(FactorCompression, PayloadsCarryPackedTriangles) {
  // The identity compressor adds only its payload header, so the factor
  // bytes on the wire are the packed triangles the uncompressed exchange
  // sends: one payload per slot, factor and participant.
  constexpr std::size_t kWorld = 4;
  KfacFixture f(kWorld);
  cm::Communicator comm(cm::Topology::with_gpus(kWorld),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  const auto identity = cp::make_identity();
  kfac.set_factor_compressor(identity.get());
  ct::Rng data_rng(1), sr_rng(2);
  f.fwd_bwd(data_rng);
  kfac.step(0, 0.01, nullptr, sr_rng);
  std::uint64_t packed_floats = 0;
  for (const std::size_t li : f.replicas[0].trainable_layers()) {
    const auto* w = f.replicas[0].layer(li).weight();
    packed_floats +=
        ct::packed_size(w->cols() + 1) + ct::packed_size(w->rows());
  }
  EXPECT_EQ(kfac.last_factor_original_bytes(),
            kWorld * packed_floats * sizeof(float));
  const std::uint64_t payloads = kfac.layer_count() * 2 * kWorld;
  EXPECT_EQ(kfac.last_factor_compressed_bytes(),
            kfac.last_factor_original_bytes() + payloads * cw::kHeaderSize);
}

/// Every slot's A then G factor, as DistKfac::save_state writes them.
std::vector<std::vector<float>> checkpointed_factors(
    const opt::DistKfac& kfac) {
  std::vector<std::uint8_t> body;
  kfac.save_state(body);
  cw::Reader in(body);
  std::vector<std::vector<float>> factors;
  const auto slots = in.u64();
  for (std::uint64_t s = 0; s < slots; ++s) {
    (void)ckpt::get_floats(in, "momentum");
    factors.push_back(ckpt::get_floats(in, "factor a"));
    factors.push_back(ckpt::get_floats(in, "factor g"));
    if (in.u8() != 0) {  // eigenvectors and eigenvalues of A, then G
      for (int k = 0; k < 4; ++k) (void)ckpt::get_floats(in, "eigen");
    }
    (void)in.u64();  // updates
  }
  return factors;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(FactorCompression, CorruptPayloadFallsBackToRawTriangles) {
  // One factor payload corrupted on every attempt, the kMaxDecodeRetries
  // re-sends included: that factor alone takes the raw fallback, which
  // averages the untouched packed triangles exactly as the uncompressed
  // exchange does — the same bits after step 0 — while every other factor
  // arrives lossy-compressed.
  constexpr std::size_t kWorld = 2;
  const auto run = [](bool compress_factors, obs::Tracer* tracer) {
    KfacFixture f(kWorld);
    cm::Communicator comm(cm::Topology::with_gpus(kWorld),
                          cm::NetworkModel::platform1());
    // With a factor compressor the step's first byte collective is a
    // factor exchange: rank 1's payload of it is damaged, one one-shot
    // event per attempt.
    cm::FaultPlan plan;
    for (std::size_t k = 0; k <= opt::kMaxDecodeRetries; ++k) {
      plan.corrupt(0, 1);
    }
    cm::FaultInjector injector(plan, 7);
    if (compress_factors) comm.set_fault_injector(&injector);
    comm.set_obs({.tracer = tracer});
    comm.begin_iteration(0);
    opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
    kfac.set_recovery({.enabled = true});
    cp::CompsoParams p;
    p.use_filter = false;
    p.quant_bound = 1e-3;
    const auto factor_comp = cp::make_compso(p);
    if (compress_factors) kfac.set_factor_compressor(factor_comp.get());
    ct::Rng data_rng(1), sr_rng(2);
    f.fwd_bwd(data_rng);
    kfac.step(0, 0.01, nullptr, sr_rng);
    EXPECT_EQ(comm.recovery().corrupt_injected,
              compress_factors ? opt::kMaxDecodeRetries + 1 : 0U);
    EXPECT_EQ(comm.recovery().decode_retries,
              compress_factors ? opt::kMaxDecodeRetries : 0U);
    return checkpointed_factors(kfac);
  };
  obs::Tracer tracer;
  const auto compressed = run(true, &tracer);
  const auto raw = run(false, nullptr);
  std::size_t fallbacks = 0;
  for (const auto& e : tracer.events()) {
    if (e.name == "kfac.factor_fallback") ++fallbacks;
  }
  EXPECT_EQ(fallbacks, 1U);
  ASSERT_EQ(compressed.size(), raw.size());
  std::size_t identical = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (same_bits(compressed[i], raw[i])) ++identical;
  }
  EXPECT_EQ(identical, 1U);
}

TEST(FactorCompression, IdentityCompressorMatchesUncompressedAtWorldThree) {
  // The §7 exchange averages its decoded triangles by the rule the
  // uncompressed factor allreduce uses, so a lossless factor compressor
  // reproduces the uncompressed parameters bit for bit — also at a
  // participant count whose reciprocal is inexact.
  constexpr std::size_t kWorld = 3;
  const auto run = [](const cp::GradientCompressor* factor_comp) {
    KfacFixture f(kWorld);
    cm::Communicator comm(cm::Topology::with_gpus(kWorld),
                          cm::NetworkModel::platform1());
    opt::DistKfac kfac({.damping = 0.1, .eigen_refresh_every = 3}, comm,
                       f.ptrs);
    kfac.set_factor_compressor(factor_comp);
    ct::Rng data_rng(1), sr_rng(2);
    for (std::size_t t = 0; t < 10; ++t) {
      f.fwd_bwd(data_rng);
      kfac.step(t, 0.01, nullptr, sr_rng);
    }
    std::vector<float> params;
    for (std::size_t li : f.replicas[0].trainable_layers()) {
      auto& l = f.replicas[0].layer(li);
      params.insert(params.end(), l.weight()->span().begin(),
                    l.weight()->span().end());
      params.insert(params.end(), l.bias()->span().begin(),
                    l.bias()->span().end());
    }
    return params;
  };
  const auto identity = cp::make_identity();
  const auto plain = run(nullptr);
  const auto lossless = run(identity.get());
  EXPECT_TRUE(same_bits(plain, lossless));
}

TEST(FactorCompression, DisabledByDefault) {
  KfacFixture f(2);
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  ct::Rng data_rng(1), sr_rng(2);
  f.fwd_bwd(data_rng);
  kfac.step(0, 0.01, nullptr, sr_rng);
  EXPECT_EQ(kfac.last_factor_compressed_bytes(), 0U);
}

TEST(FactorCompression, TrainingStillConverges) {
  KfacFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  opt::DistKfac kfac({.damping = 0.1}, comm, f.ptrs);
  cp::CompsoParams p;
  p.use_filter = false;
  p.quant_bound = 1e-3;
  const auto factor_comp = cp::make_compso(p);
  kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  ct::Rng eval_rng(9);
  for (std::size_t t = 0; t < 50; ++t) {
    f.fwd_bwd(data_rng);
    kfac.step(t, 0.01, nullptr, sr_rng);
  }
  const auto batch = f.dataset.sample(256, eval_rng);
  EXPECT_GT(nn::accuracy(f.replicas[0].forward(batch.x), batch.labels), 0.9);
}

}  // namespace
