// Error-feedback compressor wrapper (DESIGN.md §17): residual properties
// on fixed gradients, EF-over-identity == plain-identity SGD bit-for-bit,
// fallback rollback semantics, and the full determinism matrix — the EF
// trainer trajectory and serialized residual state must be bit-exact
// across 1/2/8 engine threads, under a corrupt/drop/NaN fault plan, and
// across checkpoint save/resume (including a resume landing between a
// residual update and the next compress).

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace cm = compso::comm;
namespace core = compso::core;
namespace ckpt = compso::codec::ckpt;
namespace cp = compso::compress;
namespace ct = compso::tensor;

namespace {

std::vector<float> fixed_gradient(std::size_t n, std::uint64_t seed) {
  ct::Rng rng(seed);
  std::vector<float> g(n);
  for (auto& v : g) v = static_cast<float>(rng.normal() * 0.1);
  return g;
}

double l2(std::span<const float> v) {
  double s = 0.0;
  for (const float x : v) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

core::FtTrainerConfig family_config(core::CompressorFamily family,
                                    core::OptimizerKind kind,
                                    std::size_t threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 2026};
  cfg.optimizer = kind;
  cfg.family = family;
  cfg.recovery = {.enabled = true};
  cfg.total_iterations = 40;
  cfg.engine_threads = threads;
  return cfg;
}

/// Serialized family-compressor state, for bit-exactness comparisons.
ckpt::Bytes family_state(core::FaultTolerantTrainer& t) {
  auto* stateful =
      dynamic_cast<cp::StatefulCompressor*>(t.family_compressor());
  ckpt::Bytes out;
  if (stateful != nullptr) stateful->serialize_state(out);
  return out;
}

// --- residual properties ---------------------------------------------------

TEST(ErrorFeedback, ResidualBoundedAndContractingOnFixedGradient) {
  // Feeding the same gradient through EF-over-top-k: each step sends the
  // current top-k of (g + e); the residual is the dropped mass. It must
  // stay bounded by a small multiple of ||g|| and settle — the max norm
  // over the last half of the run no larger than over the first half.
  const auto ef = cp::make_error_feedback(cp::make_topk(0.125));
  auto* wrapper = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef.get());
  ASSERT_NE(wrapper, nullptr);
  const auto g = fixed_gradient(512, 7);
  const double gnorm = l2(g);
  ct::Rng rng(1);
  cp::Bytes payload;
  std::vector<double> norms;
  for (int step = 0; step < 40; ++step) {
    ef->compress_stream_into(3, g, rng, payload);
    norms.push_back(wrapper->residual_norm(3));
  }
  double first_half = 0.0, second_half = 0.0;
  for (std::size_t i = 0; i < norms.size(); ++i) {
    EXPECT_LT(norms[i], 4.0 * gnorm) << "step " << i;
    double& half = i < norms.size() / 2 ? first_half : second_half;
    half = std::max(half, norms[i]);
  }
  // EF theory bounds the residual by a (1-δ)/δ-style geometric plateau,
  // not a monotone decay: after the initial ramp the norm oscillates
  // around its fixed point. The second-half max must not exceed the
  // first-half max by more than the oscillation band.
  EXPECT_LE(second_half, 1.05 * first_half);
  // The residual is genuinely nonzero (top-k drops 87.5% of coordinates).
  EXPECT_GT(norms.back(), 0.0);
}

TEST(ErrorFeedback, ResidualBoundedUnderCompso) {
  // COMPSO's quantizer is contractive per coordinate, so EF-over-COMPSO
  // residuals stay within the quantization bound's scale of the input.
  const auto ef = cp::make_error_feedback(cp::make_compso({}));
  auto* wrapper = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef.get());
  const auto g = fixed_gradient(1024, 11);
  const double gnorm = l2(g);
  ct::Rng rng(2);
  cp::Bytes payload;
  for (int step = 0; step < 25; ++step) {
    ef->compress_stream_into(0, g, rng, payload);
    EXPECT_LT(wrapper->residual_norm(0), gnorm);
  }
}

TEST(ErrorFeedback, PayloadIsInnerFormatAndDecodes) {
  const auto ef = cp::make_error_feedback(cp::make_topk(0.25));
  const auto g = fixed_gradient(300, 3);
  ct::Rng rng(9);
  const auto payload = ef->compress(g, rng);
  // The wire format is the inner compressor's, unchanged: the plain
  // top-k decoder accepts the EF payload.
  const auto plain = cp::make_topk(0.25);
  const auto via_inner = plain->decompress(payload);
  const auto via_wrapper = ef->decompress(payload);
  ASSERT_EQ(via_inner.size(), g.size());
  EXPECT_EQ(std::memcmp(via_inner.data(), via_wrapper.data(),
                        via_inner.size() * sizeof(float)),
            0);
}

// --- EF-over-identity == plain identity, bit for bit -----------------------

TEST(ErrorFeedback, OverIdentityReproducesUncompressedSgdBitForBit) {
  // Identity is lossless, so the residual is exactly zero every step and
  // g + 0.0f is bitwise g: the EF-wrapped run must be bit-identical to
  // the plain-identity run — which is itself the uncompressed SGD
  // trajectory carried over the identity payload format.
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4, .batch_per_rank = 8, .features = 10,
              .classes = 3, .hidden = 8, .depth = 2,
              .noise = 0.5F, .seed = 77};
  cfg.optimizer = core::OptimizerKind::kSgd;
  cfg.base_lr = 0.05;
  cfg.total_iterations = 20;
  const auto ident = cp::make_identity();
  const auto ef = cp::make_error_feedback(cp::make_identity());

  const auto a =
      core::train(cfg, [&](std::size_t) { return ident.get(); });
  const auto b = core::train(cfg, [&](std::size_t) { return ef.get(); });

  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_EQ(a.loss_curve[i], b.loss_curve[i]) << "step " << i;
  }
  EXPECT_EQ(a.final_loss, b.final_loss);
  // And the wrapper's residuals are exactly zero on every stream.
  auto* wrapper = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef.get());
  for (const auto stream : wrapper->stream_ids()) {
    EXPECT_EQ(wrapper->residual_norm(stream), 0.0);
  }
}

// --- recovery-ladder semantics ---------------------------------------------

TEST(ErrorFeedback, FallbackRollsResidualBackToPreCompressSnapshot) {
  const auto ef = cp::make_error_feedback(cp::make_topk(0.1));
  auto* wrapper = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef.get());
  const auto g = fixed_gradient(256, 5);
  ct::Rng rng(4);
  cp::Bytes payload;
  ef->compress_stream_into(1, g, rng, payload);
  const auto before = wrapper->residual(1);
  ef->compress_stream_into(1, g, rng, payload);
  const auto after = wrapper->residual(1);
  ASSERT_NE(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
  // Transport abandoned the second payload: the residual must return to
  // the pre-compress value, not keep the abandoned update.
  ef->notify_fallback(1);
  const auto rolled = wrapper->residual(1);
  ASSERT_EQ(rolled.size(), before.size());
  EXPECT_EQ(std::memcmp(rolled.data(), before.data(),
                        before.size() * sizeof(float)),
            0);
  // A second notify (no compress in between) is a no-op, not a double
  // rollback.
  ef->notify_fallback(1);
  const auto rolled2 = wrapper->residual(1);
  EXPECT_EQ(std::memcmp(rolled2.data(), before.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(ErrorFeedback, ResetStreamAndShapeChangeDropState) {
  const auto ef = cp::make_error_feedback(cp::make_topk(0.1));
  auto* wrapper = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef.get());
  ct::Rng rng(6);
  cp::Bytes payload;
  ef->compress_stream_into(2, fixed_gradient(128, 1), rng, payload);
  EXPECT_GT(wrapper->residual_norm(2), 0.0);
  ef->reset_stream(2);
  EXPECT_TRUE(wrapper->residual(2).empty());
  // Shape change under the same stream id: stale residual resets to zero
  // instead of mixing into the new layout.
  ef->compress_stream_into(4, fixed_gradient(128, 2), rng, payload);
  ef->compress_stream_into(4, fixed_gradient(96, 3), rng, payload);
  EXPECT_EQ(wrapper->residual(4).size(), 96U);
}

// --- serialized state contract ---------------------------------------------

TEST(ErrorFeedback, StateRoundTripsAndRejectsDamage) {
  const auto ef = cp::make_error_feedback(cp::make_topk(0.2));
  auto* wrapper = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef.get());
  ct::Rng rng(8);
  cp::Bytes payload;
  for (std::uint64_t stream : {0ULL, 5ULL, 9ULL}) {
    ef->compress_stream_into(stream, fixed_gradient(64, stream + 1), rng,
                             payload);
  }
  ckpt::Bytes state;
  wrapper->serialize_state(state);

  const auto ef2 = cp::make_error_feedback(cp::make_topk(0.2));
  auto* wrapper2 = dynamic_cast<cp::ErrorFeedbackCompressor*>(ef2.get());
  {
    compso::codec::wire::Reader reader(state);
    wrapper2->deserialize_state(reader);
    EXPECT_EQ(reader.remaining(), 0U);
  }
  ckpt::Bytes state2;
  wrapper2->serialize_state(state2);
  ASSERT_EQ(state.size(), state2.size());
  EXPECT_EQ(std::memcmp(state.data(), state2.data(), state.size()), 0);

  // Truncations and a bad magic must throw typed PayloadError, never
  // partially apply.
  for (std::size_t cut : {1UL, 8UL, state.size() / 2}) {
    ckpt::Bytes damaged(state.begin(), state.end() - cut);
    compso::codec::wire::Reader reader(damaged);
    EXPECT_THROW(wrapper2->deserialize_state(reader), compso::PayloadError);
  }
  ckpt::Bytes bad_magic = state;
  bad_magic[0] ^= 0xFF;
  compso::codec::wire::Reader reader(bad_magic);
  EXPECT_THROW(wrapper2->deserialize_state(reader), compso::PayloadError);
}

// --- determinism matrix (threads × faults × resume) ------------------------

void expect_bit_identical(core::FaultTolerantTrainer& a,
                          core::FaultTolerantTrainer& b, const char* what) {
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size()) << what;
  EXPECT_EQ(std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)), 0)
      << what;
  const auto sa = family_state(a);
  const auto sb = family_state(b);
  ASSERT_EQ(sa.size(), sb.size()) << what << " (state size)";
  EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size()), 0)
      << what << " (state bytes)";
}

cm::FaultPlan storm_plan() {
  cm::FaultPlan plan;
  plan.corrupt(4, 2).drop(7, 1).nan_gradient(10, 1).corrupt(13, 0);
  return plan;
}

/// Corrupt events consume the injector's RNG to synthesize damage, which a
/// resumed run does not replay (see tests/test_obs_determinism.cpp), so
/// the save/resume leg sticks to drop / NaN events on both sides of the
/// cut. Thread-count comparisons may use the full storm.
cm::FaultPlan resume_safe_plan() {
  cm::FaultPlan plan;
  plan.drop(4, 1).nan_gradient(6, 0).drop(10, 2).nan_gradient(13, 1);
  return plan;
}

TEST(ErrorFeedback, TrainerBitExactAcrossEngineThreads) {
  for (const auto kind : {core::OptimizerKind::kSgd,
                          core::OptimizerKind::kKfac}) {
    core::FaultTolerantTrainer serial(
        family_config(core::CompressorFamily::kEfTopK, kind, 0));
    serial.run(12);
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
      core::FaultTolerantTrainer parallel(
          family_config(core::CompressorFamily::kEfTopK, kind, threads));
      parallel.run(12);
      expect_bit_identical(serial, parallel, "threads");
    }
  }
}

TEST(ErrorFeedback, TrainerBitExactAcrossThreadsUnderFaultPlan) {
  core::FaultTolerantTrainer serial(
      family_config(core::CompressorFamily::kEfCompso,
                    core::OptimizerKind::kSgd, 0));
  serial.set_fault_plan(storm_plan(), 99);
  serial.run(16);
  EXPECT_GT(serial.comm().recovery().corrupt_injected +
                serial.comm().recovery().drops_injected,
            0U);
  for (const std::size_t threads : {2UL, 8UL}) {
    core::FaultTolerantTrainer parallel(
        family_config(core::CompressorFamily::kEfCompso,
                      core::OptimizerKind::kSgd, threads));
    parallel.set_fault_plan(storm_plan(), 99);
    parallel.run(16);
    expect_bit_identical(serial, parallel, "faulted threads");
  }
}

TEST(ErrorFeedback, CheckpointResumeBitExactIncludingResidualState) {
  // Straight run vs save-at-8 / restore-into-fresh / continue. The
  // checkpoint at iteration 8 lands *between* the step-8 residual update
  // and the step-9 compress — exactly the window the "compressor" CKPT
  // section exists for. With a fault plan on both sides of the cut.
  for (const auto family : {core::CompressorFamily::kEfTopK,
                            core::CompressorFamily::kEfCompso}) {
    core::FaultTolerantTrainer straight(
        family_config(family, core::OptimizerKind::kSgd, 2));
    straight.set_fault_plan(resume_safe_plan(), 31);
    straight.run(20);

    core::FaultTolerantTrainer saver(
        family_config(family, core::OptimizerKind::kSgd, 2));
    saver.set_fault_plan(resume_safe_plan(), 31);
    saver.run(8);
    EXPECT_FALSE(family_state(saver).empty());
    const auto frame = saver.checkpoint();

    core::FaultTolerantTrainer resumed(
        family_config(family, core::OptimizerKind::kSgd, 2));
    resumed.restore(frame);
    resumed.set_fault_plan(resume_safe_plan(), 31);
    EXPECT_EQ(resumed.iteration(), 8U);
    // Restored residual state is bit-identical to the saver's...
    expect_bit_identical(saver, resumed, "post-restore");
    resumed.run(12);
    // ...and the resumed trajectory rejoins the straight run bit-exactly.
    expect_bit_identical(straight, resumed, "resumed");
  }
}

TEST(ErrorFeedback, CheckpointRejectsFamilyMismatch) {
  core::FaultTolerantTrainer ef_trainer(family_config(
      core::CompressorFamily::kEfTopK, core::OptimizerKind::kSgd, 0));
  ef_trainer.run(3);
  const auto frame = ef_trainer.checkpoint();
  core::FaultTolerantTrainer plain(family_config(
      core::CompressorFamily::kCompso, core::OptimizerKind::kSgd, 0));
  EXPECT_THROW(plain.restore(frame), compso::PayloadError);
}

}  // namespace
