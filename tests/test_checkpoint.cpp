// Checkpoint format + resume: a restored FaultTolerantTrainer must
// continue the exact FP32 trajectory and RNG streams of an uninterrupted
// run (bit-exact) on either task, and damaged or mismatched checkpoints
// must be rejected by the wire-format validation layer, never silently
// resumed from.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace ckpt = compso::core::ckpt;
namespace cw = compso::codec::wire;

namespace {

core::FtTrainerConfig small_config(core::OptimizerKind kind) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 999};
  cfg.optimizer = kind;
  // Refresh at iteration 10 so the checkpoint at 15 carries
  // eigendecompositions that do NOT match the then-current factors — a
  // resume that recomputed them instead of restoring verbatim would
  // diverge from the straight run.
  cfg.kfac.eigen_refresh_every = 10;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.lr_milestones = {20};  // an LR drop inside the resumed half
  cfg.total_iterations = 30;
  return cfg;
}

TEST(CheckpointWire, FrameRoundTripAndValidation) {
  ckpt::Bytes body;
  cw::put_u64(body, 42);
  cw::put_f32(body, 1.5F);
  const auto frame = ckpt::seal_frame(body);

  const auto view = ckpt::open_frame(frame);
  compso::codec::wire::Reader reader(view);
  EXPECT_EQ(reader.u64(), 42U);
  EXPECT_FLOAT_EQ(reader.f32(), 1.5F);
  EXPECT_EQ(reader.remaining(), 0U);

  // Any single damaged byte must fail the CRC (or magic/size) check.
  for (std::size_t pos : {0UL, 5UL, frame.size() - 1}) {
    auto damaged = frame;
    damaged[pos] ^= 0x01;
    EXPECT_THROW(ckpt::open_frame(damaged), compso::PayloadError) << pos;
  }
  auto truncated = frame;
  truncated.pop_back();
  EXPECT_THROW(ckpt::open_frame(truncated), compso::PayloadError);
}

TEST(CheckpointWire, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "ckpt_roundtrip.bin";
  ckpt::Bytes data{1, 2, 3, 250, 251};
  ckpt::write_file(path, data);
  EXPECT_EQ(ckpt::read_file(path), data);
  std::remove(path.c_str());
  EXPECT_THROW(ckpt::read_file(path), std::runtime_error);
}

TEST(CheckpointWire, RngStateRoundTripContinuesStream) {
  compso::tensor::Rng rng(321);
  (void)rng.normal();  // populate the Box-Muller cache
  ckpt::Bytes body;
  ckpt::put_rng(body, rng.save_state());
  const auto frame = ckpt::seal_frame(body);

  compso::tensor::Rng restored(0);
  const auto view = ckpt::open_frame(frame);
  compso::codec::wire::Reader reader(view);
  restored.restore_state(ckpt::get_rng(reader));
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(rng(), restored());
  }
  // The cached Box-Muller half must survive bit-for-bit too.
  compso::tensor::Rng a(77), b(0);
  (void)a.normal();
  b.restore_state(a.save_state());
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a.normal()),
              std::bit_cast<std::uint32_t>(b.normal()));
  }
}

// The headline guarantee: run 15 iterations, checkpoint, resume in a fresh
// trainer, run 15 more — parameters match a straight 30-iteration run
// bit for bit (both optimizers; KFAC includes factors + eigen + momentum).
TEST(CheckpointResume, BitExactContinuation) {
  for (const auto kind : {core::OptimizerKind::kKfac,
                          core::OptimizerKind::kSgd}) {
    core::FaultTolerantTrainer straight(small_config(kind));
    straight.run(30);

    core::FaultTolerantTrainer first_half(small_config(kind));
    first_half.run(15);
    const auto frame = first_half.checkpoint();
    EXPECT_EQ(first_half.comm().recovery().checkpoint_saves, 1U);

    core::FaultTolerantTrainer resumed(small_config(kind));
    resumed.restore(frame);
    EXPECT_EQ(resumed.iteration(), 15U);
    EXPECT_EQ(resumed.comm().recovery().checkpoint_restores, 1U);
    resumed.run(15);

    EXPECT_EQ(resumed.parameters(), straight.parameters());
  }
}

// The span task resumes bit-exactly too: the same frame layout carries
// its two-head model, and both optimizers continue the straight run.
TEST(CheckpointResume, SpanTaskBitExactContinuation) {
  for (const auto kind : {core::OptimizerKind::kKfac,
                          core::OptimizerKind::kSgd}) {
    auto cfg = small_config(kind);
    cfg.base.task = core::TrainTask::kSpans;
    core::FaultTolerantTrainer straight(cfg);
    const auto losses = straight.run(30);

    core::FaultTolerantTrainer first_half(cfg);
    first_half.run(15);
    const auto frame = first_half.checkpoint();

    core::FaultTolerantTrainer resumed(cfg);
    resumed.restore(frame);
    EXPECT_EQ(resumed.iteration(), 15U);
    const auto tail = resumed.run(15);

    EXPECT_EQ(resumed.parameters(), straight.parameters());
    EXPECT_EQ(tail, std::vector<double>(losses.begin() + 15, losses.end()));
    EXPECT_EQ(resumed.evaluate(), straight.evaluate());
  }
}

// The config echo does not name the task: a frame of the other task with
// the same sizes fails on the head tensor, whose size differs (span heads
// hold 2·classes·hidden weights, the cluster head classes·hidden).
TEST(CheckpointResume, RejectsFrameOfTheOtherTask) {
  auto clusters = small_config(core::OptimizerKind::kKfac);
  auto spans = clusters;
  spans.base.task = core::TrainTask::kSpans;
  core::FaultTolerantTrainer cluster_run(clusters);
  core::FaultTolerantTrainer span_run(spans);
  cluster_run.run(3);
  span_run.run(3);

  core::FaultTolerantTrainer into_clusters(clusters);
  EXPECT_THROW(into_clusters.restore(span_run.checkpoint()),
               compso::PayloadError);
  core::FaultTolerantTrainer into_spans(spans);
  EXPECT_THROW(into_spans.restore(cluster_run.checkpoint()),
               compso::PayloadError);
}

// Checkpointing mid-drill must preserve the fault aftermath: the shrunken
// world, the degraded/tightened policy state, and the recovery counters.
TEST(CheckpointResume, PreservesRecoveryState) {
  auto cfg = small_config(core::OptimizerKind::kKfac);
  core::FaultTolerantTrainer trainer(cfg);
  trainer.set_fault_plan(
      cm::FaultPlan{}.crash(3, 2).nan_gradient(5, 0), 55);
  trainer.run(8);
  ASSERT_EQ(trainer.comm().active_count(), 3U);
  ASSERT_TRUE(trainer.bounds_tightened());
  const auto frame = trainer.checkpoint();

  core::FaultTolerantTrainer resumed(cfg);
  resumed.restore(frame);
  EXPECT_EQ(resumed.comm().active_count(), 3U);
  EXPECT_FALSE(resumed.comm().is_active(2));
  EXPECT_TRUE(resumed.bounds_tightened());
  const auto& rc = resumed.comm().recovery();
  EXPECT_EQ(rc.evictions, 1U);
  EXPECT_GE(rc.nonfinite_skips, 1U);
  EXPECT_EQ(rc.bound_tightenings, 1U);

  // And the resumed trainer keeps training over the survivors, bit-exactly
  // tracking the uninterrupted faulty run.
  trainer.run(7);
  resumed.run(7);
  EXPECT_EQ(resumed.parameters(), trainer.parameters());
}

TEST(CheckpointResume, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "ft_trainer.ckpt";
  auto cfg = small_config(core::OptimizerKind::kSgd);
  core::FaultTolerantTrainer trainer(cfg);
  trainer.run(5);
  trainer.save_checkpoint(path);

  core::FaultTolerantTrainer resumed(cfg);
  resumed.load_checkpoint(path);
  EXPECT_EQ(resumed.iteration(), 5U);
  EXPECT_EQ(resumed.parameters(), trainer.parameters());
  std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsMismatchedConfig) {
  core::FaultTolerantTrainer trainer(
      small_config(core::OptimizerKind::kKfac));
  trainer.run(3);
  const auto frame = trainer.checkpoint();

  auto other = small_config(core::OptimizerKind::kKfac);
  other.base.hidden = 16;
  core::FaultTolerantTrainer wrong_shape(other);
  EXPECT_THROW(wrong_shape.restore(frame), compso::PayloadError);

  core::FaultTolerantTrainer wrong_optim(
      small_config(core::OptimizerKind::kSgd));
  EXPECT_THROW(wrong_optim.restore(frame), compso::PayloadError);
}

TEST(CheckpointResume, RejectsDamagedFrame) {
  core::FaultTolerantTrainer trainer(
      small_config(core::OptimizerKind::kSgd));
  trainer.run(3);
  auto frame = trainer.checkpoint();
  frame[frame.size() / 2] ^= 0x10;  // flip one body bit

  core::FaultTolerantTrainer resumed(
      small_config(core::OptimizerKind::kSgd));
  EXPECT_THROW(resumed.restore(frame), compso::PayloadError);
}

// tests/fixtures/ckpt_layout1_{sgd,kfac}.bin are intact frames written by
// save_checkpoint under body layout 1 — before the layout version byte,
// when DistSgd state still carried error-feedback residuals — after two
// steps of this config.
core::FtTrainerConfig layout1_fixture_config(core::OptimizerKind kind) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 2,
              .batch_per_rank = 4,
              .features = 4,
              .classes = 2,
              .hidden = 4,
              .depth = 1,
              .noise = 0.5F,
              .seed = 7};
  cfg.optimizer = kind;
  cfg.total_iterations = 4;
  return cfg;
}

TEST(CheckpointResume, RejectsLayoutOneFrames) {
  for (const auto kind :
       {core::OptimizerKind::kSgd, core::OptimizerKind::kKfac}) {
    const std::string name = kind == core::OptimizerKind::kSgd ? "sgd" : "kfac";
    SCOPED_TRACE(name);
    const auto frame = ckpt::read_file(std::string(COMPSO_FIXTURE_DIR) +
                                       "/ckpt_layout1_" + name + ".bin");
    EXPECT_NO_THROW((void)ckpt::open_frame(frame));  // the frame is intact.
    core::FaultTolerantTrainer trainer(layout1_fixture_config(kind));
    EXPECT_THROW(trainer.restore(frame), compso::PayloadError);

    // The same config's current-layout frame restores.
    trainer.run(2);
    core::FaultTolerantTrainer resumed(layout1_fixture_config(kind));
    resumed.restore(trainer.checkpoint());
    EXPECT_EQ(resumed.parameters(), trainer.parameters());
  }
}

}  // namespace
