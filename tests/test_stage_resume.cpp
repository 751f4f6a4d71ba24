// Adaptive-stage checkpoint/resume (DESIGN.md §9 + Algorithm 1): resuming
// just before or just after an LR-drop stage transition must reproduce
// the uninterrupted run bit-exactly — the restored compressor bounds
// (including the post-NaN tightening override), the schedule cursor, the
// per-step losses, and the final parameters.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace cp = compso::compress;

namespace {

// StepLr with a milestone at 20: AdaptiveSchedule switches from the
// aggressive stage (filter on, loose bounds) to the conservative stage
// (filter off, tight bounds) exactly there.
core::FtTrainerConfig staged_config() {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 4242};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.lr_milestones = {20};
  cfg.total_iterations = 40;
  return cfg;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

void expect_params_equal(const cp::CompsoParams& got,
                         const cp::CompsoParams& want) {
  EXPECT_DOUBLE_EQ(got.filter_bound, want.filter_bound);
  EXPECT_DOUBLE_EQ(got.quant_bound, want.quant_bound);
  EXPECT_EQ(got.use_filter, want.use_filter);
  EXPECT_EQ(got.encoder, want.encoder);
}

/// Interrupts an uninterrupted 30-step run at `split`, resumes in a fresh
/// trainer, and requires the remainder to match step for step.
void check_resume_at(std::size_t split) {
  constexpr std::size_t kTotal = 30;

  core::FaultTolerantTrainer full(staged_config());
  const auto full_losses = full.run(kTotal);

  core::FaultTolerantTrainer first_leg(staged_config());
  first_leg.run(split);
  const auto frame = first_leg.checkpoint();

  core::FaultTolerantTrainer resumed(staged_config());
  resumed.restore(frame);
  ASSERT_EQ(resumed.iteration(), split);

  // The restored schedule cursor must hand the optimizer the exact same
  // compressor bounds the uninterrupted run uses at each remaining step.
  for (std::size_t t = split; t < kTotal; ++t) {
    expect_params_equal(resumed.effective_params(t),
                        full.effective_params(t));
  }
  const auto resumed_losses = resumed.run(kTotal - split);
  for (std::size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_losses[i], full_losses[split + i]) << i;
  }
  EXPECT_TRUE(bitwise_equal(resumed.parameters(), full.parameters()));
}

TEST(StageResume, ScheduleTransitionsAtTheMilestone) {
  core::FaultTolerantTrainer trainer(staged_config());
  const auto before = trainer.effective_params(19);
  const auto after = trainer.effective_params(20);
  EXPECT_TRUE(before.use_filter);   // aggressive stage
  EXPECT_FALSE(after.use_filter);   // conservative stage
  EXPECT_LT(after.quant_bound, before.quant_bound);
  EXPECT_EQ(trainer.schedule().at(19).stage_index, 0U);
  EXPECT_EQ(trainer.schedule().at(20).stage_index, 1U);
}

TEST(StageResume, ResumeJustBeforeTransitionBitExact) { check_resume_at(19); }

TEST(StageResume, ResumeJustAfterTransitionBitExact) { check_resume_at(21); }

TEST(StageResume, TightenedBoundsSurviveResume) {
  const auto plan = cm::FaultPlan{}.nan_gradient(5, 1);

  core::FaultTolerantTrainer full(staged_config());
  full.set_fault_plan(plan, 31);
  const auto full_losses = full.run(30);
  ASSERT_TRUE(full.bounds_tightened());

  core::FaultTolerantTrainer first_leg(staged_config());
  first_leg.set_fault_plan(plan, 31);
  first_leg.run(12);
  ASSERT_TRUE(first_leg.bounds_tightened());
  const auto frame = first_leg.checkpoint();

  core::FaultTolerantTrainer resumed(staged_config());
  resumed.restore(frame);
  // The tightening flag is part of the checkpointed state: the resumed
  // run must keep compressing with filter off and the halved SR bound.
  EXPECT_TRUE(resumed.bounds_tightened());
  const auto p = resumed.effective_params(15);
  EXPECT_FALSE(p.use_filter);
  EXPECT_DOUBLE_EQ(p.quant_bound,
                   resumed.schedule().params_at(15).quant_bound * 0.5);
  expect_params_equal(p, full.effective_params(15));

  const auto resumed_losses = resumed.run(18);
  for (std::size_t i = 0; i < resumed_losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed_losses[i], full_losses[12 + i]) << i;
  }
  EXPECT_TRUE(bitwise_equal(resumed.parameters(), full.parameters()));
}

}  // namespace
