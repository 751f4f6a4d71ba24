// Checkpoint-frame fuzz harness (DESIGN.md §14): the restore path must
// never crash, read out of bounds (ASan/UBSan configs run this suite), or
// silently resume from a damaged frame.
//
// The trainer's checkpoint() emits a section map naming every body region
// (config echo, schedule cursor, active mask, membership ledger, recovery
// counters, parameters, optimizer state, RNG streams, sim clocks). For
// every section, ≥1000 seeded mutations are driven through restore() in
// two legs:
//
//  - raw-frame leg: the sealed frame is damaged in place. The CRC covers
//    the whole frame, so every single mutation must surface as a typed
//    compso::PayloadError — a checkpoint cannot bit-rot quietly.
//  - re-sealed leg: the body is damaged and the frame re-sealed with a
//    fresh CRC, modeling an attacker or a buggy writer rather than rot.
//    restore() must then either reject the body with PayloadError (length
//    fields, enum ranges, config echo, cross-section consistency) or
//    restore cleanly; any other exception or a crash fails the test.

#include "src/compso.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace ckpt = compso::codec::ckpt;
namespace ct = compso::tensor;

namespace {

core::FtTrainerConfig fuzz_config() {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 8,
              .classes = 3,
              .hidden = 8,
              .depth = 2,
              .noise = 0.6F,
              .seed = 1717};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 3;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 20;
  cfg.engine_threads = 0;
  return cfg;
}

/// Reference state with every section nontrivial: a crash in flight leaves
/// the membership ledger mid-suspicion, nonzero recovery counters, and an
/// edited active mask alongside the usual params / factors / RNG payload.
ckpt::Bytes make_reference(
    std::vector<core::FaultTolerantTrainer::CkptSection>& sections) {
  core::FaultTolerantTrainer trainer(fuzz_config());
  trainer.set_fault_plan(cm::FaultPlan{}.crash(3, 1), 5);
  trainer.run(6);
  return trainer.checkpoint(&sections);
}

/// Flips / overwrites / saturates one byte in [lo, hi); guaranteed to
/// change the byte so a "mutation" is never a silent no-op.
void mutate_byte(std::vector<std::uint8_t>& bytes, std::size_t lo,
                 std::size_t hi, ct::Rng& rng) {
  const std::size_t at = lo + rng.uniform_index(hi - lo);
  const std::uint8_t before = bytes[at];
  switch (rng.uniform_index(4)) {
    case 0: bytes[at] ^= static_cast<std::uint8_t>(
                1U << rng.uniform_index(8)); break;
    case 1: bytes[at] = static_cast<std::uint8_t>(rng.uniform_index(256)); break;
    case 2: bytes[at] = 0x00; break;
    default: bytes[at] = 0xFF; break;
  }
  if (bytes[at] == before) bytes[at] ^= 0x01;
}

class CkptFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    frame_ = make_reference(sections_);
    body_.assign(frame_.begin() + 17, frame_.end());
    scratch_ = std::make_unique<core::FaultTolerantTrainer>(fuzz_config());
  }

  ckpt::Bytes frame_;
  std::vector<std::uint8_t> body_;
  std::vector<core::FaultTolerantTrainer::CkptSection> sections_;
  std::unique_ptr<core::FaultTolerantTrainer> scratch_;
};

TEST_F(CkptFuzz, SectionMapCoversTheWholeBodyContiguously) {
  const char* expected[] = {"config",     "cursor",     "mask",
                            "membership", "counters",   "params",
                            "optimizer",  "compressor", "rng",
                            "clocks"};
  ASSERT_EQ(sections_.size(), std::size(expected));
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    EXPECT_EQ(sections_[i].name, expected[i]);
    EXPECT_EQ(sections_[i].begin, cursor) << sections_[i].name;
    EXPECT_LT(sections_[i].begin, sections_[i].end) << sections_[i].name;
    cursor = sections_[i].end;
  }
  EXPECT_EQ(cursor, body_.size());
}

TEST_F(CkptFuzz, CleanFrameRestoresBitExactly) {
  core::FaultTolerantTrainer reference(fuzz_config());
  reference.set_fault_plan(cm::FaultPlan{}.crash(3, 1), 5);
  reference.run(6);

  scratch_->restore(frame_);
  EXPECT_EQ(scratch_->iteration(), 6U);
  const auto a = reference.parameters();
  const auto b = scratch_->parameters();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST_F(CkptFuzz, RawFrameDamageInEverySectionIsAlwaysDetected) {
  // Damage the sealed frame without fixing the CRC: the integrity layer
  // must catch every single mutation as a typed PayloadError.
  ct::Rng rng(0xABCD);
  for (const auto& sec : sections_) {
    for (int trial = 0; trial < 520; ++trial) {
      auto damaged = frame_;
      mutate_byte(damaged, 17 + sec.begin, 17 + sec.end, rng);
      EXPECT_THROW(scratch_->restore(damaged), compso::PayloadError)
          << sec.name << " trial " << trial;
    }
  }
}

TEST_F(CkptFuzz, ResealedBodyDamageThrowsTypedOrRestoresCleanly) {
  // Re-seal after the mutation so the CRC is valid and the body-level
  // validation has to stand on its own. The contract: PayloadError or a
  // clean restore — never a crash, never another exception type.
  ct::Rng rng(0xBEEF);
  for (const auto& sec : sections_) {
    std::size_t rejected = 0, accepted = 0;
    for (int trial = 0; trial < 520; ++trial) {
      auto mutated_body = body_;
      mutate_byte(mutated_body, sec.begin, sec.end, rng);
      const auto resealed = ckpt::seal_frame(mutated_body);
      try {
        scratch_->restore(resealed);
        ++accepted;
      } catch (const compso::PayloadError&) {
        ++rejected;
      }
    }
    EXPECT_EQ(rejected + accepted, 520U) << sec.name;
    // Structural sections validate their content, so damage there must be
    // rejected at least some of the time; raw value sections (params,
    // clocks) legitimately accept arbitrary bit patterns.
    if (sec.name == "config" || sec.name == "mask" ||
        sec.name == "membership") {
      EXPECT_GT(rejected, 0U) << sec.name;
    }
  }
}

TEST_F(CkptFuzz, TruncatedAndExtendedFramesAreRejected) {
  ct::Rng rng(0x5EED);
  for (int trial = 0; trial < 200; ++trial) {
    auto truncated = frame_;
    truncated.resize(rng.uniform_index(frame_.size()));
    EXPECT_THROW(scratch_->restore(truncated), compso::PayloadError) << trial;
  }
  for (int trial = 0; trial < 100; ++trial) {
    auto extended = frame_;
    const std::size_t extra = 1 + rng.uniform_index(64);
    for (std::size_t i = 0; i < extra; ++i) {
      extended.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
    }
    EXPECT_THROW(scratch_->restore(extended), compso::PayloadError) << trial;
  }
}

}  // namespace
