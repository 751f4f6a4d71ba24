// A deterministic fault drill on the fault-tolerant training runtime.
//
// Runs distributed KFAC + COMPSO through a scripted sequence of faults —
// a corrupted compressed payload, a benign and a deadline-blowing
// straggler, a NaN gradient, and a rank crash followed by a recovery —
// and shows the recovery policies (DESIGN.md §9) and the elastic
// membership ladder (DESIGN.md §14) absorbing each one:
//
//   bounded decode retries -> skipped non-finite step + bound tightening
//   -> deadline wait, continue-without, suspicion via missed heartbeats,
//   probe backoff, eviction -> readmission + checkpoint-sourced re-sync.
//
// Midway through (while the crashed rank is still out of the group) it
// checkpoints, resumes in a fresh trainer, and verifies the continuation
// — including the later rejoin — is bit-exact.

#include "src/compso.hpp"

#include <cstdio>
#include <cstring>

namespace {

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

}  // namespace

int main() {
  using namespace compso;

  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 16,
              .depth = 2,
              .noise = 0.8F,
              .seed = 2026};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.lr_milestones = {24};
  cfg.total_iterations = 32;

  // The drill script: every event is (iteration, rank), seeded, replayable.
  // Detection never reads this plan — the crash simply stops rank 3's
  // heartbeats, and the membership ladder walks miss -> suspect -> probe
  // -> evict on its own clock (crash@6 lands the eviction at iteration 10).
  const auto plan = comm::FaultPlan{}
                        .corrupt(3, 0)          // bit-rot a compressed payload
                        .straggler(5, 1, 4.0)   // 4 s stall: inside the deadline
                        .crash(6, 3)            // rank 3 goes dark
                        .nan_gradient(8, 2)     // arithmetic fault upstream
                        .straggler(13, 1, 12.0) // 12 s stall: past the deadline
                        .recover(20, 3);        // rank 3 comes back online

  core::FaultTolerantTrainer trainer(cfg);
  trainer.set_fault_plan(plan, /*seed=*/7);

  std::printf("== fault drill: KFAC + COMPSO, 4 ranks, scripted faults ==\n");
  trainer.run(16);
  std::printf("after 16 iterations: %zu/%zu ranks in the group, rank 3 is %s\n",
              trainer.comm().active_count(), trainer.comm().world_size(),
              comm::to_string(trainer.comm().membership().phase(3)));
  std::printf("  %s\n", trainer.comm().recovery().to_string().c_str());
  std::printf("  adaptive bounds tightened after the NaN event: %s\n",
              trainer.bounds_tightened() ? "yes" : "no");

  // Checkpoint the degraded state (rank 3 evicted, counters mid-story) and
  // resume it in a fresh trainer: the shrunken group, membership ledger,
  // tightened schedule, optimizer state, and RNG streams all come back, so
  // both trainers walk the same trajectory — including rank 3's return at
  // iteration 20, when the readmitted replica re-syncs from a survivor
  // through the same sealed CKPT framing the checkpoint itself uses.
  const auto frame = trainer.checkpoint();
  std::printf("\n== checkpoint (%zu bytes) -> resume in a fresh trainer ==\n",
              frame.size());
  core::FaultTolerantTrainer resumed(cfg);
  resumed.restore(frame);
  resumed.set_fault_plan(plan, /*seed=*/7);
  trainer.run(16);
  resumed.run(16);

  const bool exact = bit_equal(trainer.parameters(), resumed.parameters());
  const bool rejoined =
      trainer.comm().active_count() == trainer.comm().world_size() &&
      trainer.comm().membership().phase(3) == comm::RankPhase::kHealthy &&
      bit_equal(trainer.parameters(), trainer.replica_parameters(3));
  std::printf("rank 3 readmitted and re-synced bit-exact: %s\n",
              rejoined ? "yes" : "NO");
  std::printf("resumed run bit-exact vs uninterrupted run: %s\n",
              exact ? "yes" : "NO");
  std::printf("  %s\n", trainer.comm().recovery().to_string().c_str());
  std::printf("final accuracy %.1f%% over the full group of %zu\n",
              100.0 * trainer.evaluate(), trainer.comm().active_count());
  return (exact && rejoined) ? 0 : 1;
}
