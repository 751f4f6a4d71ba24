#pragma once
// Parallel layer-compression engine (DESIGN.md §10).
//
// Compression of different layers (and of different aggregation groups /
// per-rank simulated streams) is embarrassingly parallel: each job reads
// its own gradient snapshot and writes its own payload buffer. The engine
// runs those jobs on a work-stealing ThreadPool so an optimizer can
// overlap layer i's collective + decode with layer i+1's compression —
// the paper's communication/compression overlap (§4.4) on the host side.
//
// Determinism contract: parallel execution must be bit-identical to
// serial. Jobs therefore never share the optimizer's SR stream. Instead
// the optimizer draws ONE seed from its main stream per step and every
// job derives a private generator with task_rng(step_seed, task_id),
// where task_id reflects the deterministic submission order (layer index,
// rank, group counter). Execution order then cannot influence any random
// draw, so engine(0), engine(1) and engine(N) all produce the same bytes
// — and checkpoint/resume stays bit-exact across engine configurations.
//
// threads == 0 builds a serial engine: jobs run inline at submit() /
// run_batch() with no pool at all (the deterministic baseline the
// parallel modes are tested against). The engine itself is not
// thread-safe: submit/wait are called from the optimizer thread only.

#include "src/obs/obs.hpp"
#include "src/tensor/rng.hpp"

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <vector>

namespace compso::common {
class ThreadPool;
}

namespace compso::compress {

class CompressionEngine {
 public:
  /// Index of a submitted job; pass to wait(). Valid until the next
  /// wait_all().
  using Ticket = std::size_t;

  /// threads == 0: serial inline mode. threads >= 1: that many workers.
  explicit CompressionEngine(std::size_t threads = 0);
  ~CompressionEngine();

  CompressionEngine(const CompressionEngine&) = delete;
  CompressionEngine& operator=(const CompressionEngine&) = delete;

  /// Worker count (0 in serial mode).
  std::size_t thread_count() const noexcept;

  /// The underlying pool (nullptr in serial mode). Exposed so the math
  /// kernels can share it (tensor::set_math_pool) instead of owning a
  /// second pool that would oversubscribe the cores: layer-level jobs
  /// running ON this pool execute their gemms inline, while top-level
  /// gemms between batches can still fan out across it.
  common::ThreadPool* pool() const noexcept { return pool_.get(); }

  /// The per-task generator: Rng(step_seed) split by the task's
  /// deterministic id. Both the serial and parallel code paths derive
  /// their streams through this one function, which is what makes them
  /// bit-identical.
  static tensor::Rng task_rng(std::uint64_t step_seed,
                              std::uint64_t task_id) noexcept {
    return tensor::Rng(step_seed).split(task_id);
  }

  /// Enqueues `job` (runs it inline in serial mode). The job's exception,
  /// if any, is rethrown by wait(ticket) / wait_all(). `name` labels the
  /// job's tracer span (see set_obs); it does not affect execution.
  Ticket submit(std::function<void()> job,
                std::string name = "engine.task");

  /// Blocks until the job behind `ticket` finished; rethrows its
  /// exception. Waiting twice on a ticket is a no-op. While the job is
  /// pending, the caller runs queued pool jobs itself instead of sleeping.
  void wait(Ticket ticket);

  /// Blocks until every submitted job finished, rethrows the first
  /// pending exception (in ticket order), and recycles the ticket table.
  void wait_all();

  /// Runs a batch of independent jobs to completion — in parallel on the
  /// pool when present (the caller runs the first job, then runs queued
  /// jobs until the rest finished), else serially in order. Every job
  /// runs even when another throws (callers retry per-item; a
  /// half-executed batch would corrupt their bookkeeping); the first
  /// exception in batch order is rethrown after the barrier. Outstanding
  /// submit() tickets are not waited on (the batch may run while
  /// earlier-layer tickets are still in flight).
  void run_batch(std::vector<std::function<void()>>&& jobs);

  /// Attaches metrics/tracer hooks and restarts the engine's task
  /// numbering (so runs instrumented from the same logical point emit
  /// identical task ids). Every job then counts `engine.tasks` and
  /// records a span on its own track (kTaskTrackBase + task id). Under a
  /// deterministic tracer clock the span is stamped at submission, on the
  /// optimizer thread, so the trace is byte-identical at any thread
  /// count; under a wall clock it is timed around the job's execution.
  void set_obs(obs::ObsHooks hooks) noexcept {
    obs_ = hooks;
    obs_task_seq_ = 0;
  }
  const obs::ObsHooks& obs() const noexcept { return obs_; }

 private:
  /// Wraps `job` with the per-task instrumentation described at
  /// set_obs(); returns it unchanged when no hooks are attached. Called
  /// on the optimizer thread in submission order.
  std::function<void()> instrument(std::function<void()> job,
                                   std::string name = "engine.task");
  /// Runs queued pool jobs on the calling thread until `f` is ready or
  /// the queues are empty.
  void help_until_ready(const std::future<void>& f);

  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<std::future<void>> futures_;          ///< parallel tickets.
  std::vector<std::exception_ptr> inline_errors_;   ///< serial tickets.
  std::size_t tickets_ = 0;
  obs::ObsHooks obs_;
  std::uint64_t obs_task_seq_ = 0;
};

}  // namespace compso::compress
