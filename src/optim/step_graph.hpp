#pragma once
// Dependency-graph step scheduler (DESIGN.md §13) — the one scheduler of
// an optimizer step.
//
// An optimizer step decomposes into per-layer tasks — covariance update,
// factor exchange, eigendecomposition refresh, preconditioning, gradient
// compression, collective — with explicit edges. The graph submits its
// compute tasks straight to the shared ThreadPool so that layer N's
// compute runs on the pool while layer N-1 is inside its collective on
// the main thread (the paper's §4.4 compute/communication overlap,
// generalised from "compress while communicating" to the whole step
// pipeline).
//
// Two task kinds:
//  - compute tasks run on the pool (or inline at submission when there
//    is none); their bodies must not touch the Communicator;
//  - main tasks run inline on the optimizer thread in schedule order —
//    collectives live here (the Communicator is single-threaded), as do
//    serial bookkeeping steps that mutate shared recovery state.
//
// Scheduling is fully deterministic: order() linearises the graph with a
// fixed selection rule (ready compute tasks before ready main tasks —
// eager submission — except that a compute task with a compute dep comes
// after the ready main tasks, so reaping its deps never holds back the
// main tasks that release more compute work; then priority descending,
// then insertion order), and run() walks that single total order on the
// calling thread. A compute task's result is reaped at the first task
// that depends on it, never earlier; everything between submission and
// reap overlaps it. With backward-order priorities (later layers first)
// this reproduces the wavefront schedule of Shi et al.'s
// smart-parallelism pipeline.
//
// Determinism contract: every submission, reap, collective and tracer
// claim happens on the calling thread at a position that is a pure
// function of the graph — never of worker timing — so a step executed
// through run() is bit-identical at any pool size, and the exported trace
// (logical-tick spans, see run()) is byte-identical too. Compute tasks
// that draw random numbers take a private generator from task_rng(), so
// execution order cannot reach any draw.

#include "src/obs/obs.hpp"
#include "src/tensor/rng.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace compso::common {
class ThreadPool;
}

namespace compso::optim {

/// A compute task's private generator: Rng(step_seed) split by the
/// task's stream id. The optimizer draws one step_seed from its step
/// generator and claims stream ids in build order, so the serial and the
/// pooled schedule draw identical numbers.
inline tensor::Rng task_rng(std::uint64_t step_seed,
                            std::uint64_t task_id) noexcept {
  return tensor::Rng(step_seed).split(task_id);
}

class StepGraph {
 public:
  using TaskId = std::size_t;

  /// Schedule-shape counters for one run(), all derived from the
  /// deterministic total order (identical at any thread count). A comm
  /// task is "overlapped" when at least one compute task was in flight
  /// (submitted, not yet reaped) while it ran, and "idle" when nothing
  /// was in flight even though unsubmitted compute tasks remained — the
  /// idle-gap signal the trace gate asserts against.
  struct Stats {
    std::size_t tasks = 0;
    std::size_t compute_tasks = 0;
    std::size_t main_tasks = 0;
    std::size_t comm_tasks = 0;
    std::size_t overlapped_comm = 0;
    std::size_t idle_comm = 0;
    std::size_t max_in_flight = 0;
  };

  /// Adds a task that run() submits to the pool. Higher priority =
  /// earlier among ready tasks (use the layer's backward position).
  TaskId add_compute(std::string name, int priority,
                     std::function<void()> fn);

  /// Adds a task that run() executes inline on the calling thread.
  /// `is_comm` marks collective-driving tasks for the overlap statistics.
  TaskId add_main(std::string name, int priority, std::function<void()> fn,
                  bool is_comm = false);

  /// Declares that `task` must not start before `on` completed.
  void depends(TaskId task, TaskId on);

  /// Drops all tasks (reusing capacity) for the next step's graph.
  void clear();

  std::size_t size() const noexcept { return tasks_.size(); }

  /// Deterministic topological order (see file comment for the selection
  /// rule). Throws std::logic_error when the graph has a cycle.
  std::vector<TaskId> order() const;

  /// Executes the graph: submits compute tasks to `pool` in order, runs
  /// main tasks inline, and reaps each compute task at its first
  /// dependent (or at the end). A reap runs queued pool tasks while it
  /// waits (ThreadPool::help_until_ready). With a null pool each compute
  /// task runs inline at submission and its exception, if any, is
  /// rethrown at its reap, so the main tasks placed in between run as
  /// they would on a pool. On any exception every submitted task is
  /// joined before rethrowing, so no task outlives the call.
  ///
  /// Tracing: when `hooks` carries a tracer, every task records a
  /// "sched" span stamped in logical ticks (one tick per scheduling
  /// event on the calling thread) rather than clock time — compute spans
  /// cover [submission, reap), main spans one tick — so span overlap in
  /// the export reflects the *structure* of the schedule and the
  /// document is byte-identical at any thread count and on any host.
  /// Under a wall clock each compute task also records its execution
  /// span ("sched.exec", on track kTaskTrackBase + task id), timed on
  /// whichever thread ran it.
  Stats run(common::ThreadPool* pool, const obs::ObsHooks& hooks);

 private:
  struct Task {
    std::string name;
    int priority = 0;
    std::function<void()> fn;
    bool compute = false;
    bool comm = false;
    std::vector<TaskId> deps;
  };

  std::vector<Task> tasks_;
};

}  // namespace compso::optim
