#pragma once
// Dependency-graph step scheduler (DESIGN.md §13).
//
// An optimizer step decomposes into per-layer tasks — covariance update,
// factor exchange, eigendecomposition refresh, preconditioning, gradient
// compression, collective — with explicit edges. The graph executes them
// on the shared CompressionEngine so that layer N's compute runs on the
// pool while layer N-1 is inside its collective on the main thread (the
// paper's §4.4 compute/communication overlap, generalised from "compress
// while communicating" to the whole step pipeline).
//
// Two task kinds:
//  - compute tasks run on the engine (pool workers, or inline on the
//    serial engine); their bodies must not touch the Communicator;
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
// calling thread. A compute task's result is reaped (engine.wait) at the
// first task that depends on it, never earlier; everything between
// submission and reap overlaps it. With backward-order priorities
// (later layers first) this reproduces the wavefront schedule of Shi et
// al.'s smart-parallelism pipeline.
//
// Determinism contract: every submission, reap, collective and tracer
// claim happens on the calling thread at a position that is a pure
// function of the graph — never of worker timing — so a step executed
// through run() is bit-identical at any engine thread count, and the
// exported trace (logical-tick spans, see run()) is byte-identical too.

#include "src/compress/compression_engine.hpp"
#include "src/obs/obs.hpp"

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace compso::optim {

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

  /// Adds a task that run() submits to the engine. Higher priority =
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

  /// Executes the graph: submits compute tasks to `engine` in order,
  /// runs main tasks inline, and reaps each compute task at its first
  /// dependent (or at the end). On any exception every outstanding
  /// ticket is reaped before rethrowing, so no task outlives the call.
  ///
  /// Tracing: when `hooks` carries a tracer, every task records a
  /// "sched" span stamped in logical ticks (one tick per scheduling
  /// event on the calling thread) rather than clock time — compute spans
  /// cover [submission, reap), main spans one tick — so span overlap in
  /// the export reflects the *structure* of the schedule and the
  /// document is byte-identical at any thread count and on any host.
  Stats run(compress::CompressionEngine& engine,
            const obs::ObsHooks& hooks);

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
