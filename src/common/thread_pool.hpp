#pragma once
// Small work-stealing thread pool (DESIGN.md §10.2, §11.3): the one
// threading runtime. The step scheduler (optim::StepGraph) submits its
// compute tasks here, the trainer and the exchanges fan independent jobs
// out with parallel_for_static, and the math kernels split row blocks
// with it. Each worker owns a deque: submissions are distributed
// round-robin, a worker pops from the front of its own deque and steals
// from the back of a sibling's when it runs dry — cheap load balancing for
// uneven task costs without a global hot queue.
//
// Tasks are type-erased void() jobs; exceptions thrown inside a task are
// captured in the returned future and rethrow at get(). shutdown() (also
// run by the destructor) drains every queued task before joining, so no
// future is ever abandoned. Submitting concurrently with shutdown() is a
// caller error (the late task may be dropped); submitting after shutdown()
// throws.

#include "src/obs/obs.hpp"

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace compso::common {

class ThreadPool {
 public:
  /// `threads` == 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }

  /// Enqueues `fn`; the future rethrows any exception `fn` threw. `fn`
  /// runs under the MXCSR float mode of the thread that submitted it
  /// (float_mode.hpp), whichever thread runs it, so pooled results equal
  /// serial ones inside a flushed scope or outside any.
  std::future<void> submit(std::function<void()> fn);

  /// Deterministic static-partition loop (DESIGN.md §11): [0, n) is
  /// split into at most size()+1 contiguous ranges fixed by (n, pool
  /// size) alone, fn(begin, end) runs once per range, and the call
  /// returns after every range completed, rethrowing the first exception
  /// in range order. Callers index *output blocks* or independent jobs
  /// with it: because each block's computation is self-contained,
  /// results are bit-identical at any thread count. Nested calls (from a
  /// pool worker of any pool) and calls after shutdown() degrade to a
  /// serial inline fn(0, n).
  ///
  /// Two timing rules: the caller runs the first range itself under
  /// run_as_worker() (so the kernels inside it run inline, as on a
  /// worker), and while it waits for the other ranges it runs queued
  /// tasks (run_one()) instead of sleeping. Those tasks may be anyone's,
  /// so fn must not leave caller-thread scratch that another task run on
  /// this thread could overwrite while the workers still read it.
  void parallel_for_static(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// True on any ThreadPool worker thread (of any pool instance), and on
  /// a caller inside run_as_worker() or run_one(). The math kernels
  /// consult this to run inline instead of re-entering a pool from inside
  /// a pool task — nested blocking submission could deadlock and would
  /// oversubscribe the cores either way.
  static bool on_worker_thread() noexcept;

  /// Runs `fn` on the calling thread as a worker would run a task (so
  /// on_worker_thread() is true inside it).
  static void run_as_worker(const std::function<void()>& fn);

  /// Takes one queued task, if any, and runs it on the calling thread
  /// under run_as_worker(); returns false when every queue was empty.
  /// Lets a caller that waits on a future help drain the queues instead
  /// of sleeping while its task sits behind others.
  bool run_one();

  /// Runs queued tasks on the calling thread (run_one()) until `f` is
  /// ready or every queue is empty; then f.wait() blocks, if it must,
  /// only on a task already running on a worker.
  void help_until_ready(const std::future<void>& f);

  /// Stops accepting work, drains the queues, joins the workers.
  /// Idempotent.
  void shutdown();

  /// Attaches metrics hooks. The pool only counts size-invariant events —
  /// parallel_for_static calls and their item counts —
  /// never raw task submissions, whose number depends on the worker count
  /// and would break the cross-thread-count determinism of snapshots.
  void set_obs(obs::ObsHooks hooks) noexcept { obs_ = hooks; }

 private:
  struct Queue {
    std::mutex m;
    std::deque<std::packaged_task<void()>> d;
  };

  bool try_pop(std::size_t id, std::packaged_task<void()>& task);
  bool try_steal(std::size_t id, std::packaged_task<void()>& task);
  void worker_loop(std::size_t id);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
  std::atomic<long long> pending_{0};  ///< queued-but-not-started tasks.
  std::atomic<std::size_t> next_{0};   ///< round-robin submission cursor.
  std::atomic<bool> stop_{false};
  obs::ObsHooks obs_;
};

}  // namespace compso::common
