#include "src/common/thread_pool.hpp"

#include "src/common/float_mode.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

namespace compso::common {
namespace {

thread_local bool t_on_worker = false;

}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker; }

void ThreadPool::run_as_worker(const std::function<void()>& fn) {
  struct Restore {
    bool prev;
    ~Restore() { t_on_worker = prev; }
  } restore{std::exchange(t_on_worker, true)};
  fn();
}

bool ThreadPool::run_one() {
  std::packaged_task<void()> task;
  for (std::size_t k = 0; k < queues_.size() && !task.valid(); ++k) {
    Queue& q = *queues_[k];
    std::lock_guard<std::mutex> lk(q.m);
    if (q.d.empty()) continue;
    task = std::move(q.d.back());  // the cold end, as a thief takes it
    q.d.pop_back();
  }
  if (!task.valid()) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  run_as_worker([&task] { task(); });  // exceptions land in the future
  return true;
}

void ThreadPool::help_until_ready(const std::future<void>& f) {
  while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
         run_one()) {
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  if (stop_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ThreadPool: submit after shutdown");
  }
  // The task runs under its submitter's float mode (DESIGN.md §11.2), on
  // whichever thread takes it: a worker, a caller in run_one(), or the
  // shutdown drain. fn is an opaque call, so the mode brackets it exactly.
  std::packaged_task<void()> task(
      [fn = std::move(fn), mode = float_mode()] {
        const FloatModeScope scope(mode);
        fn();
      });
  std::future<void> fut = task.get_future();
  Queue& q = *queues_[next_.fetch_add(1, std::memory_order_relaxed) %
                      queues_.size()];
  {
    std::lock_guard<std::mutex> lk(q.m);
    q.d.push_back(std::move(task));
  }
  {
    // The counter moves under wake_m_ so a worker evaluating the wait
    // predicate cannot miss the increment and sleep through the notify.
    std::lock_guard<std::mutex> lk(wake_m_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
  return fut;
}

bool ThreadPool::try_pop(std::size_t id, std::packaged_task<void()>& task) {
  Queue& q = *queues_[id];
  std::lock_guard<std::mutex> lk(q.m);
  if (q.d.empty()) return false;
  task = std::move(q.d.front());
  q.d.pop_front();
  return true;
}

bool ThreadPool::try_steal(std::size_t id, std::packaged_task<void()>& task) {
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    Queue& q = *queues_[(id + k) % queues_.size()];
    std::lock_guard<std::mutex> lk(q.m);
    if (q.d.empty()) continue;
    task = std::move(q.d.back());  // steal the cold end
    q.d.pop_back();
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  t_on_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    if (try_pop(id, task) || try_steal(id, task)) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      task();  // packaged_task captures exceptions into the future
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lk(wake_m_);
    wake_cv_.wait(lk, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

void ThreadPool::parallel_for_static(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  obs_.count("pool.parallel_for_static.calls");
  obs_.count("pool.parallel_for_static.items", n);
  // Nested (worker-thread) and post-shutdown calls run serially inline:
  // same ranges processed, same per-block arithmetic, identical results.
  if (t_on_worker || stop_.load(std::memory_order_acquire)) {
    fn(0, n);
    return;
  }
  const std::size_t chunks = std::min(size() + 1, n);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  // Contiguous ranges: chunk c covers base(+1 for the first rem chunks).
  auto range_begin = [base, rem](std::size_t c) {
    return c * base + std::min(c, rem);
  };
  std::vector<std::future<void>> futs;
  futs.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    futs.push_back(submit([&fn, b = range_begin(c), e = range_begin(c + 1)] {
      fn(b, e);
    }));
  }
  std::exception_ptr first;
  try {
    // The caller takes the first range, as a worker would run it.
    run_as_worker([&fn, e = range_begin(1)] { fn(0, e); });
  } catch (...) {
    first = std::current_exception();
  }
  for (auto& f : futs) {
    help_until_ready(f);
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(wake_m_);
    if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Drain anything a racing submit slipped in after the workers left.
  for (auto& qp : queues_) {
    std::lock_guard<std::mutex> lk(qp->m);
    while (!qp->d.empty()) {
      qp->d.front()();  // runs inline; future sees result or exception
      qp->d.pop_front();
    }
  }
}

}  // namespace compso::common
