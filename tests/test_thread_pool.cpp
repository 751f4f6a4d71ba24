// ThreadPool (src/common): work execution, exception propagation through
// futures, parallel_for_static with caller participation (its own range
// as a worker, queued tasks while it waits, no range outliving the call),
// shutdown semantics (drain, idempotence, reject-after), a stealing
// smoke test with deliberately unbalanced task costs, and the float mode:
// FloatModeScope's flush and exact restore, and every task running under
// its submitter's mode on whichever thread takes it. Run under TSan via
// ci.sh's build-tsan config.

#include "src/common/float_mode.hpp"
#include "src/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <utility>
#include <stdexcept>
#include <thread>
#include <vector>

namespace common = compso::common;

namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4U);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&ran] { ++ran; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ZeroThreadsPicksHardwareConcurrency) {
  common::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1U);
  auto f = pool.submit([] {});
  f.get();
}

TEST(ThreadPool, ExceptionRethrowsAtGet) {
  common::ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_NO_THROW(ok.get());
  try {
    bad.get();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  // The pool survives a throwing task.
  auto after = pool.submit([] {});
  EXPECT_NO_THROW(after.get());
}

TEST(ThreadPool, ParallelForStaticCoversEveryIndexOnce) {
  for (std::size_t threads : {1UL, 2UL, 5UL}) {
    common::ThreadPool pool(threads);
    for (std::size_t n : {0UL, 1UL, 2UL, 7UL, 1000UL}) {
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for_static(n, [&hits](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "threads=" << threads << " n=" << n << " index " << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForStaticPartitionIsDeterministic) {
  // The range boundaries depend only on (n, pool size): two runs over the
  // same pool must produce the same contiguous split, ordered, gapless.
  common::ThreadPool pool(3);
  auto collect = [&pool](std::size_t n) {
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    pool.parallel_for_static(n, [&](std::size_t b, std::size_t e) {
      std::lock_guard<std::mutex> lock(m);
      ranges.emplace_back(b, e);
    });
    std::sort(ranges.begin(), ranges.end());
    return ranges;
  };
  for (std::size_t n : {5UL, 17UL, 100UL}) {
    const auto first = collect(n);
    EXPECT_EQ(first, collect(n)) << "n=" << n;
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first.front().first, 0U);
    EXPECT_EQ(first.back().second, n);
    for (std::size_t i = 1; i < first.size(); ++i) {
      EXPECT_EQ(first[i].first, first[i - 1].second) << "gap at range " << i;
    }
    EXPECT_LE(first.size(), pool.size() + 1);
  }
}

TEST(ThreadPool, ParallelForStaticPropagatesFirstException) {
  common::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_static(64,
                               [](std::size_t b, std::size_t e) {
                                 for (std::size_t i = b; i < e; ++i) {
                                   if (i == 40) {
                                     throw std::runtime_error("range boom");
                                   }
                                 }
                               }),
      std::runtime_error);
  // The caller's own range throws at once while the workers' two ranges
  // still sleep: no range may outlive the call that rethrows.
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for_static(
                   64,
                   [&finished](std::size_t b, std::size_t) {
                     if (b == 0) throw std::runtime_error("caller boom");
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(20));
                     ++finished;
                   }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 2);
  std::atomic<int> ran{0};
  pool.parallel_for_static(8, [&ran](std::size_t b, std::size_t e) {
    ran += static_cast<int>(e - b);
  });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ParallelForStaticRunsFirstRangeOnCallerAsWorker) {
  common::ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  bool on_caller = false;
  bool as_worker = false;
  pool.parallel_for_static(2, [&](std::size_t b, std::size_t) {
    if (b != 0) return;
    on_caller = std::this_thread::get_id() == caller;
    // Math kernels inside the range run inline, as on a pool worker.
    as_worker = common::ThreadPool::on_worker_thread();
  });
  EXPECT_TRUE(on_caller);
  EXPECT_TRUE(as_worker);
  EXPECT_FALSE(common::ThreadPool::on_worker_thread());
}

TEST(ThreadPool, ParallelForStaticCallerRunsQueuedTasksWhileItWaits) {
  // The only worker holds a task that spins (up to 10 s) until the
  // second range runs, so that range sits queued behind it. The caller,
  // done with its own range, must run it instead of sleeping.
  common::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};
  std::atomic<bool> saw_release{false};
  auto spinner = pool.submit([&] {
    started = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!released.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    saw_release = released.load();
  });
  while (!started.load()) std::this_thread::yield();
  const auto caller = std::this_thread::get_id();
  bool second_on_caller = false;
  pool.parallel_for_static(2, [&](std::size_t b, std::size_t) {
    if (b == 0) return;
    second_on_caller = std::this_thread::get_id() == caller;
    released = true;
  });
  spinner.get();
  EXPECT_TRUE(second_on_caller);
  EXPECT_TRUE(saw_release.load());
}

TEST(ThreadPool, ParallelForStaticNestedCallRunsInlineOnWorker) {
  // A worker thread re-entering parallel_for_static must not deadlock:
  // the nested call degrades to one serial fn(0, n) on that worker.
  common::ThreadPool pool(2);
  EXPECT_FALSE(common::ThreadPool::on_worker_thread());
  auto fut = pool.submit([&pool] {
    EXPECT_TRUE(common::ThreadPool::on_worker_thread());
    const auto self = std::this_thread::get_id();
    std::atomic<int> calls{0};
    std::atomic<int> covered{0};
    pool.parallel_for_static(37, [&](std::size_t b, std::size_t e) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      ++calls;
      covered += static_cast<int>(e - b);
    });
    EXPECT_EQ(calls.load(), 1);  // one inline fn(0, n).
    EXPECT_EQ(covered.load(), 37);
  });
  fut.get();
}

TEST(ThreadPool, ParallelForStaticAfterShutdownRunsSerially) {
  common::ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> covered{0};
  pool.parallel_for_static(12, [&covered](std::size_t b, std::size_t e) {
    covered += static_cast<int>(e - b);
  });
  EXPECT_EQ(covered.load(), 12);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    common::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      futures.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++ran;
      }));
    }
    pool.shutdown();
    EXPECT_EQ(ran.load(), 50);  // nothing abandoned.
    pool.shutdown();            // idempotent.
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  }  // destructor after explicit shutdown is a no-op.
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPool, DestructorJoinsWithoutExplicitShutdown) {
  std::atomic<int> ran{0};
  {
    common::ThreadPool pool(3);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, UnbalancedTasksAllComplete) {
  // One long task pins a worker; the short tasks distributed round-robin
  // onto its deque must still finish (stolen by the idle workers).
  common::ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  futures.push_back(pool.submit([&ran] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ++ran;
  }));
  for (int i = 0; i < 40; ++i) {
    futures.push_back(pool.submit([&ran] { ++ran; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 41);
}

TEST(ThreadPool, TasksRunOffTheCallerThread) {
  common::ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  std::mutex m;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] {
      std::lock_guard<std::mutex> lock(m);
      seen.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(seen.count(caller), 0U);
}

// --- float mode: FloatModeScope, and tasks under their submitter's mode

/// x * y at run time, under the calling thread's MXCSR: noipa keeps the
/// compiler from folding the product or moving it across a mode change.
[[gnu::noipa]] float product(float x, float y) { return x * y; }

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

const float kMin = std::numeric_limits<float>::min();
const float kSubnormal = std::bit_cast<float>(0x00200000U);  // FLT_MIN / 4

/// The mode a thread runs under, told by two products: FLT_MIN * 0.5 is a
/// subnormal result (0 under FTZ), FLT_MIN / 4 * 4 a subnormal input with
/// a normal result (0 under DAZ).
struct Seen {
  std::uint32_t result = 1;
  std::uint32_t input = 1;
  std::thread::id thread;

  bool flushed() const { return result == 0 && input == 0; }
  bool gradual() const {
    return result == bits(kMin) / 2 && input == bits(kMin);
  }
};

Seen seen() {
  return {bits(product(kMin, 0.5F)), bits(product(kSubnormal, 4.0F)),
          std::this_thread::get_id()};
}

unsigned flushing() {
  return common::float_mode() | common::kFlushSubnormals;
}

TEST(FloatMode, ScopeFlushesSubnormalResultsAndInputs) {
  EXPECT_TRUE(seen().gradual());
  {
    const common::FloatModeScope flushed(flushing());
    EXPECT_TRUE(seen().flushed());
  }
  EXPECT_TRUE(seen().gradual());
}

TEST(FloatMode, ScopeRestoresTheCallersExactMxcsr) {
  const unsigned original = common::float_mode();
  // A caller mode no scope produces by accident: round toward zero, with
  // the underflow and inexact status flags raised.
  const unsigned caller = original | 0x6000U | 0x0030U;
  {
    const common::FloatModeScope outer(caller);
    ASSERT_EQ(common::float_mode(), caller);
    // Each scope raises status flags of its own; the exit clears them.
    {
      const common::FloatModeScope flushed(caller | common::kFlushSubnormals);
      EXPECT_TRUE(seen().flushed());
    }
    EXPECT_EQ(common::float_mode(), caller);
    // A caller that already flushes, and scopes nested in it.
    {
      const common::FloatModeScope flushed(caller | common::kFlushSubnormals);
      const unsigned before = common::float_mode();
      {
        const common::FloatModeScope again(before);
        {
          const common::FloatModeScope plain(original);
          EXPECT_TRUE(seen().gradual());
        }
        EXPECT_EQ(common::float_mode(), before);
      }
      EXPECT_EQ(common::float_mode(), before);
    }
    EXPECT_EQ(common::float_mode(), caller);
    // A body that throws.
    try {
      const common::FloatModeScope flushed(caller | common::kFlushSubnormals);
      product(kMin, 0.5F);
      throw std::runtime_error("body");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(common::float_mode(), caller);
  }
  EXPECT_EQ(common::float_mode(), original);
}

TEST(ThreadPool, TaskRunsUnderItsSubmittersFloatMode) {
  // One worker runs both tasks: the plain one right after the flushed
  // one, so a mode left behind on the worker would show.
  common::ThreadPool pool(1);
  Seen flushed_task, plain_task;
  {
    const common::FloatModeScope flushed(flushing());
    pool.submit([&] { flushed_task = seen(); }).get();
  }
  pool.submit([&] { plain_task = seen(); }).get();
  EXPECT_NE(flushed_task.thread, std::this_thread::get_id());
  EXPECT_EQ(plain_task.thread, flushed_task.thread);
  EXPECT_TRUE(flushed_task.flushed());
  EXPECT_TRUE(plain_task.gradual());
}

TEST(ThreadPool, HelpedTaskRunsUnderItsSubmittersFloatMode) {
  // The only worker spins (up to 10 s) until released, so both probes
  // sit queued and the caller runs them in help_until_ready, each from
  // the opposite mode to the one it was submitted under. run_one() takes
  // the newest task first: the plain probe, from inside a flushed scope.
  common::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};
  auto spinner = pool.submit([&] {
    started = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!released.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  while (!started.load()) std::this_thread::yield();
  Seen flushed_task, plain_task;
  std::future<void> flushed_fut;
  {
    const common::FloatModeScope flushed(flushing());
    flushed_fut = pool.submit([&] { flushed_task = seen(); });
  }
  auto plain_fut = pool.submit([&] { plain_task = seen(); });
  {
    const common::FloatModeScope flushed(flushing());
    pool.help_until_ready(plain_fut);
    EXPECT_EQ(flushed_fut.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
  }
  pool.help_until_ready(flushed_fut);
  released = true;
  spinner.get();
  flushed_fut.get();
  plain_fut.get();
  EXPECT_EQ(flushed_task.thread, std::this_thread::get_id());
  EXPECT_EQ(plain_task.thread, std::this_thread::get_id());
  EXPECT_TRUE(flushed_task.flushed());
  EXPECT_TRUE(plain_task.gradual());
}

TEST(ThreadPool, ParallelForStaticRangesRunUnderTheCallersFloatMode) {
  // The caller's own range waits (up to 10 s) for the other three, so
  // the workers run those.
  common::ThreadPool pool(3);
  for (const bool flush : {true, false}) {
    std::vector<Seen> ranges(4);
    std::atomic<int> others{0};
    const auto record = [&ranges, &others](std::size_t b, std::size_t) {
      ranges[b] = seen();
      if (b != 0) {
        ++others;
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (others.load() < 3 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    };
    if (flush) {
      const common::FloatModeScope flushed(flushing());
      pool.parallel_for_static(ranges.size(), record);
    } else {
      pool.parallel_for_static(ranges.size(), record);
    }
    for (std::size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_EQ(ranges[i].thread == std::this_thread::get_id(), i == 0)
          << "range " << i;
      EXPECT_EQ(ranges[i].flushed(), flush) << "range " << i;
      EXPECT_EQ(ranges[i].gradual(), !flush) << "range " << i;
    }
  }
}

}  // namespace
