#include "src/compress/compression_engine.hpp"

#include "src/common/thread_pool.hpp"

#include <chrono>
#include <utility>

namespace compso::compress {

CompressionEngine::CompressionEngine(std::size_t threads) {
  if (threads > 0) pool_ = std::make_unique<common::ThreadPool>(threads);
}

CompressionEngine::~CompressionEngine() {
  // The pool destructor drains every queued job, so outstanding tickets
  // complete (their results are simply never observed).
}

std::size_t CompressionEngine::thread_count() const noexcept {
  return pool_ ? pool_->size() : 0;
}

std::function<void()> CompressionEngine::instrument(
    std::function<void()> job, std::string name) {
  if (!obs_.enabled()) return job;
  const std::uint64_t task_id = obs_task_seq_++;
  obs_.count("engine.tasks");
  if (obs_.tracer == nullptr) return job;
  const auto track =
      obs::kTaskTrackBase + static_cast<std::uint32_t>(task_id);
  if (obs_.deterministic_time()) {
    // Deterministic clock: stamp the span here, at submission on the
    // optimizer thread. Simulated time never advances inside a task, so
    // the zero duration is exact — and no worker ever races the clock.
    obs_.complete(track, std::move(name), "engine",
                  obs_.tracer->now_rel_ns(), 0, {{"task", task_id}});
    return job;
  }
  // Wall clock: time the job around its execution on whichever worker
  // picks it up. Record the span even when the job throws, so traces of
  // fault-injected runs still show the failed task.
  obs::Tracer* tracer = obs_.tracer;
  return [tracer, track, task_id, name = std::move(name),
          job = std::move(job)]() {
    const std::uint64_t start = tracer->now_rel_ns();
    const auto record = [&] {
      const std::uint64_t end = tracer->now_rel_ns();
      tracer->complete(track, name, "engine", start,
                       end >= start ? end - start : 0, {{"task", task_id}});
    };
    try {
      job();
    } catch (...) {
      record();
      throw;
    }
    record();
  };
}

CompressionEngine::Ticket CompressionEngine::submit(
    std::function<void()> job, std::string name) {
  const Ticket t = tickets_++;
  job = instrument(std::move(job), std::move(name));
  if (pool_) {
    futures_.push_back(pool_->submit(std::move(job)));
  } else {
    // Serial mode runs inline but defers the exception to wait(), so call
    // sites behave identically in both modes.
    std::exception_ptr err;
    try {
      job();
    } catch (...) {
      err = std::current_exception();
    }
    inline_errors_.push_back(err);
  }
  return t;
}

void CompressionEngine::wait(Ticket ticket) {
  if (pool_) {
    if (ticket < futures_.size() && futures_[ticket].valid()) {
      help_until_ready(futures_[ticket]);
      futures_[ticket].get();
    }
    return;
  }
  if (ticket < inline_errors_.size() && inline_errors_[ticket]) {
    const std::exception_ptr err = std::exchange(inline_errors_[ticket], {});
    std::rethrow_exception(err);
  }
}

void CompressionEngine::help_until_ready(const std::future<void>& f) {
  while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
         pool_->run_one()) {
  }
}

void CompressionEngine::wait_all() {
  std::exception_ptr first;
  if (pool_) {
    for (auto& f : futures_) {
      if (!f.valid()) continue;
      help_until_ready(f);
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    futures_.clear();
  } else {
    for (auto& err : inline_errors_) {
      if (err && !first) first = std::exchange(err, {});
    }
    inline_errors_.clear();
  }
  tickets_ = 0;
  if (first) std::rethrow_exception(first);
}

void CompressionEngine::run_batch(std::vector<std::function<void()>>&& jobs) {
  std::exception_ptr first;
  if (obs_.enabled()) {
    for (auto& job : jobs) job = instrument(std::move(job));
  }
  if (pool_ && !jobs.empty()) {
    // The caller runs the first job itself, then helps drain the queue
    // while it waits for the rest.
    std::vector<std::future<void>> batch;
    batch.reserve(jobs.size() - 1);
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      batch.push_back(pool_->submit(std::move(jobs[i])));
    }
    try {
      common::ThreadPool::run_as_worker(jobs[0]);
    } catch (...) {
      first = std::current_exception();
    }
    for (auto& f : batch) {
      help_until_ready(f);
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  } else {
    for (auto& job : jobs) {
      try {
        job();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
  }
  jobs.clear();
  if (first) std::rethrow_exception(first);
}

}  // namespace compso::compress
