#include "src/optim/step_graph.hpp"

#include "src/common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <stdexcept>
#include <utility>

namespace compso::optim {

StepGraph::TaskId StepGraph::add_compute(std::string name, int priority,
                                         std::function<void()> fn) {
  tasks_.push_back({std::move(name), priority, std::move(fn), /*compute=*/true,
                    /*comm=*/false, {}});
  return tasks_.size() - 1;
}

StepGraph::TaskId StepGraph::add_main(std::string name, int priority,
                                      std::function<void()> fn, bool is_comm) {
  tasks_.push_back({std::move(name), priority, std::move(fn),
                    /*compute=*/false, is_comm, {}});
  return tasks_.size() - 1;
}

void StepGraph::depends(TaskId task, TaskId on) {
  if (task >= tasks_.size() || on >= tasks_.size()) {
    throw std::logic_error("StepGraph::depends: unknown task id");
  }
  if (task == on) {
    throw std::logic_error("StepGraph::depends: task cannot depend on itself");
  }
  tasks_[task].deps.push_back(on);
}

void StepGraph::clear() { tasks_.clear(); }

std::vector<StepGraph::TaskId> StepGraph::order() const {
  const std::size_t n = tasks_.size();
  std::vector<std::size_t> missing(n, 0);
  std::vector<std::vector<TaskId>> dependents(n);
  for (TaskId t = 0; t < n; ++t) {
    missing[t] = tasks_[t].deps.size();
    for (TaskId d : tasks_[t].deps) dependents[d].push_back(t);
  }
  // Kahn's algorithm with a deterministic selection rule: among ready
  // tasks, compute before main (so submissions are as eager as the
  // edges allow) — except a compute task that depends on another compute
  // task, which goes after the ready main tasks: placing it reaps its
  // compute deps, and doing that before the main tasks that release
  // further compute work would run those deps one at a time. Then
  // priority descending, then insertion order. The ready set is small
  // (tens of tasks), so a linear scan beats heap bookkeeping and keeps
  // ties trivially stable.
  // Tier 0: compute, 1: main, 2: compute with a compute dep.
  std::vector<int> tier(n, 1);
  for (TaskId t = 0; t < n; ++t) {
    if (!tasks_[t].compute) continue;
    tier[t] = 0;
    for (TaskId d : tasks_[t].deps) {
      if (tasks_[d].compute) tier[t] = 2;
    }
  }
  std::vector<TaskId> ready;
  for (TaskId t = 0; t < n; ++t) {
    if (missing[t] == 0) ready.push_back(t);
  }
  std::vector<TaskId> out;
  out.reserve(n);
  while (!ready.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      const Task& a = tasks_[ready[i]];
      const Task& b = tasks_[ready[best]];
      const int ta = tier[ready[i]];
      const int tb = tier[ready[best]];
      const bool wins =
          ta != tb ? ta < tb
                   : (a.priority != b.priority ? a.priority > b.priority
                                               : ready[i] < ready[best]);
      if (wins) best = i;
    }
    const TaskId t = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    out.push_back(t);
    for (TaskId d : dependents[t]) {
      if (--missing[d] == 0) ready.push_back(d);
    }
  }
  if (out.size() != n) {
    throw std::logic_error("StepGraph: dependency cycle");
  }
  return out;
}

StepGraph::Stats StepGraph::run(common::ThreadPool* pool,
                                const obs::ObsHooks& hooks) {
  const std::vector<TaskId> ord = order();
  const std::size_t n = tasks_.size();
  Stats st;
  st.tasks = n;
  for (const Task& t : tasks_) {
    if (t.compute) {
      ++st.compute_tasks;
    } else {
      ++st.main_tasks;
      if (t.comm) ++st.comm_tasks;
    }
  }

  const bool tracing = hooks.tracer != nullptr;
  // Execution spans read the clock on whichever thread runs the task, so
  // they are recorded only under a wall clock.
  obs::Tracer* const exec_tracer =
      tracing && !hooks.deterministic_time() ? hooks.tracer : nullptr;
  std::vector<std::future<void>> pending(n);     ///< pooled compute tasks.
  std::vector<std::exception_ptr> inline_error(n);  ///< null pool.
  std::vector<std::uint8_t> reaped(n, 0);
  std::vector<std::uint64_t> submit_tick(n, 0);
  std::uint64_t tick = 0;  ///< one per scheduling event, main thread only.
  std::size_t in_flight = 0;
  std::size_t unsubmitted_compute = st.compute_tasks;

  // Reaps compute task `d`: waits for it (rethrowing its exception) and
  // records the [submission, reap) span on the task's own track. The
  // reap point sits in the total order, so `tick`, `in_flight` and the
  // recorded spans are identical at any pool size.
  const auto reap = [&](TaskId d) {
    const auto record_span = [&](std::uint64_t end) {
      if (tracing) {
        hooks.complete(
            obs::kSchedTrackBase + 1 + static_cast<std::uint32_t>(d),
            "sched." + tasks_[d].name, "sched.task", submit_tick[d],
            end - submit_tick[d], {{"task", d}});
      }
    };
    reaped[d] = 1;
    --in_flight;
    const std::uint64_t end = tick++;
    try {
      if (pending[d].valid()) {
        pool->help_until_ready(pending[d]);
        pending[d].get();
      } else if (inline_error[d]) {
        std::rethrow_exception(std::exchange(inline_error[d], {}));
      }
    } catch (...) {
      record_span(end);
      throw;
    }
    record_span(end);
  };

  try {
    for (TaskId t : ord) {
      // A task's main-task deps already ran (they precede it in the
      // order); compute deps may still be in flight — reap them now, at
      // the last admissible point.
      for (TaskId d : tasks_[t].deps) {
        if (tasks_[d].compute && !reaped[d]) reap(d);
      }
      Task& task = tasks_[t];
      if (task.compute) {
        submit_tick[t] = tick++;
        --unsubmitted_compute;
        std::function<void()> fn = std::move(task.fn);
        if (exec_tracer != nullptr) {
          fn = [exec_tracer, t, name = "sched." + task.name,
                body = std::move(fn)] {
            // The span records when it leaves scope, also on a throw.
            auto span = exec_tracer->span(
                obs::kTaskTrackBase + static_cast<std::uint32_t>(t), name,
                "sched.exec");
            span.add_arg("task", t);
            body();
          };
        }
        if (pool != nullptr) {
          pending[t] = pool->submit(std::move(fn));
        } else {
          try {
            fn();
          } catch (...) {
            inline_error[t] = std::current_exception();
          }
        }
        ++in_flight;
        st.max_in_flight = std::max(st.max_in_flight, in_flight);
      } else {
        if (task.comm) {
          if (in_flight > 0) {
            ++st.overlapped_comm;
          } else if (unsubmitted_compute > 0) {
            ++st.idle_comm;
          }
        }
        const std::uint64_t start = tick++;
        const auto record = [&] {
          if (tracing) {
            hooks.complete(obs::kSchedTrackBase, "sched." + task.name,
                           task.comm ? "sched.comm" : "sched.main", start, 1,
                           {{"task", t}});
          }
          ++tick;
        };
        try {
          task.fn();
        } catch (...) {
          record();
          throw;
        }
        record();
      }
    }
    // Reap every compute task nothing depended on, in submission order.
    for (TaskId t : ord) {
      if (tasks_[t].compute && !reaped[t]) reap(t);
    }
  } catch (...) {
    // Outstanding tasks capture optimizer state; join them before the
    // exception unwinds past our caller. Their own errors must not mask
    // the original exception (a future's error stays in the future).
    for (auto& f : pending) {
      if (!f.valid()) continue;
      pool->help_until_ready(f);
      f.wait();
    }
    throw;
  }

  hooks.count("sched.tasks", st.tasks);
  hooks.count("sched.compute_tasks", st.compute_tasks);
  hooks.count("sched.comm_tasks", st.comm_tasks);
  hooks.count("sched.overlapped_comm", st.overlapped_comm);
  hooks.count("sched.idle_comm", st.idle_comm);
  hooks.observe("sched.max_in_flight", st.max_in_flight);
  return st;
}

}  // namespace compso::optim
