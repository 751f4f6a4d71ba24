// Step-graph scheduler suite (DESIGN.md §13): StepGraph ordering/stats
// semantics and its submit/reap/join contract on a pool or inline,
// bit-identical optimizer trajectories at any engine thread count (clean,
// fault-injected, and across a checkpoint/resume), the trace-derived
// overlap + idle-gap gate, and the steady-state allocation invariant for
// evicted-rank covariance slots.

#include "src/comm/fault_injector.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/compressor.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/obs/obs.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/step_graph.hpp"
#include "src/tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace opt = compso::optim;
namespace nn = compso::nn;
namespace obs = compso::obs;
namespace ct = compso::tensor;
namespace cc = compso::compress;
namespace common = compso::common;

namespace {

/// The graph's pool: none at 0 threads (compute tasks run inline).
std::unique_ptr<common::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

// --- StepGraph unit semantics ---

TEST(StepGraph, OrderRespectsDependencies) {
  opt::StepGraph g;
  const auto a = g.add_main("a", 0, [] {});
  const auto b = g.add_compute("b", 0, [] {});
  const auto c = g.add_main("c", 0, [] {});
  g.depends(c, b);
  g.depends(b, a);
  const auto ord = g.order();
  ASSERT_EQ(ord.size(), 3U);
  // b is compute but blocked behind main a; c follows b.
  EXPECT_EQ(ord[0], a);
  EXPECT_EQ(ord[1], b);
  EXPECT_EQ(ord[2], c);
}

TEST(StepGraph, ComputeFirstThenPriorityThenInsertion) {
  opt::StepGraph g;
  const auto main_hi = g.add_main("main_hi", 100, [] {});
  const auto comp_lo = g.add_compute("comp_lo", -5, [] {});
  const auto comp_hi = g.add_compute("comp_hi", 7, [] {});
  const auto main_lo = g.add_main("main_lo", 1, [] {});
  const auto main_tie = g.add_main("main_tie", 1, [] {});
  const auto ord = g.order();
  ASSERT_EQ(ord.size(), 5U);
  // All-ready set: compute beats main regardless of priority, then
  // priority descending, then insertion order on ties.
  EXPECT_EQ(ord[0], comp_hi);
  EXPECT_EQ(ord[1], comp_lo);
  EXPECT_EQ(ord[2], main_hi);
  EXPECT_EQ(ord[3], main_lo);
  EXPECT_EQ(ord[4], main_tie);
}

TEST(StepGraph, ComputeAfterComputeWaitsForReadyMainTasks) {
  // Two compute->compute chains, each behind its own main task. Placing
  // a second-level task reaps its first-level dep, so it must wait until
  // the ready main tasks ran and every first-level task is submitted —
  // otherwise the first chain is reaped before the second even starts.
  for (const std::size_t threads : {0UL, 2UL}) {
    opt::StepGraph g;
    const auto pool = make_pool(threads);
    std::vector<std::string> log;  // no pool: compute runs at submit.
    const auto note = [&log, threads](const char* name) {
      return [&log, threads, name] {
        if (threads == 0) log.emplace_back(name);
      };
    };
    const auto m1 = g.add_main("m1", 2, note("m1"));
    const auto m2 = g.add_main("m2", 1, note("m2"));
    const auto c1 = g.add_compute("c1", 0, note("c1"));
    const auto d1 = g.add_compute("d1", 0, note("d1"));
    const auto c2 = g.add_compute("c2", 0, note("c2"));
    const auto d2 = g.add_compute("d2", 0, note("d2"));
    g.depends(c1, m1);
    g.depends(d1, c1);
    g.depends(c2, m2);
    g.depends(d2, c2);
    const std::vector<opt::StepGraph::TaskId> want = {m1, c1, m2, c2, d1, d2};
    EXPECT_EQ(g.order(), want);
    g.run(pool.get(), obs::ObsHooks{});
    if (threads == 0) {
      const std::vector<std::string> ran = {"m1", "c1", "m2",
                                            "c2", "d1", "d2"};
      EXPECT_EQ(log, ran);
    }
  }
}

TEST(StepGraph, CycleThrows) {
  opt::StepGraph g;
  const auto a = g.add_main("a", 0, [] {});
  const auto b = g.add_main("b", 0, [] {});
  g.depends(a, b);
  g.depends(b, a);
  EXPECT_THROW(g.order(), std::logic_error);
}

TEST(StepGraph, DependsValidatesIds) {
  opt::StepGraph g;
  const auto a = g.add_main("a", 0, [] {});
  EXPECT_THROW(g.depends(a, 99), std::logic_error);
  EXPECT_THROW(g.depends(99, a), std::logic_error);
  EXPECT_THROW(g.depends(a, a), std::logic_error);
}

TEST(StepGraph, RunExecutesEveryTaskAndCountsStats) {
  for (const std::size_t threads : {0UL, 2UL}) {
    opt::StepGraph g;
    const auto pool = make_pool(threads);
    std::vector<int> log;
    const auto c0 = g.add_compute("c0", 0, [&] {});
    const auto c1 = g.add_compute("c1", 1, [&] {});
    const auto m0 = g.add_main("m0", 0, [&] { log.push_back(0); }, true);
    const auto m1 = g.add_main("m1", -1, [&] { log.push_back(1); }, true);
    g.depends(m0, c0);
    g.depends(m1, m0);
    g.depends(m1, c1);
    const auto st = g.run(pool.get(), obs::ObsHooks{});
    EXPECT_EQ(st.tasks, 4U);
    EXPECT_EQ(st.compute_tasks, 2U);
    EXPECT_EQ(st.main_tasks, 2U);
    EXPECT_EQ(st.comm_tasks, 2U);
    // m0 runs with c1 still in flight (reaped only at m1); m1 runs after
    // both reaps with nothing left to submit.
    EXPECT_EQ(st.overlapped_comm, 1U) << "threads=" << threads;
    EXPECT_EQ(st.idle_comm, 0U) << "threads=" << threads;
    EXPECT_EQ(st.max_in_flight, 2U) << "threads=" << threads;
    ASSERT_EQ(log.size(), 2U);
    EXPECT_EQ(log[0], 0);
    EXPECT_EQ(log[1], 1);
  }
}

TEST(StepGraph, IdleCommCountedWhenNothingInFlight) {
  opt::StepGraph g;
  const auto c = g.add_compute("c", 0, [] {});
  const auto m = g.add_main("m", 0, [] {}, true);
  // The compute task is gated behind the collective, so the collective
  // runs bare while compute work still waits — the idle-gap shape.
  g.depends(c, m);
  const auto st = g.run(nullptr, obs::ObsHooks{});
  EXPECT_EQ(st.overlapped_comm, 0U);
  EXPECT_EQ(st.idle_comm, 1U);  // ran bare with compute still unsubmitted.
}

TEST(StepGraph, ComputeExceptionIsReapedAndRethrown) {
  for (const std::size_t threads : {0UL, 2UL}) {
    opt::StepGraph g;
    const auto pool = make_pool(threads);
    bool tail_ran = false;
    const auto bad =
        g.add_compute("bad", 0, [] { throw std::runtime_error("boom"); });
    const auto sink = g.add_main("sink", 0, [&] { tail_ran = true; });
    g.depends(sink, bad);
    EXPECT_THROW(g.run(pool.get(), obs::ObsHooks{}), std::runtime_error)
        << "threads=" << threads;
    EXPECT_FALSE(tail_ran) << "threads=" << threads;
    // Nothing of the failed run is left behind: the next run is clean.
    opt::StepGraph g2;
    bool ok = false;
    g2.add_compute("ok", 0, [&] { ok = true; });
    EXPECT_NO_THROW(g2.run(pool.get(), obs::ObsHooks{}));
    EXPECT_TRUE(ok) << "threads=" << threads;
  }
}

TEST(StepGraph, MainExceptionReapsInFlightComputeAndRethrows) {
  const auto pool = make_pool(2);
  opt::StepGraph g;
  std::atomic<bool> slow_done{false};
  g.add_compute("slow", 5, [&slow_done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    slow_done = true;
  });
  const auto bad =
      g.add_main("bad", 0, [] { throw std::runtime_error("main boom"); });
  (void)bad;
  EXPECT_THROW(g.run(pool.get(), obs::ObsHooks{}), std::runtime_error);
  EXPECT_TRUE(slow_done.load());  // joined before the rethrow.
}

TEST(StepGraph, ComputeExceptionJoinsEveryOtherTaskBeforeRethrowing) {
  // The first task reaped throws while 20 others are still queued or
  // running on the pool; none of them may outlive the run.
  const auto pool = make_pool(3);
  opt::StepGraph g;
  std::atomic<int> ran{0};
  g.add_compute("bad", 1, [] { throw std::runtime_error("compute boom"); });
  for (int i = 0; i < 20; ++i) {
    g.add_compute("ok", 0, [&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++ran;
    });
  }
  EXPECT_THROW(g.run(pool.get(), obs::ObsHooks{}), std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
}

TEST(StepGraph, ComputeExceptionSurfacesAtTheReapNotAtSubmission) {
  // Without a pool the throwing task runs inline when it is submitted,
  // yet its exception waits for the reap: the main task placed between
  // the task and its dependent runs, exactly as it does on a pool.
  for (const std::size_t threads : {0UL, 2UL}) {
    const auto pool = make_pool(threads);
    opt::StepGraph g;
    bool between_ran = false;
    bool sink_ran = false;
    const auto bad =
        g.add_compute("bad", 0, [] { throw std::runtime_error("job boom"); });
    const auto between = g.add_main("between", 1, [&] { between_ran = true; });
    const auto sink = g.add_main("sink", 0, [&] { sink_ran = true; });
    g.depends(sink, bad);
    const std::vector<opt::StepGraph::TaskId> want = {bad, between, sink};
    EXPECT_EQ(g.order(), want);
    EXPECT_THROW(g.run(pool.get(), obs::ObsHooks{}), std::runtime_error)
        << "threads=" << threads;
    EXPECT_TRUE(between_ran) << "threads=" << threads;
    EXPECT_FALSE(sink_ran) << "threads=" << threads;
  }
}

TEST(StepGraph, ReapRunsQueuedTasksWhileItsTaskIsPending) {
  // The only worker holds a task that spins (up to 10 s) until a later
  // task runs. Reaping the later task must run it on the reaping thread
  // instead of sleeping behind the spinner.
  const auto pool = make_pool(1);
  opt::StepGraph g;
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};
  std::atomic<bool> saw_release{false};
  g.add_compute("spinner", 1, [&] {
    started = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!released.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    saw_release = released.load();
  });
  // Waits until the worker holds the spinner, so that only the reaping
  // thread can run the release task.
  const auto hold = g.add_main("hold", 2, [&] {
    while (!started.load()) std::this_thread::yield();
  });
  const auto release = g.add_compute("release", 0, [&] { released = true; });
  const auto sink = g.add_main("sink", 0, [] {});
  g.depends(release, hold);
  g.depends(sink, release);
  g.run(pool.get(), obs::ObsHooks{});
  EXPECT_TRUE(saw_release.load());
}

// The scheduler's trace is stamped in logical ticks claimed on the
// calling thread, so the recorded spans must be identical — names,
// tracks, timestamps, durations — at any engine thread count. The
// promise holds under a deterministic clock (DESIGN.md §12.2): under a
// wall clock the graph also records each compute task's execution span,
// whose timestamps vary from run to run.
std::vector<obs::Tracer::Event> trace_small_graph(std::size_t threads) {
  const auto pool = make_pool(threads);
  obs::ManualClock clock;
  obs::Tracer tracer(&clock);
  obs::MetricsRegistry metrics;
  opt::StepGraph g;
  const auto c0 = g.add_compute("c0", 0, [] {});
  const auto c1 = g.add_compute("c1", 1, [] {});
  const auto m0 = g.add_main("m0", 1, [] {}, true);
  const auto m1 = g.add_main("m1", 0, [] {});
  g.depends(m0, c1);
  g.depends(m1, m0);
  g.depends(m1, c0);
  g.run(pool.get(), obs::ObsHooks{.metrics = &metrics, .tracer = &tracer});
  return tracer.events();
}

TEST(StepGraph, TraceIsIdenticalAcrossThreadCounts) {
  const auto base = trace_small_graph(0);
  ASSERT_FALSE(base.empty());
  for (const std::size_t threads : {1UL, 4UL}) {
    const auto got = trace_small_graph(threads);
    ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].name, base[i].name) << "threads=" << threads;
      EXPECT_EQ(got[i].cat, base[i].cat) << "threads=" << threads;
      EXPECT_EQ(got[i].track, base[i].track) << "threads=" << threads;
      EXPECT_EQ(got[i].seq, base[i].seq) << "threads=" << threads;
      EXPECT_EQ(got[i].ts_ns, base[i].ts_ns) << "threads=" << threads;
      EXPECT_EQ(got[i].dur_ns, base[i].dur_ns) << "threads=" << threads;
    }
  }
}

// --- graph-scheduled optimizers: bit-exact at any thread count ---

struct DistFixture {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  nn::ClusterDataset dataset{8, 3, 0.4F, 77};

  explicit DistFixture(std::size_t world) {
    for (std::size_t r = 0; r < world; ++r) {
      ct::Rng rng(555);
      replicas.push_back(nn::make_mlp_classifier(8, 12, 3, 1, rng));
    }
    for (auto& m : replicas) ptrs.push_back(&m);
  }

  void run_fwd_bwd(ct::Rng& data_rng) {
    for (auto& m : replicas) {
      const auto batch = dataset.sample(8, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
  }

  std::vector<float> flat_params() {
    std::vector<float> out;
    for (std::size_t li : replicas[0].trainable_layers()) {
      auto& layer = replicas[0].layer(li);
      const auto w = layer.weight()->span();
      const auto b = layer.bias()->span();
      out.insert(out.end(), w.begin(), w.end());
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }
};

void expect_bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at " << i;
  }
}

std::vector<float> run_kfac_sched(std::size_t engine_threads) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(engine_threads);
  opt::DistKfac kfac({.damping = 0.1, .eigen_refresh_every = 2,
                      .aggregation = 2},
                     comm, f.ptrs, pool.get());
  const auto compso = cc::make_compso({});
  const auto factor_comp = cc::make_compso(
      {.filter_bound = 0.0, .quant_bound = 1e-4, .use_filter = false});
  kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 5; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compso.get(), sr_rng);
  }
  return f.flat_params();
}

TEST(SchedDeterminism, DistKfacBitExactAcrossThreadCounts) {
  const auto serial = run_kfac_sched(0);
  expect_bitwise_equal(serial, run_kfac_sched(1), "1-thread engine");
  expect_bitwise_equal(serial, run_kfac_sched(2), "2-thread engine");
  expect_bitwise_equal(serial, run_kfac_sched(8), "8-thread engine");
}

std::vector<float> run_sgd_sched(std::size_t engine_threads) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(engine_threads);
  opt::DistSgd sgd(comm, f.ptrs, pool.get());
  const auto compso = cc::make_error_feedback(cc::make_compso({}));
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 5; ++t) {
    f.run_fwd_bwd(data_rng);
    sgd.step(0.05, compso.get(), sr_rng);
  }
  return f.flat_params();
}

TEST(SchedDeterminism, DistSgdBitExactAcrossThreadCounts) {
  const auto serial = run_sgd_sched(0);
  expect_bitwise_equal(serial, run_sgd_sched(2), "2-thread engine");
  expect_bitwise_equal(serial, run_sgd_sched(8), "8-thread engine");
}

// --- fault injection + checkpoint/resume under the scheduler ---

core::FtTrainerConfig sched_ft_config(core::OptimizerKind kind,
                                      std::size_t engine_threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 31337};
  cfg.optimizer = kind;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 20;
  cfg.engine_threads = engine_threads;
  return cfg;
}

cm::FaultPlan sched_fault_plan() {
  cm::FaultPlan plan;
  plan.corrupt(1, 2).drop(3, 1).truncate(5, 0).nan_gradient(6, 2);
  return plan;
}

TEST(SchedDeterminism, FaultInjectedTrajectoryIndependentOfThreads) {
  for (const auto kind :
       {core::OptimizerKind::kSgd, core::OptimizerKind::kKfac}) {
    const char* what =
        kind == core::OptimizerKind::kSgd ? "sgd+faults" : "kfac+faults";
    std::vector<double> base_loss;
    std::vector<float> base_params;
    for (const std::size_t threads : {0UL, 2UL, 8UL}) {
      core::FaultTolerantTrainer trainer(sched_ft_config(kind, threads));
      trainer.set_fault_plan(sched_fault_plan(), 4242);
      const auto loss = trainer.run(8);
      if (threads == 0) {
        base_loss = loss;
        base_params = trainer.parameters();
        continue;
      }
      ASSERT_EQ(loss.size(), base_loss.size()) << what;
      for (std::size_t i = 0; i < loss.size(); ++i) {
        EXPECT_EQ(loss[i], base_loss[i]) << what << " iteration " << i;
      }
      expect_bitwise_equal(base_params, trainer.parameters(), what);
    }
  }
}

TEST(SchedDeterminism, RankParallelForwardBackwardBitExact) {
  // The ranks' forward/backward passes run as one engine batch; losses,
  // parameters and the NaN-fault response must not depend on the pool.
  for (const auto task :
       {core::TrainTask::kClusters, core::TrainTask::kSpans}) {
    const char* what =
        task == core::TrainTask::kClusters ? "clusters" : "spans";
    std::vector<double> base_loss;
    std::vector<float> base_params;
    for (const std::size_t threads : {0UL, 2UL, 4UL}) {
      auto cfg = sched_ft_config(core::OptimizerKind::kKfac, threads);
      cfg.base.task = task;
      core::FaultTolerantTrainer trainer(cfg);
      trainer.set_fault_plan(cm::FaultPlan{}.nan_gradient(3, 1), 99);
      std::vector<double> loss;
      for (std::size_t t = 0; t < 7; ++t) {
        const auto skips = trainer.comm().recovery().nonfinite_skips;
        loss.push_back(trainer.step());
        // Rank 1's poisoned gradient skips step 3, and only step 3.
        EXPECT_EQ(trainer.comm().recovery().nonfinite_skips > skips, t == 3)
            << what << " threads=" << threads << " step " << t;
        EXPECT_EQ(trainer.bounds_tightened(), t >= 3)
            << what << " threads=" << threads << " step " << t;
      }
      EXPECT_EQ(trainer.comm().recovery().bound_tightenings, 1U) << what;
      if (threads == 0) {
        base_loss = loss;
        base_params = trainer.parameters();
        continue;
      }
      for (std::size_t i = 0; i < loss.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(loss[i]),
                  std::bit_cast<std::uint64_t>(base_loss[i]))
            << what << " threads=" << threads << " step " << i;
      }
      expect_bitwise_equal(base_params, trainer.parameters(), what);
    }
  }
}

TEST(SchedDeterminism, CheckpointResumeBitExactAcrossThreadCounts) {
  core::FaultTolerantTrainer straight(
      sched_ft_config(core::OptimizerKind::kKfac, 8));
  straight.run(12);

  // Interrupt at 6 under an 8-thread engine, resume under a 2-thread
  // one: checkpoints carry no engine or scheduler state, so the resumed
  // graph replays the identical transcript.
  core::FaultTolerantTrainer first(
      sched_ft_config(core::OptimizerKind::kKfac, 8));
  first.run(6);
  const auto frame = first.checkpoint();
  core::FaultTolerantTrainer resumed(
      sched_ft_config(core::OptimizerKind::kKfac, 2));
  resumed.restore(frame);
  EXPECT_EQ(resumed.iteration(), 6U);
  resumed.run(6);

  expect_bitwise_equal(straight.parameters(), resumed.parameters(),
                       "resumed trajectory");
}

// --- the overlap + idle-gap trace gate (ISSUE 6 tentpole criterion) ---

bool ticks_overlap(const obs::Tracer::Event& a, const obs::Tracer::Event& b) {
  return a.ts_ns < b.ts_ns + b.dur_ns && a.ts_ns + a.dur_ns > b.ts_ns;
}

TEST(SchedOverlap, CompressionOverlapsAnotherLayersCollective) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(2);
  opt::DistKfac kfac({.damping = 0.1, .aggregation = 2}, comm, f.ptrs,
                     pool.get());
  const auto compso = cc::make_compso({});
  const auto factor_comp = cc::make_compso(
      {.filter_bound = 0.0, .quant_bound = 1e-4, .use_filter = false});
  kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);

  // Warm up without obs, then trace exactly one step so every span in
  // the export belongs to the same logical-tick timeline.
  for (std::size_t t = 0; t < 2; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compso.get(), sr_rng);
  }
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  comm.set_obs({.metrics = &metrics, .tracer = &tracer});
  f.run_fwd_bwd(data_rng);
  kfac.step(2, 0.01, compso.get(), sr_rng);
  comm.set_obs({});

  const auto& st = kfac.last_sched_stats();
  EXPECT_GE(st.overlapped_comm, 1U);
  EXPECT_EQ(st.idle_comm, 0U);
  EXPECT_GE(st.max_in_flight, 2U);

  const auto events = tracer.events();
  std::vector<obs::Tracer::Event> task_spans;  // compute: [submit, reap)
  std::vector<obs::Tracer::Event> comm_spans;
  for (const auto& e : events) {
    if (e.cat == "sched.task") task_spans.push_back(e);
    if (e.cat == "sched.comm") comm_spans.push_back(e);
  }
  ASSERT_FALSE(task_spans.empty());
  ASSERT_FALSE(comm_spans.empty());

  // Headline overlap: some layer's compression span covers another
  // layer's collective span (the paper's Fig. 1 "compress while
  // communicating" shape). The fused covariance task carries the factor
  // compression, so match its span against a different slot's exchange
  // (the one gradient allreduce carries every slot, so it does not count).
  bool found_overlap = false;
  for (const auto& task : task_spans) {
    if (task.name.find("cov_compress") == std::string::npos) continue;
    const std::string slot = task.name.substr(task.name.size() - 1);
    for (const auto& comm_e : comm_spans) {
      const bool other_layer =
          comm_e.name.find("factor_exchange") != std::string::npos &&
          comm_e.name.substr(comm_e.name.size() - 1) != slot;
      if (other_layer && ticks_overlap(task, comm_e)) {
        found_overlap = true;
        break;
      }
    }
    if (found_overlap) break;
  }
  EXPECT_TRUE(found_overlap)
      << "no compression span overlaps another layer's collective";

  // Idle-gap gate: every factor exchange and the gradient allreduce run
  // with at least one compute task in flight (the gather/update tail is
  // the sink — by construction nothing can overlap it, so it is exempt).
  for (const auto& comm_e : comm_spans) {
    if (comm_e.name.find("factor_exchange") == std::string::npos &&
        comm_e.name.find("grad_allreduce") == std::string::npos) {
      continue;
    }
    bool covered = false;
    for (const auto& task : task_spans) {
      if (ticks_overlap(task, comm_e)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "idle gap under " << comm_e.name;
  }
}

TEST(SchedOverlap, RefreshSubmitsEveryEighBeforeReapingAny) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(2);
  opt::DistKfac kfac({.damping = 0.1, .eigen_refresh_every = 2,
                      .aggregation = 2},
                     comm, f.ptrs, pool.get());
  const auto compso = cc::make_compso({});
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 2; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compso.get(), sr_rng);
  }
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  comm.set_obs({.metrics = &metrics, .tracer = &tracer});
  f.run_fwd_bwd(data_rng);
  kfac.step(2, 0.01, compso.get(), sr_rng);  // a refresh step.
  comm.set_obs({});

  // One eigh task per factor per slot, each spanning [submit, reap):
  // the last submission precedes the first reap.
  std::size_t eigh_tasks = 0;
  std::uint64_t last_submit = 0;
  std::uint64_t first_reap = ~std::uint64_t{0};
  for (const auto& e : tracer.events()) {
    if (e.cat != "sched.task" || e.name.rfind("sched.eigh_", 0) != 0) {
      continue;
    }
    ++eigh_tasks;
    last_submit = std::max(last_submit, e.ts_ns);
    first_reap = std::min(first_reap, e.ts_ns + e.dur_ns);
  }
  EXPECT_EQ(eigh_tasks, 2 * f.replicas[0].trainable_layers().size());
  EXPECT_LT(last_submit, first_reap);
}

// --- steady-state allocations (ISSUE 6 satellite: evicted-rank slots) ---

TEST(SchedSteadyState, EvictedRankStepsAllocateNoMoreThanActiveSteps) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  // Refresh the eigendecomposition every step so the two measured steps
  // do identical work modulo the eviction.
  opt::DistKfac kfac({.damping = 0.1, .eigen_refresh_every = 1}, comm,
                     f.ptrs);
  ct::Rng data_rng(1), sr_rng(2);
  const auto one_step = [&](std::size_t t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, nullptr, sr_rng);
  };
  for (std::size_t t = 0; t < 3; ++t) one_step(t);  // reach steady state.

  const std::uint64_t before_active = ct::Tensor::allocation_count();
  one_step(3);
  const std::uint64_t active_delta =
      ct::Tensor::allocation_count() - before_active;

  comm.evict(3);
  one_step(4);  // transition step: inactive slots allocate once...
  const std::uint64_t before_evicted = ct::Tensor::allocation_count();
  one_step(5);  // ...then steady-state steps must reuse them in place.
  const std::uint64_t evicted_delta =
      ct::Tensor::allocation_count() - before_evicted;

  // The old implementation re-allocated two zero tensors per evicted
  // rank per layer per step, which would make the evicted step strictly
  // more allocation-hungry than the all-active one.
  EXPECT_LE(evicted_delta, active_delta)
      << "evicted-rank covariance slots are re-allocated per step";
}

}  // namespace
