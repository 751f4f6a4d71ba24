// Pooled-vs-inline determinism: bit-identical optimizer trajectories for
// any pool size (DistSgd and DistKfac, including factor compression),
// FaultTolerantTrainer checkpoint/resume across pool sizes, the
// per-task generator, and a fuzz loop driving mutated payloads through
// the fused COMPSO decoder.

#include "src/common/thread_pool.hpp"
#include "src/compress/compressor.hpp"
#include "src/compress/payload_fuzz.hpp"
#include "src/compso.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/step_graph.hpp"
#include "src/tensor/matrix_ops.hpp"
#include "src/tensor/synthetic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace opt = compso::optim;
namespace nn = compso::nn;
namespace ct = compso::tensor;
namespace cc = compso::compress;
namespace common = compso::common;

namespace {

/// The optimizer's pool: none at 0 threads (compute tasks run inline).
std::unique_ptr<common::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

TEST(TaskRng, IsDeterministicPerTaskId) {
  ct::Rng a = opt::task_rng(42, 7);
  ct::Rng b = opt::task_rng(42, 7);
  ct::Rng c = opt::task_rng(42, 8);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    const auto va = a(), vb = b(), vc = c();
    EXPECT_EQ(va, vb);
    differs = differs || va != vc;
  }
  EXPECT_TRUE(differs);  // distinct task ids -> distinct streams.
}

// --- parallel == serial bit-exactness for the optimizers ---

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

std::vector<float> run_sgd(std::size_t engine_threads) {
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

TEST(ParallelDeterminism, DistSgdBitExactAcrossEngineThreads) {
  const auto serial = run_sgd(0);
  expect_bitwise_equal(serial, run_sgd(1), "1-thread engine");
  expect_bitwise_equal(serial, run_sgd(4), "4-thread engine");
}

std::vector<float> run_kfac(std::size_t engine_threads,
                            bool factor_compression) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(engine_threads);
  opt::DistKfac kfac({.damping = 0.1, .aggregation = 2}, comm, f.ptrs,
                     pool.get());
  const auto compso = cc::make_compso({});
  const auto factor_comp = cc::make_compso(
      {.filter_bound = 0.0, .quant_bound = 1e-4, .use_filter = false});
  if (factor_compression) kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 4; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compso.get(), sr_rng);
  }
  return f.flat_params();
}

TEST(ParallelDeterminism, DistKfacBitExactAcrossEngineThreads) {
  const auto serial = run_kfac(0, false);
  expect_bitwise_equal(serial, run_kfac(1, false), "1-thread engine");
  expect_bitwise_equal(serial, run_kfac(4, false), "4-thread engine");
}

TEST(ParallelDeterminism, DistKfacFactorCompressionBitExact) {
  const auto serial = run_kfac(0, true);
  expect_bitwise_equal(serial, run_kfac(1, true),
                       "1-thread engine + factor compression");
  expect_bitwise_equal(serial, run_kfac(4, true),
                       "4-thread engine + factor compression");
}

// Wider model + batch than DistFixture: the forward/backward gemms, the
// factor syrks, and the A-factor eigh all exceed the blocked math
// engine's small-op cutoff, so this run exercises the packed-panel
// kernels — and, with the optimizer's pool shared via MathPoolGuard, the
// pool-parallel row-block path — inside a real DistKfac step.
std::vector<float> run_kfac_blocked_math(std::size_t engine_threads) {
  std::vector<nn::Model> replicas;
  std::vector<nn::Model*> ptrs;
  for (std::size_t r = 0; r < 2; ++r) {
    ct::Rng rng(777);
    replicas.push_back(nn::make_mlp_classifier(48, 128, 4, 1, rng));
  }
  for (auto& m : replicas) ptrs.push_back(&m);
  nn::ClusterDataset dataset(48, 4, 0.4F, 99);

  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(engine_threads);
  opt::DistKfac kfac({.damping = 0.1, .eigen_refresh_every = 3}, comm, ptrs,
                     pool.get());
  ct::MathPoolGuard math(pool.get());  // nullptr in serial mode.
  const auto compso = cc::make_compso({});
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 3; ++t) {
    for (auto& m : replicas) {
      const auto batch = dataset.sample(128, data_rng);
      const auto logits = m.forward(batch.x);
      ct::Tensor grad;
      nn::softmax_cross_entropy(logits, batch.labels, grad);
      m.backward(grad);
    }
    kfac.step(t, 0.01, compso.get(), sr_rng);
  }

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

TEST(ParallelDeterminism, DistKfacBlockedMathBitExactAcrossThreadCounts) {
  // Serial transcript (no engine workers, no math pool) vs the shared
  // pool at 1/2/8 threads: the deterministic static partition keeps every
  // gemm/syrk accumulation order fixed, so parameters must be bitwise
  // identical (ISSUE 4 acceptance criterion).
  const auto serial = run_kfac_blocked_math(0);
  expect_bitwise_equal(serial, run_kfac_blocked_math(1), "1 thread");
  expect_bitwise_equal(serial, run_kfac_blocked_math(2), "2 threads");
  expect_bitwise_equal(serial, run_kfac_blocked_math(8), "8 threads");
}

// --- fault-tolerant trainer under the parallel engine ---

core::FtTrainerConfig small_config(core::OptimizerKind kind,
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

TEST(ParallelDeterminism, FtTrainerTrajectoryIndependentOfEngineThreads) {
  for (const auto kind :
       {core::OptimizerKind::kSgd, core::OptimizerKind::kKfac}) {
    core::FaultTolerantTrainer serial(small_config(kind, 0));
    core::FaultTolerantTrainer parallel(small_config(kind, 4));
    const auto loss_s = serial.run(6);
    const auto loss_p = parallel.run(6);
    ASSERT_EQ(loss_s.size(), loss_p.size());
    for (std::size_t i = 0; i < loss_s.size(); ++i) {
      EXPECT_EQ(loss_s[i], loss_p[i]) << "iteration " << i;
    }
    expect_bitwise_equal(serial.parameters(), parallel.parameters(),
                         kind == core::OptimizerKind::kSgd ? "sgd" : "kfac");
  }
}

TEST(ParallelDeterminism, CheckpointResumeBitExactUnderParallelEngine) {
  // Straight run with a parallel engine...
  core::FaultTolerantTrainer straight(
      small_config(core::OptimizerKind::kKfac, 4));
  straight.run(12);

  // ...vs interrupt at 6 under the parallel engine, resume under the
  // SERIAL engine (checkpoints carry no engine state, so the worker
  // count is free to change across restarts).
  core::FaultTolerantTrainer first(
      small_config(core::OptimizerKind::kKfac, 4));
  first.run(6);
  const auto frame = first.checkpoint();
  core::FaultTolerantTrainer resumed(
      small_config(core::OptimizerKind::kKfac, 0));
  resumed.restore(frame);
  EXPECT_EQ(resumed.iteration(), 6U);
  resumed.run(6);

  expect_bitwise_equal(straight.parameters(), resumed.parameters(),
                       "resumed trajectory");
}

// --- flush to zero: every trainer step runs under FTZ|DAZ ---

/// micro_train_throughput's smoke config. Its model grows confident
/// within a few steps: under gradual underflow the last layer's output
/// gradient holds subnormals from step 14 and a factor EMA from step 16.
core::FtTrainerConfig smoke_config(std::size_t engine_threads) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 2,
              .batch_per_rank = 128,
              .features = 64,
              .classes = 8,
              .hidden = 128,
              .depth = 2,
              .noise = 0.5F,
              .seed = 20260806};
  cfg.kfac.eigen_refresh_every = 4;
  cfg.kfac.aggregation = 2;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.02;
  cfg.engine_threads = engine_threads;
  return cfg;
}
constexpr std::size_t kSmokeSteps = 24;

std::size_t subnormals(std::span<const float> values) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [](float v) {
        const auto b = std::bit_cast<std::uint32_t>(v);
        return (b & 0x7F800000U) == 0 && (b & 0x007FFFFFU) != 0;
      }));
}

std::size_t factor_subnormals(core::FaultTolerantTrainer& trainer) {
  std::size_t n = 0;
  for (std::size_t s = 0; s < trainer.kfac()->layer_count(); ++s) {
    const auto& st = trainer.kfac()->layer_state(s);
    n += subnormals(st.factor_a().span()) + subnormals(st.factor_g().span());
  }
  return n;
}

TEST(FlushToZero, SmokeTrajectoryHoldsNoSubnormalAtAnyThreadCount) {
  // Flushed or not, the parameters come out the same: a subnormal is far
  // below every sum it joins. So the checks look at the tiny values
  // themselves: the factor EMAs, and through the census (refresh steps
  // 16 and 20) every rank's layer inputs and output gradients, since
  // with a pool the second rank's forward/backward and the step's
  // compute tasks run on workers.
  std::vector<float> serial;
  for (const std::size_t threads : {0UL, 1UL, 2UL, 4UL, 8UL}) {
    SCOPED_TRACE(testing::Message() << "engine threads " << threads);
    core::FaultTolerantTrainer trainer(smoke_config(threads));
    compso::obs::MetricsRegistry registry;
    trainer.set_obs({.metrics = &registry});
    trainer.run(kSmokeSteps);
    EXPECT_EQ(factor_subnormals(trainer), 0U);
    EXPECT_EQ(registry.counter("kfac.subnormal_values"), 0U);
    if (threads == 0) {
      serial = trainer.parameters();
    } else {
      expect_bitwise_equal(serial, trainer.parameters(), "pooled");
    }
  }
  // Interrupted in the subnormal regime, resumed on another pool size.
  core::FaultTolerantTrainer first(smoke_config(4));
  first.run(kSmokeSteps / 2);
  core::FaultTolerantTrainer resumed(smoke_config(2));
  resumed.restore(first.checkpoint());
  resumed.run(kSmokeSteps - kSmokeSteps / 2);
  expect_bitwise_equal(serial, resumed.parameters(), "resumed");
}

TEST(FlushToZero, FaultedSmokeTrajectoryIsThreadInvariant) {
  std::vector<float> serial;
  for (const std::size_t threads : {0UL, 4UL}) {
    core::FaultTolerantTrainer trainer(smoke_config(threads));
    compso::obs::MetricsRegistry registry;
    trainer.set_obs({.metrics = &registry});
    trainer.set_fault_plan(
        cm::FaultPlan{}.corrupt(15, 1).drop(17, 0).nan_gradient(19, 1), 5);
    trainer.run(kSmokeSteps);
    EXPECT_GT(trainer.comm().recovery().nonfinite_skips, 0U);
    EXPECT_EQ(registry.counter("kfac.subnormal_values"), 0U);
    if (threads == 0) {
      serial = trainer.parameters();
    } else {
      expect_bitwise_equal(serial, trainer.parameters(), "faulted pooled");
    }
  }
}

TEST(FlushToZero, DeadUnitStateDecaysToZeroNotSubnormal) {
  // Dead ReLU units feed exact zeros into their factor rows, which then
  // decay by stat_decay every step. Under gradual underflow a factor EMA
  // of this run first holds a subnormal at step 711, and it stays pinned
  // there; flushed, it reaches 0.
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 2,
              .batch_per_rank = 16,
              .features = 8,
              .classes = 4,
              .hidden = 16,
              .depth = 3,
              .noise = 0.7F,
              .seed = 1};
  cfg.base_lr = 0.01;
  core::FaultTolerantTrainer trainer(cfg);
  compso::obs::MetricsRegistry registry;
  trainer.set_obs({.metrics = &registry});
  trainer.run(800);
  EXPECT_EQ(factor_subnormals(trainer), 0U);
  EXPECT_EQ(registry.counter("kfac.eigh_refreshes"), 80U);
  EXPECT_EQ(registry.counter("kfac.subnormal_values"), 0U);
}

// --- fuzz: mutated payloads against the fused decoder ---

TEST(FusedDecoder, MutatedPayloadsThrowOrDecodeBitExact) {
  ct::Rng grad_rng(404);
  const auto grad = ct::synthetic_gradient(
      20'000, ct::GradientProfile::kfac(), grad_rng);
  const auto compso = cc::make_compso({});
  ct::Rng c_rng(9);
  const auto payload = compso->compress(grad, c_rng);
  const auto reference = compso->decompress(payload);

  ct::Rng mut_rng(123);
  std::size_t rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const auto mutated = cc::mutate_payload(payload, mut_rng);
    try {
      const auto out = compso->decompress(mutated);
      // A mutation that slipped past validation must have been benign:
      // the decode is bit-exact. Silent corruption is the bug class.
      ASSERT_EQ(out.size(), reference.size()) << "mutation " << i;
      for (std::size_t j = 0; j < out.size(); ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[j]),
                  std::bit_cast<std::uint32_t>(reference[j]))
            << "mutation " << i << " float " << j;
      }
    } catch (const compso::PayloadError&) {
      ++rejected;
    }
  }
  // The CRC makes nearly every mutation detectable.
  EXPECT_GT(rejected, 350U);
}

}  // namespace
