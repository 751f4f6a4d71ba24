// Chunked exchange suite (DESIGN.md §15): chunk frame v2 round trips and
// edge sizes (chunk_bytes == 0 is one chunk), the decode cursor's
// validation, per-chunk fault-injection fuzz (>= 1000 mutations per boundary category, every
// one failing typed), the chunk-scoped fault plan, the per-round chunk
// collective, and the headline acceptance: training trajectories are
// bit-identical at every chunk size — clean, under chunk-level and
// whole-payload faults with the retry ladder, and across a
// checkpoint/resume — at any engine thread count.

#include "src/codec/chunk.hpp"
#include "src/codec/wire.hpp"
#include "src/comm/communicator.hpp"
#include "src/comm/fault_injector.hpp"
#include "src/common/thread_pool.hpp"
#include "src/compress/chunked_stream.hpp"
#include "src/compress/compressor.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/tensor/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

namespace cm = compso::comm;
namespace core = compso::core;
namespace opt = compso::optim;
namespace nn = compso::nn;
namespace ct = compso::tensor;
namespace cc = compso::compress;
namespace chunk = compso::codec::chunk;
namespace common = compso::common;
using compso::PayloadError;

namespace {

/// The optimizer's pool: none at 0 threads (compute tasks run inline).
std::unique_ptr<common::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

cc::Bytes random_payload(std::size_t n, ct::Rng& rng) {
  cc::Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng() & 0xFF);
  return b;
}

cc::Bytes reassemble(const cc::ChunkedProducer& p) {
  chunk::Cursor c;
  for (std::size_t k = 0; k < p.chunk_count(); ++k) c.feed(p.chunk(k));
  const auto view = c.payload();
  return cc::Bytes(view.begin(), view.end());
}

// --- frame round trips and edge sizes ---

TEST(ChunkFrame, RoundTripAcrossSizes) {
  ct::Rng rng(11);
  for (const std::size_t cb : {std::size_t{1}, std::size_t{7},
                               std::size_t{64}, std::size_t{4096}}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, cb - 1, cb, cb + 1, 3 * cb + 5}) {
      const auto payload = random_payload(n, rng);
      cc::ChunkedProducer p;
      p.frame(cc::ByteView(payload), cb);
      EXPECT_EQ(p.chunk_count(), chunk::chunk_count_for(n, cb));
      const auto out = reassemble(p);
      ASSERT_EQ(out.size(), payload.size()) << "cb=" << cb << " n=" << n;
      EXPECT_TRUE(payload.empty() ||
                  std::memcmp(out.data(), payload.data(), n) == 0)
          << "cb=" << cb << " n=" << n;
    }
  }
}

TEST(ChunkFrame, EmptyPayloadIsOneChunk) {
  EXPECT_EQ(chunk::chunk_count_for(0, 64), 1U);
  cc::ChunkedProducer p;
  p.frame(cc::ByteView(), 64);
  EXPECT_EQ(p.chunk_count(), 1U);
  chunk::Cursor c;
  c.feed(p.chunk(0));
  EXPECT_TRUE(c.complete());
  EXPECT_EQ(c.payload().size(), 0U);
}

TEST(ChunkFrame, ZeroChunkBytesIsOneChunkPerPayload) {
  ct::Rng rng(12);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{513}, std::size_t{70000}}) {
    const auto payload = random_payload(n, rng);
    cc::ChunkedProducer p;
    p.frame(cc::ByteView(payload), 0);
    ASSERT_EQ(p.chunk_count(), 1U) << "n=" << n;
    EXPECT_EQ(p.chunk(0).size(), chunk::kChunkHeaderSize + n) << "n=" << n;
    EXPECT_EQ(reassemble(p), payload) << "n=" << n;
  }
}

// --- decode cursor ---

TEST(ChunkCursor, RejectedFrameLeavesCursorUnchanged) {
  ct::Rng rng(13);
  const auto payload = random_payload(2000, rng);
  cc::ChunkedProducer p;
  p.frame(cc::ByteView(payload), 256);
  ASSERT_GE(p.chunk_count(), 4U);

  chunk::Cursor c;
  EXPECT_THROW(c.feed(p.chunk(1)), PayloadError);  // gap on a fresh cursor
  EXPECT_FALSE(c.started());
  for (std::size_t k = 0; k < 3; ++k) c.feed(p.chunk(k));
  EXPECT_FALSE(c.complete());
  EXPECT_THROW((void)c.payload(), PayloadError);
  auto damaged = cc::Bytes(p.chunk(3).begin(), p.chunk(3).end());
  damaged.back() ^= 0x01;
  EXPECT_THROW(c.feed(cc::ByteView(damaged)), PayloadError);
  EXPECT_EQ(c.chunks_fed(), 3U);
  // The round is fed again, clean, exactly as a retried round would be.
  for (std::size_t k = 3; k < p.chunk_count(); ++k) c.feed(p.chunk(k));
  EXPECT_TRUE(c.complete());
  const auto out = c.payload();
  ASSERT_EQ(out.size(), payload.size());
  EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0);
}

TEST(ChunkCursor, GapAndForeignStreamRejected) {
  ct::Rng rng(14);
  const auto payload = random_payload(1000, rng);
  cc::ChunkedProducer p;
  p.frame(cc::ByteView(payload), 256);

  chunk::Cursor gap;
  EXPECT_THROW(gap.feed(p.chunk(1)), PayloadError);  // starts at index 1.

  // A chunk from a different stream (other total) after a valid start.
  const auto other = random_payload(600, rng);
  cc::ChunkedProducer q;
  q.frame(cc::ByteView(other), 256);
  chunk::Cursor mixed;
  mixed.feed(p.chunk(0));
  EXPECT_THROW(mixed.feed(q.chunk(1)), PayloadError);
}

// --- per-chunk fault-injection fuzz (>= 1000 mutations per category) ---

constexpr std::size_t kFuzzIters = 1000;

struct FuzzStream {
  cc::Bytes payload;
  cc::ChunkedProducer producer;

  FuzzStream() {
    ct::Rng rng(0xF00D);
    payload = random_payload(3000, rng);
    producer.frame(cc::ByteView(payload), 256);
  }

  // Feeds chunks [0, k) clean, then the mutated frame for chunk k.
  void expect_typed_failure(std::size_t k, const cc::Bytes& frame,
                            const char* what) const {
    chunk::Cursor c;
    for (std::size_t i = 0; i < k; ++i) c.feed(producer.chunk(i));
    EXPECT_THROW(c.feed(cc::ByteView(frame)), PayloadError) << what;
  }
};

TEST(ChunkFuzz, HeaderFieldMutationsFailTyped) {
  const FuzzStream s;
  ct::Rng rng(21);
  for (std::size_t i = 0; i < kFuzzIters; ++i) {
    const std::size_t k = rng.uniform_index(s.producer.chunk_count());
    const auto view = s.producer.chunk(k);
    cc::Bytes frame(view.begin(), view.end());
    // Any header byte: magic, version, index, count, total, body length.
    const std::size_t pos = rng.uniform_index(chunk::kChunkHeaderSize - 4);
    frame[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    s.expect_typed_failure(k, frame, "header mutation");
  }
}

TEST(ChunkFuzz, CrcMutationsFailTyped) {
  const FuzzStream s;
  ct::Rng rng(22);
  for (std::size_t i = 0; i < kFuzzIters; ++i) {
    const std::size_t k = rng.uniform_index(s.producer.chunk_count());
    const auto view = s.producer.chunk(k);
    cc::Bytes frame(view.begin(), view.end());
    const std::size_t pos =
        chunk::kChunkHeaderSize - 4 + rng.uniform_index(4);
    frame[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    s.expect_typed_failure(k, frame, "crc mutation");
  }
}

TEST(ChunkFuzz, MidChunkTruncationsFailTyped) {
  const FuzzStream s;
  ct::Rng rng(23);
  for (std::size_t i = 0; i < kFuzzIters; ++i) {
    const std::size_t k = rng.uniform_index(s.producer.chunk_count());
    const auto view = s.producer.chunk(k);
    // Every proper prefix must fail, including cuts inside the header.
    const std::size_t cut = rng.uniform_index(view.size());
    const cc::Bytes frame(view.begin(), view.begin() + cut);
    s.expect_typed_failure(k, frame, "truncation");
  }
  // Stream truncation: all but the last chunk is mid-payload, not a
  // decodable prefix.
  chunk::Cursor c;
  for (std::size_t k = 0; k + 1 < s.producer.chunk_count(); ++k) {
    c.feed(s.producer.chunk(k));
  }
  EXPECT_FALSE(c.complete());
  EXPECT_THROW((void)c.payload(), PayloadError);
}

TEST(ChunkFuzz, DuplicatedChunksFailTyped) {
  const FuzzStream s;
  ct::Rng rng(24);
  for (std::size_t i = 0; i < kFuzzIters; ++i) {
    const std::size_t k = 1 + rng.uniform_index(s.producer.chunk_count() - 1);
    const std::size_t dup = rng.uniform_index(k);  // replay an earlier one.
    const auto view = s.producer.chunk(dup);
    s.expect_typed_failure(k, cc::Bytes(view.begin(), view.end()),
                           "duplicate chunk");
  }
}

// --- chunk-scoped fault plan ---

TEST(ChunkFaults, ChunkScopedEventsMatchOnlyTheirRound) {
  cm::FaultPlan plan;
  plan.corrupt_chunk(2, 1, 3);
  cm::FaultInjector inj(plan, 99);
  inj.begin_iteration(2);
  // Whole-payload take() never consumes a chunk-scoped event.
  EXPECT_FALSE(inj.take(cm::FaultKind::kCorruptPayload, 1));
  EXPECT_FALSE(inj.take_chunk(cm::FaultKind::kCorruptPayload, 1, 2));
  EXPECT_FALSE(inj.take_chunk(cm::FaultKind::kCorruptPayload, 0, 3));
  EXPECT_TRUE(inj.take_chunk(cm::FaultKind::kCorruptPayload, 1, 3));
  EXPECT_FALSE(inj.take_chunk(cm::FaultKind::kCorruptPayload, 1, 3))
      << "chunk events are one-shot";
}

// --- the per-round chunk collective ---

TEST(ChunkTransport, AllgathervChunksDeliversPerSlotAndPricesRounds) {
  cm::Communicator comm(cm::Topology{.nodes = 2, .gpus_per_node = 2},
                        cm::NetworkModel::platform1());
  const std::size_t world = comm.world_size();
  ct::Rng rng(31);
  std::vector<cc::Bytes> payloads(world);
  std::vector<cc::ChunkedProducer> producers(world);
  std::size_t rounds = 0;
  for (std::size_t r = 0; r < world; ++r) {
    payloads[r] = random_payload(700 + 500 * r, rng);
    producers[r].frame(cc::ByteView(payloads[r]), 512);
    rounds = std::max(rounds, producers[r].chunk_count());
  }

  std::vector<chunk::Cursor> consumers(world);
  double expected_s = 0.0;
  std::uint64_t expected_bytes = 0;
  for (std::size_t k = 0; k < rounds; ++k) {
    std::vector<std::span<const std::uint8_t>> frames(world);
    std::vector<std::size_t> sizes;
    for (std::size_t r = 0; r < world; ++r) {
      if (k < producers[r].chunk_count()) frames[r] = producers[r].chunk(k);
      sizes.push_back(frames[r].size());
      expected_bytes += frames[r].size();
    }
    expected_s += comm.allgatherv_time(sizes);
    std::vector<std::vector<std::uint8_t>> recv;
    comm.allgatherv_chunks(frames, recv, k);
    for (std::size_t r = 0; r < world; ++r) {
      if (recv[r].empty()) continue;
      consumers[r].feed(cc::ByteView(recv[r]));
    }
  }
  for (std::size_t r = 0; r < world; ++r) {
    ASSERT_TRUE(consumers[r].complete()) << "rank " << r;
    const auto out = consumers[r].payload();
    ASSERT_EQ(out.size(), payloads[r].size()) << "rank " << r;
    EXPECT_EQ(std::memcmp(out.data(), payloads[r].data(), out.size()), 0)
        << "rank " << r;
  }
  EXPECT_DOUBLE_EQ(comm.stats().allgather_s, expected_s);
  EXPECT_EQ(comm.stats().allgather_bytes, expected_bytes);
}

TEST(ChunkTransport, ChunkFaultsDamageOnlyTheirSlotAndRound) {
  cm::FaultPlan plan;
  plan.corrupt_chunk(0, 1, 0).truncate_chunk(0, 2, 1).drop_chunk(0, 0, 1);
  cm::FaultInjector inj(plan, 4242);
  cm::Communicator comm(cm::Topology{.nodes = 2, .gpus_per_node = 2},
                        cm::NetworkModel::platform1());
  comm.set_fault_injector(&inj);
  comm.begin_iteration(0);

  const std::size_t world = comm.world_size();
  ct::Rng rng(32);
  std::vector<cc::Bytes> payloads(world);
  std::vector<cc::ChunkedProducer> producers(world);
  for (std::size_t r = 0; r < world; ++r) {
    payloads[r] = random_payload(900, rng);
    producers[r].frame(cc::ByteView(payloads[r]), 512);
    ASSERT_EQ(producers[r].chunk_count(), 2U);
  }
  auto round = [&](std::size_t k) {
    std::vector<std::span<const std::uint8_t>> frames(world);
    for (std::size_t r = 0; r < world; ++r) frames[r] = producers[r].chunk(k);
    std::vector<std::vector<std::uint8_t>> recv;
    comm.allgatherv_chunks(frames, recv, k);
    return recv;
  };

  const auto r0 = round(0);
  const auto r1 = round(1);
  const auto same = [](const std::vector<std::uint8_t>& got,
                       cc::ByteView sent) {
    return got.size() == sent.size() &&
           std::memcmp(got.data(), sent.data(), got.size()) == 0;
  };
  // Round 0: rank 1's frame corrupted in place, everyone else intact.
  EXPECT_FALSE(same(r0[1], producers[1].chunk(0)));
  EXPECT_TRUE(same(r0[0], producers[0].chunk(0)));
  EXPECT_TRUE(same(r0[2], producers[2].chunk(0)));
  // Round 1: rank 2 truncated, rank 0 dropped, rank 3 intact.
  EXPECT_LT(r1[2].size(), producers[2].chunk(1).size());
  EXPECT_TRUE(r1[0].empty());
  EXPECT_TRUE(same(r1[3], producers[3].chunk(1)));
  // Damage is typed at the cursor.
  chunk::Cursor c;
  EXPECT_THROW(c.feed(cc::ByteView(r0[1])), PayloadError);
  EXPECT_EQ(comm.recovery().corrupt_injected, 1U);
  EXPECT_EQ(comm.recovery().truncations_injected, 1U);
  EXPECT_EQ(comm.recovery().drops_injected, 1U);
}

// --- trajectory acceptance: every chunk size, bit for bit ---

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

std::vector<float> run_kfac(std::size_t engine_threads,
                            std::size_t chunk_bytes, bool factor_compression) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(engine_threads);
  opt::DistKfac kfac({.damping = 0.1, .eigen_refresh_every = 2,
                      .aggregation = 2, .chunk_bytes = chunk_bytes},
                     comm, f.ptrs, pool.get());
  const auto compso = cc::make_compso({});
  const auto factor_comp = cc::make_compso(
      {.filter_bound = 0.0, .quant_bound = 1e-4, .use_filter = false});
  if (factor_compression) kfac.set_factor_compressor(factor_comp.get());
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 5; ++t) {
    f.run_fwd_bwd(data_rng);
    kfac.step(t, 0.01, compso.get(), sr_rng);
  }
  return f.flat_params();
}

TEST(ChunkTrajectory, DistKfacChunkedMatchesUnchunkedAtAnyThreadCount) {
  for (const bool factors : {false, true}) {
    SCOPED_TRACE(factors ? "factor compression" : "plain factor allreduce");
    const auto unchunked = run_kfac(0, 0, factors);
    expect_bitwise_equal(unchunked, run_kfac(0, 512, factors),
                         "chunked serial");
    expect_bitwise_equal(unchunked, run_kfac(2, 512, factors),
                         "chunked 2-thread");
    expect_bitwise_equal(unchunked, run_kfac(8, 512, factors),
                         "chunked 8-thread");
    expect_bitwise_equal(unchunked, run_kfac(8, 64, factors),
                         "tiny chunks 8-thread");
    expect_bitwise_equal(unchunked, run_kfac(2, 0, factors),
                         "one chunk 2-thread");
  }
}

std::vector<float> run_sgd(std::size_t engine_threads) {
  DistFixture f(4);
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  const auto pool = make_pool(engine_threads);
  opt::DistSgd sgd(comm, f.ptrs, pool.get());
  const auto ef_compso = cc::make_error_feedback(cc::make_compso({}));
  ct::Rng data_rng(1), sr_rng(2);
  for (std::size_t t = 0; t < 5; ++t) {
    f.run_fwd_bwd(data_rng);
    sgd.step(0.05, ef_compso.get(), sr_rng);
  }
  return f.flat_params();
}

TEST(ChunkTrajectory, DistSgdChunkedMatchesUnchunkedAtAnyThreadCount) {
  // DistSgd ships each rank's payload as one chunk frame; its EF-COMPSO
  // exchange lands on the same bits at any engine thread count.
  const auto serial = run_sgd(0);
  expect_bitwise_equal(serial, run_sgd(2), "2-thread");
  expect_bitwise_equal(serial, run_sgd(8), "8-thread");
}

// --- retry ladder + checkpoint/resume under chunk-level faults ---

core::FtTrainerConfig chunked_ft_config(std::size_t engine_threads,
                                        std::size_t chunk_bytes) {
  core::FtTrainerConfig cfg;
  cfg.base = {.world = 4,
              .batch_per_rank = 8,
              .features = 12,
              .classes = 4,
              .hidden = 12,
              .depth = 2,
              .noise = 0.7F,
              .seed = 31337};
  cfg.optimizer = core::OptimizerKind::kKfac;
  cfg.kfac.eigen_refresh_every = 5;
  cfg.kfac.chunk_bytes = chunk_bytes;
  cfg.recovery = {.enabled = true};
  cfg.base_lr = 0.05;
  cfg.total_iterations = 20;
  cfg.engine_threads = engine_threads;
  return cfg;
}

cm::FaultPlan chunk_fault_plan() {
  cm::FaultPlan plan;
  plan.corrupt_chunk(1, 2, 0).truncate_chunk(3, 1, 0).drop_chunk(5, 0, 1);
  return plan;
}

TEST(ChunkTrajectory, RetriedChunkFaultsLeaveTrajectoryBitExact) {
  // One-shot chunk faults are absorbed by per-round retries: the faulted
  // run must land on the clean run's trajectory, at every thread count.
  core::FaultTolerantTrainer clean(chunked_ft_config(0, 512));
  const auto clean_loss = clean.run(8);
  const auto clean_params = clean.parameters();

  for (const std::size_t threads : {0UL, 2UL, 8UL}) {
    core::FaultTolerantTrainer faulted(chunked_ft_config(threads, 512));
    faulted.set_fault_plan(chunk_fault_plan(), 4242);
    const auto loss = faulted.run(8);
    ASSERT_EQ(loss.size(), clean_loss.size());
    for (std::size_t i = 0; i < loss.size(); ++i) {
      EXPECT_EQ(loss[i], clean_loss[i]) << "threads=" << threads << " it=" << i;
    }
    expect_bitwise_equal(clean_params, faulted.parameters(), "chunk faults");
    EXPECT_GT(faulted.comm().recovery().decode_retries, 0U)
        << "plan did not exercise the retry ladder";
    EXPECT_EQ(faulted.comm().recovery().decode_failures, 0U);
  }
}

TEST(ChunkTrajectory, WholePayloadFaultsLandOnRoundZeroAndRetryOnce) {
  // Whole-payload events carry no chunk index: each lands on round 0 of
  // the iteration's chunked gather, costs exactly one retried round, and
  // leaves the trajectory on the clean run's bits.
  core::FaultTolerantTrainer clean(chunked_ft_config(0, 512));
  clean.run(8);

  core::FaultTolerantTrainer faulted(chunked_ft_config(0, 512));
  faulted.set_fault_plan(
      cm::FaultPlan{}.corrupt(1, 2).truncate(3, 1).drop(5, 0), 4242);
  faulted.run(8);
  const auto& rc = faulted.comm().recovery();
  EXPECT_EQ(rc.corrupt_injected, 1U);
  EXPECT_EQ(rc.truncations_injected, 1U);
  EXPECT_EQ(rc.drops_injected, 1U);
  EXPECT_EQ(rc.decode_retries, 3U);
  EXPECT_EQ(rc.decode_failures, 0U);
  expect_bitwise_equal(clean.parameters(), faulted.parameters(),
                       "whole-payload faults");
}

TEST(ChunkTrajectory, CheckpointResumeBitExactInChunkedMode) {
  core::FaultTolerantTrainer straight(chunked_ft_config(8, 512));
  straight.run(12);

  core::FaultTolerantTrainer first(chunked_ft_config(8, 512));
  first.run(6);
  const auto frame = first.checkpoint();
  core::FaultTolerantTrainer resumed(chunked_ft_config(2, 512));
  resumed.restore(frame);
  EXPECT_EQ(resumed.iteration(), 6U);
  resumed.run(6);

  expect_bitwise_equal(straight.parameters(), resumed.parameters(),
                       "chunked resume");
}

}  // namespace
