// Tests for the simulated cluster: topology, network model, functional
// collectives, timing model monotonicity and scaling.

#include "src/comm/communicator.hpp"

#include <gtest/gtest.h>

namespace cm = compso::comm;

namespace {

TEST(Topology, RankMapping) {
  cm::Topology t{.nodes = 4, .gpus_per_node = 4};
  EXPECT_EQ(t.world_size(), 16U);
  EXPECT_EQ(t.node_of(0), 0U);
  EXPECT_EQ(t.node_of(5), 1U);
  EXPECT_EQ(t.local_of(5), 1U);
  EXPECT_TRUE(t.same_node(4, 7));
  EXPECT_FALSE(t.same_node(3, 4));
}

TEST(Topology, WithGpusPacksNodes) {
  const auto t = cm::Topology::with_gpus(64);
  EXPECT_EQ(t.nodes, 16U);
  EXPECT_EQ(t.gpus_per_node, 4U);
  const auto small = cm::Topology::with_gpus(2);
  EXPECT_EQ(small.nodes, 1U);
  EXPECT_EQ(small.gpus_per_node, 2U);
}

TEST(NetworkModel, IntraNodeFasterThanInter) {
  const auto net = cm::NetworkModel::platform1();
  const std::size_t mb = 1 << 20;
  EXPECT_LT(net.intra_node().transfer_time(mb),
            net.inter_node().transfer_time(mb));
}

TEST(NetworkModel, Platform2HasFasterInterconnect) {
  const auto p1 = cm::NetworkModel::platform1();
  const auto p2 = cm::NetworkModel::platform2();
  EXPECT_GT(p2.inter_node().bandwidth_Bps, p1.inter_node().bandwidth_Bps);
}

class CollectiveCorrectness : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CollectiveCorrectness, AllreduceSumsAcrossRanks) {
  const std::size_t world = GetParam();
  cm::Communicator comm(cm::Topology::with_gpus(world),
                        cm::NetworkModel::platform1());
  std::vector<std::vector<float>> bufs(world, std::vector<float>(5));
  for (std::size_t r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < 5; ++i) {
      bufs[r][i] = static_cast<float>(r + i);
    }
  }
  std::vector<std::span<float>> views;
  for (auto& b : bufs) views.push_back(b);
  comm.allreduce_sum(views);
  for (std::size_t r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < 5; ++i) {
      const float expected = static_cast<float>(
          world * i + world * (world - 1) / 2);
      EXPECT_FLOAT_EQ(bufs[r][i], expected) << "rank " << r << " i " << i;
    }
  }
}

TEST_P(CollectiveCorrectness, AllgathervVariableSizes) {
  const std::size_t world = GetParam();
  cm::Communicator comm(cm::Topology::with_gpus(world),
                        cm::NetworkModel::platform1());
  std::vector<std::vector<std::uint8_t>> send(world);
  std::vector<std::span<const std::uint8_t>> frames;
  for (std::size_t r = 0; r < world; ++r) {
    send[r].assign(r + 1, static_cast<std::uint8_t>(r));
    frames.emplace_back(send[r]);
  }
  std::vector<std::vector<std::uint8_t>> recv;
  comm.allgatherv_chunks(frames, recv, 0);
  for (std::size_t r = 0; r < world; ++r) EXPECT_EQ(recv[r], send[r]);
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectiveCorrectness,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(CollectiveTiming, MoreBytesTakeLonger) {
  cm::Communicator comm(cm::Topology::with_gpus(16),
                        cm::NetworkModel::platform1());
  EXPECT_LT(comm.allreduce_time(1 << 20), comm.allreduce_time(16 << 20));
  EXPECT_LT(comm.allgather_time(1 << 20), comm.allgather_time(16 << 20));
  EXPECT_LT(comm.pipelined_broadcast_time(1 << 20),
            comm.pipelined_broadcast_time(16 << 20));
}

TEST(CollectiveTiming, FasterNetworkIsFaster) {
  cm::Communicator c1(cm::Topology::with_gpus(32),
                      cm::NetworkModel::platform1());
  cm::Communicator c2(cm::Topology::with_gpus(32),
                      cm::NetworkModel::platform2());
  EXPECT_GT(c1.allgather_time(32 << 20), c2.allgather_time(32 << 20));
}

TEST(CollectiveTiming, SingleRankIsFree) {
  cm::Communicator comm(cm::Topology::with_gpus(1),
                        cm::NetworkModel::platform1());
  EXPECT_EQ(comm.allreduce_time(1 << 20), 0.0);
  EXPECT_EQ(comm.allgather_time(1 << 20), 0.0);
}

TEST(CollectiveTiming, SingleNodeUsesNvlink) {
  // 4 GPUs on one node (NVLink) vs 4 GPUs across nodes (NIC).
  cm::Communicator one_node(cm::Topology{.nodes = 1, .gpus_per_node = 4},
                            cm::NetworkModel::platform1());
  cm::Communicator four_nodes(cm::Topology{.nodes = 4, .gpus_per_node = 1},
                              cm::NetworkModel::platform1());
  EXPECT_LT(one_node.allgather_time(32 << 20),
            four_nodes.allgather_time(32 << 20) / 4.0);
}

TEST(CollectiveTiming, AllgathervBandwidthTermMatchesTotalMinusOwn) {
  cm::Communicator comm(cm::Topology::with_gpus(8),
                        cm::NetworkModel::platform1());
  // Equal chunks: allgatherv should match equal-chunk allgather closely.
  std::vector<std::size_t> equal(8, 4 << 20);
  const double tv = comm.allgatherv_time(equal);
  const double ta = comm.allgather_time(4 << 20);
  EXPECT_NEAR(tv / ta, 1.0, 0.05);
}

TEST(CollectiveTiming, CompressionShrinksAllgatherTime) {
  cm::Communicator comm(cm::Topology::with_gpus(16),
                        cm::NetworkModel::platform1());
  std::vector<std::size_t> orig(16, 8 << 20);
  std::vector<std::size_t> comp(16, (8 << 20) / 22);
  EXPECT_GT(comm.allgatherv_time(orig) / comm.allgatherv_time(comp), 10.0);
}

TEST(Clocks, CollectivesSynchronizeClocks) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  comm.clocks().advance(2, 1.0);  // rank 2 is behind/ahead
  std::vector<std::vector<float>> bufs(4, std::vector<float>(10, 1.0F));
  std::vector<std::span<float>> views;
  for (auto& b : bufs) views.push_back(b);
  comm.allreduce_sum(views);
  // All clocks equal afterwards, and beyond the straggler's start.
  const double t0 = comm.clocks().at(0);
  EXPECT_GT(t0, 1.0);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(comm.clocks().at(r), t0);
  }
}

TEST(Clocks, StatsAccumulate) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  std::vector<std::vector<float>> bufs(4, std::vector<float>(1000, 1.0F));
  std::vector<std::span<float>> views;
  for (auto& b : bufs) views.push_back(b);
  comm.allreduce_sum(views);
  EXPECT_GT(comm.stats().allreduce_s, 0.0);
  EXPECT_EQ(comm.stats().allreduce_bytes, 4000U);
  comm.reset_stats();
  EXPECT_EQ(comm.stats().allreduce_s, 0.0);
}

TEST(Clocks, SyncAdvanceEndsTogether) {
  cm::SimClocks clocks(3);
  clocks.advance(1, 2.0);
  clocks.sync_advance_masked(0.5, {1, 1, 1});
  // A synchronizing step starts at the latest clock and ends together.
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(clocks.at(r), 2.5);
  }
}

TEST(Clocks, StragglerEventDelaysCollectiveForAll) {
  cm::Communicator comm(cm::Topology::with_gpus(4),
                        cm::NetworkModel::platform1());
  cm::FaultInjector injector(cm::FaultPlan{}.straggler(0, 2, 5.0), 7);
  comm.set_fault_injector(&injector);
  comm.begin_iteration(0);
  EXPECT_DOUBLE_EQ(comm.clocks().at(2), 5.0);
  EXPECT_EQ(comm.recovery().straggler_events, 1U);

  std::vector<std::vector<float>> bufs(4, std::vector<float>(10, 1.0F));
  std::vector<std::span<float>> views;
  for (auto& b : bufs) views.push_back(b);
  comm.allreduce_sum(views);
  // The collective starts at the straggler's clock; everyone ends together
  // beyond it.
  const double t0 = comm.clocks().at(0);
  EXPECT_GT(t0, 5.0);
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(comm.clocks().at(r), t0);
  }
  // One-shot: the next iteration sees no residual slowdown event.
  comm.begin_iteration(1);
  EXPECT_EQ(comm.recovery().straggler_events, 1U);
}

TEST(Validation, MismatchedBuffersThrow) {
  cm::Communicator comm(cm::Topology::with_gpus(2),
                        cm::NetworkModel::platform1());
  std::vector<std::vector<float>> bufs{{1.0F, 2.0F}, {1.0F}};
  std::vector<std::span<float>> views;
  for (auto& b : bufs) views.push_back(b);
  EXPECT_THROW(comm.allreduce_sum(views), std::invalid_argument);
  EXPECT_THROW(comm.reduce_sum(views, 5), std::invalid_argument);
}

}  // namespace
