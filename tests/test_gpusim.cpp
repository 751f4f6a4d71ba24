// Tests for the GPU device/timing model: kernel roofline, dispatch
// strategies (fusion §4.5 / Fig. 8), reduction strategies, layer-block map.

#include "src/gpusim/device_model.hpp"
#include "src/gpusim/layer_mapping.hpp"
#include "src/gpusim/reduction.hpp"

#include <gtest/gtest.h>

namespace gs = compso::gpusim;

namespace {

TEST(KernelTime, MemoryBoundScalesWithBytes) {
  const auto dev = gs::DeviceModel::a100();
  gs::KernelSpec small{.bytes_read = 1 << 20, .bytes_written = 1 << 20};
  gs::KernelSpec large{.bytes_read = 64 << 20, .bytes_written = 64 << 20};
  const double ts = gs::kernel_time(dev, small);
  const double tl = gs::kernel_time(dev, large);
  // 64x the bytes; launch overhead keeps the observed ratio below 64.
  EXPECT_GT(tl, ts * 10.0);
}

TEST(KernelTime, ComputeBoundWhenFlopsDominate) {
  const auto dev = gs::DeviceModel::a100();
  gs::KernelSpec spec{.bytes_read = 1 << 10,
                      .bytes_written = 1 << 10,
                      .flops = 1e12};
  const double t = gs::kernel_time(dev, spec);
  EXPECT_NEAR(t - dev.kernel_launch_s, 1e12 / dev.fp32_flops, 1e-6);
}

TEST(KernelTime, LowEfficiencyIsSlower) {
  const auto dev = gs::DeviceModel::a100();
  gs::KernelSpec good{.bytes_read = 16 << 20, .bandwidth_efficiency = 1.0};
  gs::KernelSpec bad{.bytes_read = 16 << 20, .bandwidth_efficiency = 0.25};
  EXPECT_GT(gs::kernel_time(dev, bad), gs::kernel_time(dev, good) * 2.0);
}

TEST(Pipeline, FusionOrdering) {
  // Fused < separate kernels < framework ops (§4.5, §5.3).
  const auto dev = gs::DeviceModel::a100();
  gs::PipelineSpec p{.input_bytes = 32 << 20,
                     .output_bytes = (32 << 20) / 20,
                     .stages = 3};
  const double fused = gs::pipeline_time(dev, p, gs::Dispatch::kFusedKernel);
  const double separate =
      gs::pipeline_time(dev, p, gs::Dispatch::kSeparateKernels);
  const double framework =
      gs::pipeline_time(dev, p, gs::Dispatch::kFrameworkOps);
  EXPECT_LT(fused, separate);
  EXPECT_LT(separate, framework);
}

TEST(Pipeline, FrameworkOverheadDominatesSmallData) {
  // At small sizes the PyTorch-style dispatch overhead is the story; at
  // large sizes bandwidth is. The throughput gap shrinks with size.
  const auto dev = gs::DeviceModel::a100();
  auto ratio = [&](std::size_t bytes) {
    gs::PipelineSpec p{.input_bytes = bytes, .output_bytes = bytes / 20,
                       .stages = 3};
    return gs::pipeline_throughput(dev, p, gs::Dispatch::kFusedKernel) /
           gs::pipeline_throughput(dev, p, gs::Dispatch::kFrameworkOps);
  };
  EXPECT_GT(ratio(1 << 20), ratio(128 << 20));
  EXPECT_GT(ratio(128 << 20), 1.0);
}

TEST(Pipeline, ThroughputSaturatesWithSize) {
  const auto dev = gs::DeviceModel::a100();
  auto tp = [&](std::size_t bytes) {
    gs::PipelineSpec p{.input_bytes = bytes, .output_bytes = bytes / 10,
                       .stages = 3};
    return gs::pipeline_throughput(dev, p, gs::Dispatch::kFusedKernel);
  };
  EXPECT_GT(tp(16 << 20), tp(1 << 20));
  // Beyond tens of MB the curve flattens (launch overhead amortized).
  EXPECT_NEAR(tp(256U << 20) / tp(64U << 20), 1.0, 0.10);
}

TEST(Reduction, StrategyOrdering) {
  // Global atomics << block shared < block + warp shuffle (§4.5).
  const auto dev = gs::DeviceModel::a100();
  const std::size_t n = 16 << 20;
  const double atomic =
      gs::reduction_time(dev, n, gs::ReductionStrategy::kGlobalAtomic);
  const double shared =
      gs::reduction_time(dev, n, gs::ReductionStrategy::kBlockShared);
  const double shuffle =
      gs::reduction_time(dev, n, gs::ReductionStrategy::kBlockWarpShuffle);
  EXPECT_GT(atomic, shared * 10.0);
  EXPECT_GT(shared, shuffle);
}

TEST(Reduction, ShuffleNearsBandwidthLimit) {
  const auto dev = gs::DeviceModel::a100();
  const std::size_t n = 64 << 20;
  const double t =
      gs::reduction_time(dev, n, gs::ReductionStrategy::kBlockWarpShuffle);
  const double ideal = static_cast<double>(n) * 4.0 / dev.effective_bandwidth();
  EXPECT_LT(t, ideal * 1.5);  // within 50% of the pure-bandwidth bound
}

TEST(LayerBlockMap, BlocksNeverSpanLayers) {
  gs::LayerBlockMap map({100, 300, 50}, 128);
  for (const auto& b : map.blocks()) {
    EXPECT_LE(b.offset + b.count, map.layer_sizes()[b.layer]);
  }
  // 100 -> 1 block, 300 -> 3 blocks, 50 -> 1 block.
  EXPECT_EQ(map.block_count(), 5U);
}

TEST(LayerBlockMap, PaddingOverheadComputed) {
  // One layer of 64 elems in 128-wide blocks: half the capacity is padding.
  gs::LayerBlockMap map({64}, 128);
  EXPECT_NEAR(map.padding_overhead(), 0.5, 1e-9);
}

TEST(LayerBlockMap, ImbalanceDetected) {
  gs::LayerBlockMap even({256, 256}, 128);
  EXPECT_NEAR(even.imbalance(), 1.0, 1e-9);
  gs::LayerBlockMap skew({128, 1}, 128);
  EXPECT_GT(skew.imbalance(), 1.5);
}

TEST(LayerBlockMap, ZeroBlockSizeThrows) {
  EXPECT_THROW(gs::LayerBlockMap({10}, 0), std::invalid_argument);
}

TEST(LayerBlockMap, DeterministicAcrossIterations) {
  // §4.5: the layer->block map is built once and reused; identical inputs
  // must give identical mappings.
  gs::LayerBlockMap a({100, 200, 300}, 64);
  gs::LayerBlockMap b({100, 200, 300}, 64);
  ASSERT_EQ(a.block_count(), b.block_count());
  for (std::size_t i = 0; i < a.block_count(); ++i) {
    EXPECT_EQ(a.blocks()[i].layer, b.blocks()[i].layer);
    EXPECT_EQ(a.blocks()[i].offset, b.blocks()[i].offset);
    EXPECT_EQ(a.blocks()[i].count, b.blocks()[i].count);
  }
}

}  // namespace
