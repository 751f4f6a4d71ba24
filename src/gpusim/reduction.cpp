#include "src/gpusim/reduction.hpp"

#include <cmath>

namespace compso::gpusim {

double reduction_time(const DeviceModel& dev, std::size_t n,
                      ReductionStrategy strategy) noexcept {
  const double nd = static_cast<double>(n);
  const double read_t = nd * 4.0 / dev.effective_bandwidth();
  const double block = static_cast<double>(dev.threads_per_block);
  const double blocks = std::ceil(nd / block);
  // Second-level pass that folds the per-block partials (launch + a tiny
  // shared-memory reduction over `blocks` values).
  const double tail_t = dev.kernel_launch_s +
                        (2.0 * blocks / 32.0) / dev.shared_warp_ops_per_s +
                        blocks * 8.0 / dev.effective_bandwidth();
  switch (strategy) {
    case ReductionStrategy::kGlobalAtomic:
      // Two atomics (min and max) per element, all contending on the same
      // two global addresses: serialized at the L2 atomic unit.
      return dev.kernel_launch_s + read_t +
             2.0 * nd / dev.contended_atomic_ops_per_s;
    case ReductionStrategy::kBlockShared: {
      // Tree reduction in shared memory: ~2n shared accesses total
      // (n/2 + n/4 + ... reads plus writes), issued 32 lanes per warp op.
      const double shared_t =
          (2.0 * nd / 32.0) / dev.shared_warp_ops_per_s;
      return dev.kernel_launch_s + read_t + shared_t + tail_t;
    }
    case ReductionStrategy::kBlockWarpShuffle: {
      // 5 shuffle rounds inside each warp (register file), then one shared
      // write/read per warp to combine across the block.
      const double shuffle_t =
          5.0 * (nd / 32.0) / dev.shuffle_warp_ops_per_s;
      const double shared_t =
          (2.0 * nd / 1024.0) / dev.shared_warp_ops_per_s;
      return dev.kernel_launch_s + read_t + shuffle_t + shared_t + tail_t;
    }
  }
  return 0.0;
}

}  // namespace compso::gpusim
