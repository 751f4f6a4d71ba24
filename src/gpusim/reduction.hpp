#pragma once
// Extrema / range computation: timing models for the three GPU strategies
// §4.5 discusses (the functional kernel is tensor::extrema).
//
// Finding a layer's value range (for Eq. 3 normalization) is a reduction.
// The paper's optimization chain:
//   naive global atomics  ->  block reduction in shared memory
//                         ->  block reduction + warp-level shuffle
// Each step moves the fine-grained combining into a faster storage tier.

#include "src/gpusim/device_model.hpp"

#include <cstddef>

namespace compso::gpusim {

enum class ReductionStrategy {
  kGlobalAtomic,      ///< every element updates global extrema atomically.
  kBlockShared,       ///< tree reduction in shared memory per block.
  kBlockWarpShuffle,  ///< warp shuffle first, shared memory only per warp.
};

/// Modeled time to reduce `n` float32 elements to (min, max).
double reduction_time(const DeviceModel& dev, std::size_t n,
                      ReductionStrategy strategy) noexcept;

}  // namespace compso::gpusim
