#pragma once
// Recovery policy shared by the distributed optimizers.
//
// The policy decides what happens when a collective delivers damaged or
// numerically unusable data (see DESIGN.md §9 for the full fault → action
// matrix):
//
//  - decode failure (PayloadError)  -> bounded retry: re-send the same
//    chunk round through a fresh collective up to kMaxDecodeRetries times
//    (optim/exchange.hpp).
//  - retries exhausted              -> fall back to the uncompressed
//    allreduce path for that layer-step; after kFallbackAfter consecutive
//    failing steps the layer is degraded (permanently uncompressed) so a
//    rotten link cannot stall training forever.
//  - NaN/Inf after decompression    -> skip that layer's update this step
//    (params and momentum untouched) instead of poisoning the weights.
//
// With `enabled == false` the optimizers keep their fail-fast behaviour:
// PayloadError propagates, and the non-finite guard throws NonFiniteError.
// All counters land in comm::RecoveryStats (Communicator::recovery()).

#include "src/comm/communicator.hpp"
#include "src/nn/model.hpp"

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace compso::optim {

struct RecoveryPolicy {
  bool enabled = false;
};

/// Re-sends of a chunk round whose frames failed to decode.
inline constexpr std::size_t kMaxDecodeRetries = 2;
/// Consecutive failed steps on a layer before it is permanently degraded
/// to the uncompressed path.
inline constexpr std::uint32_t kFallbackAfter = 3;

/// Consecutive-failure state of one degradable exchange path.
struct DegradeState {
  std::uint32_t failures = 0;  ///< consecutive failed steps.
  std::uint8_t degraded = 0;   ///< latched: permanently uncompressed.
};

/// The ladder's bookkeeping for one exchange that exhausted its retries
/// (or failed to decode) and falls back to the uncompressed path: counts
/// `decode_failures` and `fallback_steps` and emits the `event` instant.
/// With a `state`, advances its consecutive-failure count and latches
/// `degraded` — counting `degraded_layers` once — when the count reaches
/// kFallbackAfter. The caller resets `state->failures` on success.
void record_fallback(comm::Communicator& comm, std::string_view event,
                     DegradeState* state = nullptr);

/// True when every value is finite (the non-finite guard).
bool all_finite(std::span<const float> values) noexcept;

/// Rejoin re-sync of one layer (DESIGN.md §14): copies the `lead`
/// replica's parameters into every rejoining replica through a sealed
/// CKPT mini-frame — the framing + CRC validation a checkpoint restore
/// goes through — so a rejoiner's state is bit-identical to a survivor's,
/// not merely close.
void resync_layer(const std::vector<nn::Model*>& replicas, std::size_t layer,
                  std::size_t lead, const std::vector<std::size_t>& rejoining);

/// Round-trips `tensors` through one sealed CKPT mini-frame and returns
/// the validated copies, in order (the transfer resync_layer and the
/// sharded factor handoff share).
std::vector<tensor::Tensor> sealed_copy(
    std::span<const tensor::Tensor* const> tensors);

}  // namespace compso::optim
