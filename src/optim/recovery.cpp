#include "src/optim/recovery.hpp"

#include "src/codec/ckpt.hpp"

#include <cmath>
#include <string>

namespace compso::optim {

void record_fallback(comm::Communicator& comm, std::string_view event,
                     DegradeState* state) {
  const obs::ObsHooks& hooks = comm.obs();
  ++comm.recovery().decode_failures;
  ++comm.recovery().fallback_steps;
  hooks.count("recovery.decode_failures");
  hooks.count("recovery.fallback_steps");
  hooks.instant(obs::kMainTrack, std::string(event), "recovery");
  if (state == nullptr) return;
  if (++state->failures >= kFallbackAfter && state->degraded == 0) {
    state->degraded = 1;
    ++comm.recovery().degraded_layers;
    hooks.count("recovery.degraded_layers");
  }
}

bool all_finite(std::span<const float> values) noexcept {
  for (float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::vector<tensor::Tensor> sealed_copy(
    std::span<const tensor::Tensor* const> tensors) {
  codec::ckpt::Bytes body;
  for (const tensor::Tensor* t : tensors) codec::ckpt::put_tensor(body, *t);
  const codec::ckpt::Bytes frame = codec::ckpt::seal_frame(body);
  codec::wire::Reader reader(codec::ckpt::open_frame(frame));
  std::vector<tensor::Tensor> out;
  out.reserve(tensors.size());
  for (const tensor::Tensor* t : tensors) {
    out.push_back(codec::ckpt::get_tensor(reader, t->shape(), "resync"));
  }
  return out;
}

void resync_layer(const std::vector<nn::Model*>& replicas, std::size_t layer,
                  std::size_t lead, const std::vector<std::size_t>& rejoining) {
  auto& src = replicas[lead]->layer(layer);
  const tensor::Tensor* params[] = {src.weight(), src.bias()};
  const auto copy = sealed_copy(params);
  for (std::size_t j : rejoining) {
    auto& dst = replicas[j]->layer(layer);
    *dst.weight() = copy[0];
    *dst.bias() = copy[1];
  }
}

}  // namespace compso::optim
