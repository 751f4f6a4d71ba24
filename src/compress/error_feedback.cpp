#include "src/compress/error_feedback.hpp"

#include "src/codec/ckpt.hpp"
#include "src/codec/wire.hpp"
#include "src/common/payload_error.hpp"

#include <cmath>
#include <utility>

namespace compso::compress {
namespace {

namespace wire = codec::wire;
namespace ckpt = codec::ckpt;

/// "EFST" little-endian — magic of the serialized residual-state blob.
constexpr std::uint32_t kStateMagic = 0x54534645U;
constexpr std::uint8_t kStateVersion = 1;

/// Ceiling on streams a state blob may claim; real trainers hold one
/// stream per (slot, rank) or per gather group, far below this.
constexpr std::uint64_t kMaxStreams = 1u << 20;

std::vector<float> read_residual_vec(wire::Reader& reader, const char* field) {
  const std::uint64_t count =
      reader.bounded_u64(wire::kMaxElementCount, field);
  if (count * sizeof(float) > reader.remaining()) {
    throw PayloadError(std::string("error-feedback state: ") + field +
                       " count exceeds remaining bytes");
  }
  std::vector<float> out(static_cast<std::size_t>(count));
  for (float& v : out) v = reader.f32();
  return out;
}

}  // namespace

ErrorFeedbackCompressor::ErrorFeedbackCompressor(
    std::unique_ptr<GradientCompressor> inner)
    : inner_(std::move(inner)) {
  name_ = "EF+" + std::string(inner_->name());
}

void ErrorFeedbackCompressor::set_inner(
    std::unique_ptr<GradientCompressor> inner) {
  const std::lock_guard<std::mutex> lock(mu_);
  inner_ = std::move(inner);
  name_ = "EF+" + std::string(inner_->name());
}

ErrorFeedbackCompressor::StreamState& ErrorFeedbackCompressor::state_locked(
    std::uint64_t stream) const {
  return streams_[stream];  // std::map: references stay valid on insert.
}

void ErrorFeedbackCompressor::compress_stream_into(
    std::uint64_t stream, std::span<const float> values, tensor::Rng& rng,
    Bytes& out) const {
  StreamState* st;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    st = &state_locked(stream);
  }
  if (st->residual.size() != values.size()) {
    // Shape changed under the stream id (fresh stream, or a layer was
    // re-partitioned): stale error is meaningless, start from zero.
    st->residual.assign(values.size(), 0.0f);
  }
  st->snapshot = st->residual;
  st->rollback_armed = true;

  thread_local std::vector<float> compensated;
  compensated.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    compensated[i] = values[i] + st->residual[i];
  }
  inner_->compress_into(compensated, rng, out);

  thread_local std::vector<float> decoded;
  inner_->decompress_into(out, decoded);
  if (decoded.size() != compensated.size()) {
    throw PayloadError(
        "error-feedback: inner compressor round-trip changed element count");
  }
  for (std::size_t i = 0; i < compensated.size(); ++i) {
    st->residual[i] = compensated[i] - decoded[i];
  }
}

void ErrorFeedbackCompressor::notify_fallback(
    std::uint64_t stream) const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = streams_.find(stream);
  if (it == streams_.end() || !it->second.rollback_armed) return;
  it->second.residual = it->second.snapshot;
  it->second.rollback_armed = false;
}

void ErrorFeedbackCompressor::reset_stream(
    std::uint64_t stream) const noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  streams_.erase(stream);
}

Bytes ErrorFeedbackCompressor::compress(std::span<const float> values,
                                        tensor::Rng& rng) const {
  Bytes out;
  compress_stream_into(kDefaultStream, values, rng, out);
  return out;
}

void ErrorFeedbackCompressor::compress_into(std::span<const float> values,
                                            tensor::Rng& rng,
                                            Bytes& out) const {
  compress_stream_into(kDefaultStream, values, rng, out);
}

std::vector<float> ErrorFeedbackCompressor::decompress(
    ByteView payload) const {
  return inner_->decompress(payload);
}

void ErrorFeedbackCompressor::decompress_into(ByteView payload,
                                              std::vector<float>& out) const {
  inner_->decompress_into(payload, out);
}

GpuProfile ErrorFeedbackCompressor::gpu_profile() const noexcept {
  GpuProfile p = inner_->gpu_profile();
  // One extra read-modify-write sweep of the input for the residual
  // add-back + update, fused into the compressor's first pass.
  p.memory_passes += 1.0;
  return p;
}

void ErrorFeedbackCompressor::serialize_state(Bytes& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Tagged body, not a nested wire frame: the enclosing CKPT frame's CRC
  // already covers these bytes; the magic + version make the blob
  // self-identifying under the per-section checkpoint fuzz.
  wire::put_u64(out, kStateMagic);
  wire::put_u8(out, kStateVersion);
  wire::put_u64(out, streams_.size());
  for (const auto& [id, st] : streams_) {  // std::map: sorted, deterministic.
    wire::put_u64(out, id);
    wire::put_u8(out, st.rollback_armed ? 1 : 0);
    ckpt::put_floats(out, st.residual);
    ckpt::put_floats(out, st.snapshot);
  }
}

void ErrorFeedbackCompressor::deserialize_state(wire::Reader& reader) {
  if (reader.u64() != kStateMagic) {
    throw PayloadError("error-feedback state: bad magic");
  }
  const std::uint8_t version = reader.u8();
  if (version != kStateVersion) {
    throw PayloadError("error-feedback state: unsupported version");
  }
  const std::uint64_t count = reader.bounded_u64(kMaxStreams, "ef streams");
  std::map<std::uint64_t, StreamState> restored;
  for (std::uint64_t s = 0; s < count; ++s) {
    const std::uint64_t id = reader.u64();
    StreamState st;
    st.rollback_armed = reader.u8() != 0;
    st.residual = read_residual_vec(reader, "ef residual");
    st.snapshot = read_residual_vec(reader, "ef snapshot");
    if (!restored.emplace(id, std::move(st)).second) {
      throw PayloadError("error-feedback state: duplicate stream id");
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  streams_ = std::move(restored);  // all-or-nothing swap.
}

std::vector<std::uint64_t> ErrorFeedbackCompressor::stream_ids() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(streams_.size());
  for (const auto& [id, st] : streams_) ids.push_back(id);
  return ids;
}

std::vector<float> ErrorFeedbackCompressor::residual(
    std::uint64_t stream) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = streams_.find(stream);
  return it == streams_.end() ? std::vector<float>{} : it->second.residual;
}

double ErrorFeedbackCompressor::residual_norm(std::uint64_t stream) const {
  double sum = 0.0;
  for (const float v : residual(stream)) {
    sum += static_cast<double>(v) * static_cast<double>(v);
  }
  return std::sqrt(sum);
}

std::unique_ptr<GradientCompressor> make_error_feedback(
    std::unique_ptr<GradientCompressor> inner) {
  return std::make_unique<ErrorFeedbackCompressor>(std::move(inner));
}

}  // namespace compso::compress
