#pragma once
// Error-feedback compression wrapper (DESIGN.md §17).
//
// Wraps any GradientCompressor C with per-stream residual accumulation:
// each step the stream sends C(g + e) and keeps e' = (g + e) - Ĉ(g + e)
// locally, so gradient mass a lossy compressor drops is re-offered next
// step instead of lost ("Error Compensated Distributed SGD Can Be
// Accelerated", Qian et al.; mxnet's 2-bit quantizer keeps the same
// residual per slot). The payload on the wire is the inner compressor's
// payload, unchanged — decompress and validation delegate — so the
// chunked pipeline, fuzz contract, and recovery ladder see a normal
// inner-format frame.
//
// Residual lifecycle (the part the recovery ladder cares about):
//  - compress_stream_into snapshots the residual before updating it;
//  - notify_fallback (decode-retry ladder exhausted, transport resent the
//    raw gradient) rolls the residual back to the snapshot, because the
//    fallback delivered the *full* gradient — keeping the post-compress
//    residual would re-send mass the peers already applied;
//  - reset_stream drops a stream's state (rank evicted / rejoiner resync);
//  - a size mismatch (layer shape changed under the stream id) resets the
//    residual to zero rather than mixing stale state into a new shape.
//
// The wrapper is a StatefulCompressor: residuals, rollback snapshots, and
// the pending-rollback flags serialize into a versioned blob that the
// trainer checkpoints, so a resume landing between a residual update and
// the next compress (or even between a compress and a late fallback)
// replays bit-exactly.

#include "src/compress/compressor.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace compso::compress {

class ErrorFeedbackCompressor final : public GradientCompressor,
                                      public StatefulCompressor {
 public:
  explicit ErrorFeedbackCompressor(std::unique_ptr<GradientCompressor> inner);

  const GradientCompressor& inner() const noexcept { return *inner_; }

  /// Swaps the inner compressor while keeping all residual state — the
  /// trainer's adaptive schedule tightens COMPSO's bounds mid-run without
  /// forgetting the error it still owes each stream.
  void set_inner(std::unique_ptr<GradientCompressor> inner);

  // --- GradientCompressor ---
  std::string_view name() const noexcept override { return name_; }
  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override;
  std::vector<float> decompress(ByteView payload) const override;
  void compress_into(std::span<const float> values, tensor::Rng& rng,
                     Bytes& out) const override;
  void decompress_into(ByteView payload, std::vector<float>& out) const override;
  void compress_stream_into(std::uint64_t stream,
                            std::span<const float> values, tensor::Rng& rng,
                            Bytes& out) const override;
  void notify_fallback(std::uint64_t stream) const noexcept override;
  void reset_stream(std::uint64_t stream) const noexcept override;
  GpuProfile gpu_profile() const noexcept override;

  // --- StatefulCompressor ---
  void serialize_state(Bytes& out) const override;
  void deserialize_state(codec::wire::Reader& reader) override;

  // --- introspection (tests / DESIGN.md §17 properties) ---
  std::vector<std::uint64_t> stream_ids() const;
  /// Copy of a stream's residual (empty if the stream has no state yet).
  std::vector<float> residual(std::uint64_t stream) const;
  /// L2 norm of a stream's residual.
  double residual_norm(std::uint64_t stream) const;

  /// Default stream used by the non-stream compress()/compress_into()
  /// entry points (single-tensor callers like compression_ratio()).
  static constexpr std::uint64_t kDefaultStream = 0;

 private:
  struct StreamState {
    std::vector<float> residual;  ///< error still owed to the wire.
    std::vector<float> snapshot;  ///< residual before the last compress.
    bool rollback_armed = false;  ///< snapshot valid until next compress.
  };

  StreamState& state_locked(std::uint64_t stream) const;

  std::unique_ptr<GradientCompressor> inner_;
  std::string name_;
  mutable std::mutex mu_;
  /// std::map: stable references under insert and deterministic
  /// (sorted-by-id) serialization order regardless of which pool thread
  /// touched which stream first.
  mutable std::map<std::uint64_t, StreamState> streams_;
};

}  // namespace compso::compress
