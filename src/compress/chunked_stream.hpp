#pragma once
// ChunkedProducer: turns a finished compressor payload into a sequence of
// independently-framed, independently-CRC'd chunks (codec/chunk.hpp,
// DESIGN.md §15); codec::chunk::Cursor is the receiving side.
//
// The split of labor that keeps payload bytes identical at every chunk
// size: the fused compressor still produces the payload in one pass (its
// stochastic-rounding draws and rANS backward pass are inherently
// whole-buffer, so per-slice compression would change the bytes), and
// the chunk layer frames the *finished* bytes.
//
//   ChunkedProducer p;
//   p.frame(payload, chunk_bytes);   // 0 = one chunk for the whole payload
//   ... p.chunk(k) -> wire frame for round k
//
// Steady state reuses the wire buffer's capacity: frame() sizes it to
// exactly wire_bytes_for(payload) — the payload plus one 29-byte header
// per chunk.

#include "src/codec/chunk.hpp"
#include "src/compress/compressor.hpp"

namespace compso::compress {

class ChunkedProducer {
 public:
  /// Splits `payload` every `chunk_bytes` (0 = one chunk) and writes one
  /// sealed frame (header + body + CRC) per chunk into the wire buffer.
  void frame(codec::ByteView payload, std::size_t chunk_bytes);

  std::size_t chunk_count() const noexcept { return count_; }
  /// The sealed wire frame of chunk `k` (header + body).
  codec::ByteView chunk(std::size_t k) const;

 private:
  std::size_t frame_offset(std::size_t k) const noexcept {
    // Fixed stride: every chunk before the last carries exactly
    // chunk_bytes_ of body.
    return k * (codec::chunk::kChunkHeaderSize + chunk_bytes_);
  }
  std::size_t body_bytes(std::size_t k) const noexcept {
    return k + 1 == count_ ? payload_bytes_ - k * chunk_bytes_ : chunk_bytes_;
  }

  codec::Bytes wire_;
  std::size_t payload_bytes_ = 0;
  std::size_t chunk_bytes_ = 0;
  std::size_t count_ = 0;
};

}  // namespace compso::compress
