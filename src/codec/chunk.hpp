#pragma once
// Chunked framing extension (v2) of the payload wire format (DESIGN.md
// §15, "Chunked streaming pipeline").
//
// A v1 payload is sealed as one frame and must be complete before the
// first byte ships. v2 splits the *finished* payload bytes into
// fixed-size chunks, each wrapped in its own self-describing frame with
// its own CRC32, so the transport ships and validates the payload one
// round at a time and a damaged round is re-sent alone. Chunking is pure
// framing: the reassembled byte stream is bit-identical to the original
// payload, so every v1 decoder works unchanged on it.
//
// Chunk frame layout (kChunkHeaderSize = 29 bytes, all integers LE):
//
//   offset  size  field
//   0       4     magic    (u32 "CHK2"; distinct from every v1 producer)
//   4       1     version  (kChunkVersion = 2; v1 frames carry 1 here)
//   5       4     index    (u32, chunk position in [0, count))
//   9       4     count    (u32, total chunks of the payload, >= 1)
//   13      8     total    (u64, reassembled payload bytes)
//   21      4     body     (u32, this chunk's body bytes)
//   25      4     CRC32    (u32, over bytes [0, 25) chained with the body)
//   29      body  payload bytes [index * chunk_size, ... + body)
//
// Decoders validate magic, version, CRC, index continuity, and the
// cross-chunk metadata (count/total must agree across every chunk of a
// stream) before any byte reaches the reassembly buffer; all failures
// throw typed compso::PayloadError, and no header field can drive an
// allocation beyond the validated `total` ceiling.

#include "src/codec/wire.hpp"

#include <cstdint>

namespace compso::codec::chunk {

using wire::Bytes;
using wire::ByteView;

constexpr std::uint32_t kChunkMagic = 0x324B4843U;  // "CHK2"
constexpr std::uint8_t kChunkVersion = 2;
constexpr std::size_t kChunkHeaderSize = 4 + 1 + 4 + 4 + 8 + 4 + 4;

/// Hard ceiling on the chunk count a stream may claim (2^20 chunks); with
/// the payload ceiling below this bounds every cursor-side allocation.
constexpr std::uint64_t kMaxChunkCount = std::uint64_t{1} << 20;
/// Hard ceiling on the reassembled payload size a header may claim —
/// matches the v1 kMaxElementCount scale (2^32 bytes).
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 32;

/// Chunks needed for a payload of `payload_bytes` split every
/// `chunk_bytes`: ceil(payload / chunk), and 1 for an empty payload (an
/// empty contribution still occupies one wire round).
std::size_t chunk_count_for(std::size_t payload_bytes,
                            std::size_t chunk_bytes) noexcept;

/// Total wire bytes of the chunked framing of a payload: the payload
/// itself plus one kChunkHeaderSize header per chunk. This is the exact
/// reserve a producer needs — per chunk, not a per-payload slop bound.
std::size_t wire_bytes_for(std::size_t payload_bytes,
                           std::size_t chunk_bytes) noexcept;

struct ChunkHeader {
  std::uint32_t index = 0;
  std::uint32_t count = 0;
  std::uint64_t total = 0;  ///< reassembled payload bytes.
  std::uint32_t body = 0;   ///< this chunk's body bytes.
  std::uint32_t crc = 0;
};

/// Writes one sealed chunk frame for payload bytes [begin, begin + body)
/// into `out` at offset `at` (the frame occupies exactly
/// kChunkHeaderSize + body bytes, which must already be sized). Frames of
/// distinct chunks occupy disjoint ranges, so concurrent calls for
/// different `index` values are safe once `out` is sized.
void write_chunk_frame(std::uint8_t* out, ByteView payload,
                       std::size_t index, std::size_t count,
                       std::size_t begin, std::size_t body);

/// Parses and fully validates one chunk frame: size, magic, version,
/// bounds on count/total/body, and the frame CRC. The frame must be
/// exactly one chunk (kChunkHeaderSize + body bytes); trailing bytes
/// throw. Throws PayloadError on any mismatch.
ChunkHeader read_chunk_header(ByteView frame);

/// The body view (bytes after the header) of a frame already validated
/// by read_chunk_header.
ByteView chunk_body(ByteView frame) noexcept;

/// Incremental decode cursor: feed chunk frames in index order, one per
/// round; the cursor validates each against the stream metadata adopted
/// from the first chunk and appends its body to the reassembly buffer. A
/// frame that fails validation leaves the cursor unchanged, so the same
/// round can be fed again.
class Cursor {
 public:
  /// Clears the stream state; keeps the reassembly buffer's capacity
  /// (steady-state reuse across payloads never re-allocates).
  void reset() noexcept;

  /// Validates and consumes the next chunk frame. Throws PayloadError on
  /// framing damage, a duplicate chunk (index < expected), a gap
  /// (index > expected), inconsistent count/total metadata, or a body
  /// that overruns the declared payload size.
  void feed(ByteView frame);

  /// Chunks consumed so far / expected total (0 until the first feed).
  std::size_t chunks_fed() const noexcept { return next_; }
  std::size_t chunk_count() const noexcept { return count_; }
  bool started() const noexcept { return count_ != 0; }
  bool complete() const noexcept { return count_ != 0 && next_ == count_; }

  /// The reassembled payload; throws PayloadError if the stream is still
  /// mid-payload (a truncated stream must fail typed, never decode a
  /// prefix).
  ByteView payload() const;

 private:
  std::uint32_t next_ = 0;   ///< next expected chunk index.
  std::uint32_t count_ = 0;  ///< 0 = no chunk seen yet.
  std::uint64_t total_ = 0;
  Bytes payload_;
};

}  // namespace compso::codec::chunk
