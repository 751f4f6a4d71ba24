#include "src/codec/chunk.hpp"

#include "src/common/payload_error.hpp"

#include <cstring>

namespace compso::codec::chunk {
namespace {

constexpr std::size_t kCrcOffset = kChunkHeaderSize - 4;  // CRC is last.

}  // namespace

std::size_t chunk_count_for(std::size_t payload_bytes,
                            std::size_t chunk_bytes) noexcept {
  if (chunk_bytes == 0 || payload_bytes == 0) return 1;
  return (payload_bytes + chunk_bytes - 1) / chunk_bytes;
}

std::size_t wire_bytes_for(std::size_t payload_bytes,
                           std::size_t chunk_bytes) noexcept {
  return payload_bytes +
         chunk_count_for(payload_bytes, chunk_bytes) * kChunkHeaderSize;
}

void write_chunk_frame(std::uint8_t* out, ByteView payload,
                       std::size_t index, std::size_t count,
                       std::size_t begin, std::size_t body) {
  wire::store_u32(out, kChunkMagic);
  out[4] = kChunkVersion;
  wire::store_u32(out + 5, static_cast<std::uint32_t>(index));
  wire::store_u32(out + 9, static_cast<std::uint32_t>(count));
  wire::store_u64(out + 13, payload.size());
  wire::store_u32(out + 21, static_cast<std::uint32_t>(body));
  const ByteView body_view = payload.subspan(begin, body);
  wire::store_u32(out + kCrcOffset,
                  wire::crc32_parts(ByteView(out, kCrcOffset), body_view));
  if (body != 0) {
    std::memcpy(out + kChunkHeaderSize, body_view.data(), body);
  }
}

ChunkHeader read_chunk_header(ByteView frame) {
  if (frame.size() < kChunkHeaderSize) {
    throw PayloadError("chunk: frame shorter than a chunk header");
  }
  if (wire::get_u32(frame, 0) != kChunkMagic) {
    throw PayloadError("chunk: bad chunk magic");
  }
  if (frame[4] != kChunkVersion) {
    throw PayloadError("chunk: unsupported chunk version");
  }
  ChunkHeader h;
  h.index = wire::get_u32(frame, 5);
  h.count = wire::get_u32(frame, 9);
  h.total = wire::get_u64(frame, 13);
  h.body = wire::get_u32(frame, 21);
  h.crc = wire::get_u32(frame, kCrcOffset);
  if (h.count == 0 || h.count > kMaxChunkCount) {
    throw PayloadError("chunk: chunk count out of range");
  }
  if (h.index >= h.count) {
    throw PayloadError("chunk: chunk index out of range");
  }
  if (h.total > kMaxPayloadBytes) {
    throw PayloadError("chunk: payload size out of range");
  }
  if (h.body > h.total) {
    throw PayloadError("chunk: chunk body exceeds payload size");
  }
  if (frame.size() != kChunkHeaderSize + h.body) {
    throw PayloadError("chunk: frame size does not match chunk body");
  }
  const std::uint32_t crc = wire::crc32_parts(
      frame.first(kCrcOffset), frame.subspan(kChunkHeaderSize));
  if (crc != h.crc) {
    throw PayloadError("chunk: chunk CRC mismatch");
  }
  return h;
}

ByteView chunk_body(ByteView frame) noexcept {
  return frame.subspan(kChunkHeaderSize);
}

void Cursor::reset() noexcept {
  next_ = 0;
  count_ = 0;
  total_ = 0;
  payload_.clear();
}

void Cursor::feed(ByteView frame) {
  const ChunkHeader h = read_chunk_header(frame);
  // Validate everything before adopting or appending, so a rejected frame
  // leaves the cursor as it was.
  if (count_ != 0 && (h.count != count_ || h.total != total_)) {
    throw PayloadError("chunk: inconsistent stream metadata");
  }
  if (h.index < next_) {
    throw PayloadError("chunk: duplicate chunk");
  }
  if (h.index > next_) {
    throw PayloadError("chunk: out-of-order chunk");
  }
  if (payload_.size() + h.body > h.total) {
    throw PayloadError("chunk: body overruns declared payload size");
  }
  if (h.index + 1 == h.count && payload_.size() + h.body != h.total) {
    throw PayloadError("chunk: reassembled size mismatch");
  }
  count_ = h.count;
  total_ = h.total;
  const ByteView body = chunk_body(frame);
  payload_.insert(payload_.end(), body.begin(), body.end());
  ++next_;
}

ByteView Cursor::payload() const {
  if (!complete()) {
    throw PayloadError("chunk: stream truncated mid-payload");
  }
  return ByteView(payload_);
}

}  // namespace compso::codec::chunk
