#include "src/compress/chunked_stream.hpp"

#include <stdexcept>

namespace compso::compress {

namespace chunk = codec::chunk;

void ChunkedProducer::frame(codec::ByteView payload,
                            std::size_t chunk_bytes) {
  payload_bytes_ = payload.size();
  count_ = chunk::chunk_count_for(payload.size(), chunk_bytes);
  chunk_bytes_ = chunk_bytes == 0 ? payload.size() : chunk_bytes;
  // resize, not assign: steady state reuses capacity; the headers and
  // bodies below overwrite every byte.
  wire_.resize(chunk::wire_bytes_for(payload.size(), chunk_bytes));
  for (std::size_t k = 0; k < count_; ++k) {
    chunk::write_chunk_frame(wire_.data() + frame_offset(k), payload, k,
                             count_, k * chunk_bytes_, body_bytes(k));
  }
}

codec::ByteView ChunkedProducer::chunk(std::size_t k) const {
  if (k >= count_) {
    throw std::out_of_range("ChunkedProducer: chunk index out of range");
  }
  return codec::ByteView(wire_).subspan(
      frame_offset(k), chunk::kChunkHeaderSize + body_bytes(k));
}

}  // namespace compso::compress
