#pragma once
// Payload wire format v1 (see DESIGN.md, "Payload format v1").
//
// Every self-describing byte frame in the system — each codec's encoded
// stream and each GradientCompressor's payload — starts with the same
// 17-byte header:
//
//   offset  size  field
//   0       4     magic        (u32 LE, identifies the producer)
//   4       1     version      (kFormatVersion)
//   5       8     count        (u64 LE: element count / original byte size)
//   13      4     CRC32        (u32 LE, over the whole frame except this
//                               field: header prefix chained with the body)
//
// Decoders validate magic, version, and CRC before trusting anything else,
// then read the body through the bounds-checked `Reader` so that no
// length/width field can drive an allocation or a read past the end of the
// buffer. All validation failures throw compso::PayloadError.

#include "src/common/payload_error.hpp"

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace compso::codec::wire {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

constexpr std::uint8_t kFormatVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 1 + 8 + 4;

/// Hard ceiling on any element count a payload may claim. Payloads carrying
/// more than 2^32 elements (16 GiB of FP32) are outside anything the
/// training stack produces; rejecting them up front bounds every
/// count-driven allocation even if a corrupted count survives the CRC.
constexpr std::uint64_t kMaxElementCount = std::uint64_t{1} << 32;

// --- Little-endian fields: the one set of byte helpers every frame,
// payload and checkpoint body is written and read with. Floats travel by
// bit pattern. Reader (below) is the bounded sequential inverse of put_*.

inline void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }
inline void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
inline void put_f32(Bytes& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}
inline void put_f64(Bytes& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Overwrites the 4 / 8 bytes starting at `at` (which must exist).
inline void store_u32(std::uint8_t* at, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void store_u64(std::uint8_t* at, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// The value stored at `offset`; PayloadError when `in` ends before it.
inline std::uint32_t get_u32(ByteView in, std::size_t offset) {
  if (offset > in.size() || in.size() - offset < 4) {
    throw PayloadError("payload: truncated u32");
  }
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[offset + i]) << (8 * i);
  }
  return v;
}
inline std::uint64_t get_u64(ByteView in, std::size_t offset) {
  if (offset > in.size() || in.size() - offset < 8) {
    throw PayloadError("payload: truncated u64");
  }
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[offset + i]) << (8 * i);
  }
  return v;
}

/// IEEE CRC-32 (reflected, poly 0xEDB88320) of `data`.
std::uint32_t crc32(ByteView data) noexcept;

/// CRC-32 of the concatenation `a || b` without materializing it — frame
/// layouts that keep the CRC field between a header prefix and the body
/// (v1 payloads, v2 chunk frames) validate with zero copies.
std::uint32_t crc32_parts(ByteView a, ByteView b) noexcept;

struct PayloadHeader {
  std::uint32_t magic = 0;
  std::uint8_t version = 0;
  std::uint64_t count = 0;  ///< element count / original byte size.
  std::uint32_t crc = 0;    ///< CRC32 of the frame minus this field.
};

/// Appends a v1 header with a zeroed CRC; write the body, then seal().
void begin_payload(Bytes& out, std::uint32_t magic, std::uint64_t count);

/// Computes the frame CRC (header prefix + body) and patches it into the
/// header. Must be the last step of every encode.
void seal_payload(Bytes& out);

/// seal_payload for a frame that starts at `frame_begin` instead of 0 —
/// used when a codec stream is appended in place inside a larger payload
/// (the fused compressor's zero-copy blob assembly). The frame spans
/// [frame_begin, out.size()).
void seal_payload_at(Bytes& out, std::size_t frame_begin);

/// Parses and fully validates a header: size, magic, version, and body CRC.
/// Throws PayloadError on any mismatch.
PayloadHeader read_payload_header(ByteView payload,
                                  std::uint32_t expected_magic);

/// read_payload_header for a compressor payload whose count is an element
/// count: also rejects a count above kMaxElementCount (`who` names the
/// compressor in the error). Returns the count.
std::size_t read_element_count(ByteView payload, std::uint32_t magic,
                               const char* who);

/// The body view (everything after the header) of a size-checked payload.
ByteView payload_body(ByteView payload) noexcept;

/// Overflow-checked a * b for size computations; throws PayloadError.
std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b, const char* what);

/// Rejects decoded-size claims beyond `max_expansion` bytes of output per
/// input byte — the cheap pre-allocation guard for entropy decoders whose
/// legitimate expansion is bounded by the algorithm.
void check_expansion(std::uint64_t claimed_size, std::size_t body_bytes,
                     std::uint64_t max_expansion, const char* what);

/// Strict bounds-checked sequential reader over a payload body. Every read
/// validates against the end of the buffer and throws PayloadError instead
/// of ever touching out-of-range bytes.
class Reader {
 public:
  explicit Reader(ByteView data) noexcept : data_(data) {}

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  float f32();
  double f64();

  /// Reads a u64 and rejects values above `max`; `field` names the field in
  /// the error message.
  std::uint64_t bounded_u64(std::uint64_t max, const char* field);

  /// A length-`n` sub-blob starting at the cursor.
  ByteView blob(std::uint64_t n);

  /// Everything from the cursor to the end (consumes it).
  ByteView rest() noexcept;

 private:
  void need(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace compso::codec::wire
