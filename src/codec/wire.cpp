#include "src/codec/wire.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <string>

namespace compso::codec::wire {
namespace {

// Tables for slicing-by-8 CRC32: table[0] is the classic byte table; each
// table[j][i] advances byte i through j additional zero bytes, so eight
// lookups fold eight message bytes into the CRC per iteration with the
// identical polynomial (and therefore identical checksums) as the
// byte-at-a-time loop.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t j = 1; j < 8; ++j) {
      c = t[0][c & 0xFFU] ^ (c >> 8);
      t[j][i] = c;
    }
  }
  return t;
}

std::uint32_t crc32_update(std::uint32_t crc, ByteView data) noexcept {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      make_crc_tables();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = tables[7][lo & 0xFFU] ^ tables[6][(lo >> 8) & 0xFFU] ^
            tables[5][(lo >> 16) & 0xFFU] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xFFU] ^ tables[2][(hi >> 8) & 0xFFU] ^
            tables[1][(hi >> 16) & 0xFFU] ^ tables[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    crc = tables[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  }
  return crc;
}

/// CRC of the whole frame except the CRC field itself: the header prefix
/// (magic, version, count) chained with the body. Covering the count is
/// essential — a flipped count bit can otherwise thread through structural
/// checks on unlucky inputs (e.g. a bitmap whose final padding absorbs it).
std::uint32_t frame_crc(ByteView payload) noexcept {
  std::uint32_t crc = 0xFFFFFFFFU;
  crc = crc32_update(crc, payload.first(13));
  crc = crc32_update(crc, payload.subspan(kHeaderSize));
  return crc ^ 0xFFFFFFFFU;
}

}  // namespace

std::uint32_t crc32(ByteView data) noexcept {
  return crc32_update(0xFFFFFFFFU, data) ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_parts(ByteView a, ByteView b) noexcept {
  std::uint32_t crc = 0xFFFFFFFFU;
  crc = crc32_update(crc, a);
  crc = crc32_update(crc, b);
  return crc ^ 0xFFFFFFFFU;
}

void begin_payload(Bytes& out, std::uint32_t magic, std::uint64_t count) {
  put_u32(out, magic);
  out.push_back(kFormatVersion);
  put_u64(out, count);
  put_u32(out, 0);  // CRC placeholder, patched by seal_payload.
}

void seal_payload(Bytes& out) { seal_payload_at(out, 0); }

void seal_payload_at(Bytes& out, std::size_t frame_begin) {
  const ByteView frame(out.data() + frame_begin, out.size() - frame_begin);
  store_u32(out.data() + frame_begin + 13, frame_crc(frame));
}

PayloadHeader read_payload_header(ByteView payload,
                                  std::uint32_t expected_magic) {
  if (payload.size() < kHeaderSize) {
    throw PayloadError("payload: truncated header");
  }
  PayloadHeader h;
  h.magic = get_u32(payload, 0);
  if (h.magic != expected_magic) {
    throw PayloadError("payload: bad magic (wrong decoder for stream)");
  }
  h.version = payload[4];
  if (h.version != kFormatVersion) {
    throw PayloadError("payload: unsupported format version " +
                       std::to_string(static_cast<int>(h.version)));
  }
  h.count = get_u64(payload, 5);
  h.crc = get_u32(payload, 13);
  if (frame_crc(payload) != h.crc) {
    throw PayloadError("payload: checksum mismatch");
  }
  return h;
}

std::size_t read_element_count(ByteView payload, std::uint32_t magic,
                               const char* who) {
  const PayloadHeader h = read_payload_header(payload, magic);
  if (h.count > kMaxElementCount) {
    throw PayloadError(std::string(who) + ": element count out of range");
  }
  return static_cast<std::size_t>(h.count);
}

ByteView payload_body(ByteView payload) noexcept {
  return payload.subspan(kHeaderSize);
}

std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b, const char* what) {
  if (a != 0 && b > ~std::uint64_t{0} / a) {
    throw PayloadError(std::string(what) + ": size overflow");
  }
  return a * b;
}

void check_expansion(std::uint64_t claimed_size, std::size_t body_bytes,
                     std::uint64_t max_expansion, const char* what) {
  const std::uint64_t cap =
      checked_mul(static_cast<std::uint64_t>(body_bytes) + 1, max_expansion,
                  what);
  if (claimed_size > cap) {
    throw PayloadError(std::string(what) + ": implausible decoded size");
  }
}

void Reader::need(std::size_t n) const {
  if (n > remaining()) {
    throw PayloadError("payload: truncated body");
  }
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_, pos_);
  pos_ += 8;
  return v;
}

float Reader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, 4);
  return v;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::uint64_t Reader::bounded_u64(std::uint64_t max, const char* field) {
  const std::uint64_t v = u64();
  if (v > max) {
    throw PayloadError(std::string("payload: field '") + field +
                       "' out of range");
  }
  return v;
}

ByteView Reader::blob(std::uint64_t n) {
  if (n > remaining()) {
    throw PayloadError("payload: blob extends past end of buffer");
  }
  ByteView v = data_.subspan(pos_, static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return v;
}

ByteView Reader::rest() noexcept {
  ByteView v = data_.subspan(pos_);
  pos_ = data_.size();
  return v;
}

}  // namespace compso::codec::wire
