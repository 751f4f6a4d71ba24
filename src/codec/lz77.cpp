#include "src/codec/lz77.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace compso::codec {
namespace {

constexpr std::uint32_t kHashBits = 15;
constexpr std::uint32_t kHashSize = 1U << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761U) >> (32 - kHashBits);
}

std::uint32_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                           std::uint32_t max_len) noexcept {
  std::uint32_t n = 0;
  while (n < max_len && a[n] == b[n]) ++n;
  return n;
}

void append_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t read_varint(ByteView in, std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (pos < in.size()) {
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return v;
    shift += 7;
    if (shift > 63) break;
  }
  throw PayloadError("lz77: truncated varint");
}

struct Matcher {
  explicit Matcher(ByteView input)
      : data(input.data()), size(static_cast<std::uint32_t>(input.size())) {
    head.assign(kHashSize, kNone);
  }

  static constexpr std::uint32_t kNone = 0xFFFFFFFFU;

  /// Finds the best match at `pos`; returns length 0 when none.
  void find(std::uint32_t pos, const Lz77Params& p, std::uint32_t& best_len,
            std::uint32_t& best_dist) const {
    best_len = 0;
    best_dist = 0;
    if (pos + 4 > size) return;
    std::uint32_t cand = head[hash4(data + pos)];
    std::uint32_t chain = p.max_chain;
    const std::uint32_t max_len =
        std::min<std::uint32_t>(p.max_match, size - pos);
    while (cand != kNone && chain-- > 0) {
      if (pos - cand > p.window) break;
      const std::uint32_t len = match_length(data + cand, data + pos, max_len);
      if (len > best_len) {
        best_len = len;
        best_dist = pos - cand;
        if (len >= max_len) break;
      }
      cand = prev.empty() ? kNone : prev_at(cand);
    }
    if (best_len < p.min_match) best_len = 0;
  }

  void insert(std::uint32_t pos) {
    if (pos + 4 > size) return;
    const std::uint32_t h = hash4(data + pos);
    if (prev.empty()) prev.assign(size, kNone);
    prev[pos] = head[h];
    head[h] = pos;
  }

  std::uint32_t prev_at(std::uint32_t pos) const { return prev[pos]; }

  const std::uint8_t* data;
  std::uint32_t size;
  std::vector<std::uint32_t> head;
  mutable std::vector<std::uint32_t> prev;
};

}  // namespace

std::vector<Lz77Token> lz77_parse(ByteView input, const Lz77Params& params) {
  std::vector<Lz77Token> tokens;
  if (input.empty()) return tokens;
  Matcher m(input);
  const auto n = static_cast<std::uint32_t>(input.size());
  std::uint32_t pos = 0;
  std::uint32_t lit_start = 0;
  while (pos < n) {
    std::uint32_t len = 0, dist = 0;
    m.find(pos, params, len, dist);
    if (params.lazy && len > 0 && pos + 1 < n) {
      // One-step lazy: prefer a strictly longer match at pos+1.
      std::uint32_t len2 = 0, dist2 = 0;
      m.insert(pos);
      m.find(pos + 1, params, len2, dist2);
      if (len2 > len + 1) {
        ++pos;  // emit current byte as literal, take the later match
        len = len2;
        dist = dist2;
      }
    } else if (len > 0) {
      m.insert(pos);
    }
    if (len == 0) {
      m.insert(pos);
      ++pos;
      continue;
    }
    tokens.push_back(Lz77Token{.literal_start = lit_start,
                               .literal_len = pos - lit_start,
                               .match_len = len,
                               .distance = dist});
    // Insert hash entries inside the match (sparsely, for speed).
    const std::uint32_t end = pos + len;
    for (std::uint32_t i = pos + 1; i < end && i + 4 <= n; i += 3) m.insert(i);
    pos = end;
    lit_start = pos;
  }
  if (lit_start < n || tokens.empty()) {
    tokens.push_back(Lz77Token{.literal_start = lit_start,
                               .literal_len = n - lit_start,
                               .match_len = 0,
                               .distance = 0});
  }
  return tokens;
}

Lz77Streams lz77_serialize(ByteView input,
                           std::span<const Lz77Token> tokens) {
  Lz77Streams s;
  s.token_count = tokens.size();
  for (const auto& t : tokens) {
    s.literals.insert(
        s.literals.end(),
        input.begin() + static_cast<std::ptrdiff_t>(t.literal_start),
        input.begin() +
            static_cast<std::ptrdiff_t>(t.literal_start + t.literal_len));
    append_varint(s.tokens, t.literal_len);
    append_varint(s.tokens, t.match_len);
    if (t.match_len > 0) append_varint(s.tokens, t.distance);
  }
  return s;
}

Bytes lz77_deserialize(ByteView literals, ByteView tokens,
                       std::size_t output_size) {
  Bytes out;
  out.reserve(std::min<std::size_t>(output_size, std::size_t{1} << 22));
  std::size_t lit_pos = 0;
  std::size_t pos = 0;
  while (out.size() < output_size) {
    if (pos >= tokens.size()) {
      throw PayloadError("lz77: token stream underrun");
    }
    const std::uint64_t lit_len = read_varint(tokens, pos);
    const std::uint64_t match_len = read_varint(tokens, pos);
    // Bound both lengths against the remaining output before copying:
    // a corrupt varint must not grow `out` past the declared size (the
    // literal check alone also guards the u64 overflow in lit_pos + len).
    if (lit_len > output_size - out.size() ||
        match_len > output_size - out.size() - lit_len) {
      throw PayloadError("lz77: token exceeds declared output size");
    }
    if (lit_len > literals.size() - lit_pos) {
      throw PayloadError("lz77: literal stream underrun");
    }
    out.insert(out.end(),
               literals.begin() + static_cast<std::ptrdiff_t>(lit_pos),
               literals.begin() + static_cast<std::ptrdiff_t>(lit_pos + lit_len));
    lit_pos += lit_len;
    if (match_len > 0) {
      const std::uint64_t dist = read_varint(tokens, pos);
      if (dist == 0 || dist > out.size()) {
        throw PayloadError("lz77: invalid match distance");
      }
      std::size_t src = out.size() - dist;
      for (std::uint64_t i = 0; i < match_len; ++i) out.push_back(out[src + i]);
    }
  }
  if (out.size() != output_size) {
    throw PayloadError("lz77: output size mismatch");
  }
  return out;
}

}  // namespace compso::codec
