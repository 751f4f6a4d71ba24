#include "src/codec/huffman.hpp"

#include "src/quant/bitpack.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace compso::codec {
namespace {

constexpr std::uint32_t kMagic = 0x48554631;  // "HUF1"
constexpr std::uint8_t kModeStored = 0;
constexpr std::uint8_t kModeCoded = 1;

struct Node {
  std::uint64_t freq;
  int sym;          // -1 for internal
  int left = -1, right = -1;
};

/// Computes code lengths with a heap-built Huffman tree.
std::array<std::uint8_t, 256> code_lengths(
    const std::array<std::uint64_t, 256>& freq) {
  std::vector<Node> nodes;
  auto cmp = [&nodes](int a, int b) {
    if (nodes[a].freq != nodes[b].freq) return nodes[a].freq > nodes[b].freq;
    return a > b;  // deterministic tie-break
  };
  std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
  for (int s = 0; s < 256; ++s) {
    if (freq[s] > 0) {
      nodes.push_back(Node{freq[s], s});
      heap.push(static_cast<int>(nodes.size()) - 1);
    }
  }
  std::array<std::uint8_t, 256> lengths{};
  if (nodes.empty()) return lengths;
  if (nodes.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].sym)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const int a = heap.top(); heap.pop();
    const int b = heap.top(); heap.pop();
    nodes.push_back(Node{nodes[a].freq + nodes[b].freq, -1, a, b});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  // DFS to assign depths.
  struct Item { int node; std::uint8_t depth; };
  std::vector<Item> stack{{heap.top(), 0}};
  while (!stack.empty()) {
    const Item it = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(it.node)];
    if (n.sym >= 0) {
      lengths[static_cast<std::size_t>(n.sym)] = std::max<std::uint8_t>(it.depth, 1);
    } else {
      stack.push_back({n.left, static_cast<std::uint8_t>(it.depth + 1)});
      stack.push_back({n.right, static_cast<std::uint8_t>(it.depth + 1)});
    }
  }
  return lengths;
}

/// Canonical codes from lengths: symbols sorted by (length, value).
std::array<std::uint64_t, 256> canonical_codes(
    const std::array<std::uint8_t, 256>& lengths, std::uint8_t& max_len) {
  std::array<std::uint64_t, 256> codes{};
  max_len = 0;
  for (auto l : lengths) max_len = std::max(max_len, l);
  std::uint64_t code = 0;
  for (std::uint8_t len = 1; len <= max_len; ++len) {
    for (int s = 0; s < 256; ++s) {
      if (lengths[static_cast<std::size_t>(s)] == len) {
        codes[static_cast<std::size_t>(s)] = code++;
      }
    }
    code <<= 1;
  }
  return codes;
}

/// Reverses the low `bits` bits (we emit MSB-first codes through the
/// LSB-first BitWriter).
std::uint64_t reverse_bits(std::uint64_t v, unsigned bits) {
  std::uint64_t r = 0;
  for (unsigned i = 0; i < bits; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

}  // namespace

Bytes huffman_encode(ByteView input) {
  Bytes out;
  wire::begin_payload(out, kMagic, input.size());
  if (input.empty()) {
    out.push_back(kModeStored);
    wire::seal_payload(out);
    return out;
  }
  std::array<std::uint64_t, 256> freq{};
  for (std::uint8_t b : input) ++freq[b];
  const auto lengths = code_lengths(freq);
  std::uint8_t max_len = 0;
  const auto codes = canonical_codes(lengths, max_len);

  // Encode into bits.
  quant::BitWriter w;
  for (std::uint8_t b : input) {
    const unsigned len = lengths[b];
    w.write(reverse_bits(codes[b], len), len);
  }
  const Bytes payload = w.take();
  if (payload.size() + 256 >= input.size()) {
    out.push_back(kModeStored);
    out.insert(out.end(), input.begin(), input.end());
    wire::seal_payload(out);
    return out;
  }
  out.push_back(kModeCoded);
  out.insert(out.end(), lengths.begin(), lengths.end());
  out.insert(out.end(), payload.begin(), payload.end());
  wire::seal_payload(out);
  return out;
}

Bytes huffman_decode(ByteView input) {
  const std::uint64_t size = wire::read_payload_header(input, kMagic).count;
  if (input.size() < wire::kHeaderSize + 1) {
    throw PayloadError("huffman: truncated stream");
  }
  const std::uint8_t mode = input[wire::kHeaderSize];
  ByteView body = input.subspan(wire::kHeaderSize + 1);
  if (mode == kModeStored) {
    if (body.size() < size) throw PayloadError("huffman: truncated stored block");
    return Bytes(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(size));
  }
  if (mode != kModeCoded) throw PayloadError("huffman: unknown block mode");
  if (body.size() < 256) throw PayloadError("huffman: missing table");
  // Every coded symbol consumes at least one bit of the stream.
  wire::check_expansion(size, body.size() - 256, 8, "huffman");
  std::array<std::uint8_t, 256> lengths{};
  std::copy_n(body.begin(), 256, lengths.begin());
  // Validate the (possibly corrupted) table: lengths must fit the decode
  // arrays and satisfy Kraft's inequality (sum 2^-len <= 1), or canonical
  // code assignment would overflow.
  double kraft = 0.0;
  for (auto l : lengths) {
    if (l > 60) throw PayloadError("huffman: corrupt length table");
    if (l > 0) kraft += std::ldexp(1.0, -static_cast<int>(l));
  }
  if (kraft > 1.0 + 1e-9) {
    throw PayloadError("huffman: invalid code lengths");
  }
  std::uint8_t max_len = 0;
  (void)canonical_codes(lengths, max_len);

  // Canonical decode tables: first code and first symbol index per length.
  std::array<std::uint64_t, 65> first_code{};
  std::array<std::uint32_t, 65> first_index{};
  std::vector<std::uint8_t> sorted_syms;
  {
    std::uint64_t code = 0;
    std::uint32_t index = 0;
    for (std::uint8_t len = 1; len <= max_len; ++len) {
      first_code[len] = code;
      first_index[len] = index;
      for (int s = 0; s < 256; ++s) {
        if (lengths[static_cast<std::size_t>(s)] == len) {
          sorted_syms.push_back(static_cast<std::uint8_t>(s));
          ++code;
          ++index;
        }
      }
      code <<= 1;
    }
  }
  std::array<std::uint32_t, 65> count_at_len{};
  for (auto l : lengths) if (l) ++count_at_len[l];

  quant::BitReader r(body.subspan(256));
  Bytes out;
  out.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) {
    std::uint64_t code = 0;
    std::uint8_t len = 0;
    while (len < max_len) {
      code = (code << 1) | r.read(1);
      ++len;
      if (count_at_len[len] > 0 &&
          code < first_code[len] + count_at_len[len] && code >= first_code[len]) {
        out.push_back(sorted_syms[first_index[len] + (code - first_code[len])]);
        break;
      }
    }
    if (len == max_len && out.size() != i + 1) {
      throw PayloadError("huffman: invalid code in stream");
    }
  }
  return out;
}

double byte_entropy(ByteView input) noexcept {
  if (input.empty()) return 0.0;
  std::array<std::uint64_t, 256> freq{};
  for (std::uint8_t b : input) ++freq[b];
  double h = 0.0;
  const double n = static_cast<double>(input.size());
  for (auto f : freq) {
    if (f == 0) continue;
    const double p = static_cast<double>(f) / n;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace compso::codec
