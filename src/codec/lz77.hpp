#pragma once
// Shared LZ77 match-finding engine. Deflate, Gdeflate, LZ4, Snappy, and the
// Zstd-like codec all parse input into (literal-run, match) tokens with
// this engine, differing in window size, match effort, and entropy backend.

#include "src/codec/codec.hpp"

namespace compso::codec {

/// One parsed token: `literal_len` literals starting at `literal_start`,
/// followed by a back-reference of `match_len` bytes at `distance`
/// (match_len == 0 for the trailing literal-only token).
struct Lz77Token {
  std::uint32_t literal_start = 0;
  std::uint32_t literal_len = 0;
  std::uint32_t match_len = 0;
  std::uint32_t distance = 0;
};

struct Lz77Params {
  std::uint32_t window = 1U << 15;   ///< max back-reference distance.
  std::uint32_t min_match = 4;
  std::uint32_t max_match = 1U << 16;
  std::uint32_t max_chain = 16;      ///< hash-chain probes per position.
  bool lazy = false;                 ///< one-step lazy matching (zstd-like).
};

/// Greedy (optionally lazy) hash-chain parse.
std::vector<Lz77Token> lz77_parse(ByteView input, const Lz77Params& params);

/// Splits a parse into the two streams entropy coders consume: the literal
/// bytes and a byte-serialized token stream (lengths/distances varint'd).
struct Lz77Streams {
  Bytes literals;
  Bytes tokens;  ///< varint [literal_len, match_len, distance] triples.
  std::size_t token_count = 0;
};
Lz77Streams lz77_serialize(ByteView input,
                           std::span<const Lz77Token> tokens);
/// Inverse of lz77_serialize (needs the original size for allocation).
Bytes lz77_deserialize(ByteView literals, ByteView tokens,
                       std::size_t output_size);

}  // namespace compso::codec
