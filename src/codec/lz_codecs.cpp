// Dictionary-based codecs built on the shared LZ77 engine:
//   Deflate  = LZ77 (32 KiB window) + Huffman on literal & token streams.
//   Gdeflate = Deflate variant tuned for GPU: larger independent blocks /
//              deeper chains (higher ratio, same entropy stage).
//   LZ4      = LZ77 + raw byte-oriented token format (no entropy stage).
//   Snappy   = LZ77 with a shorter window and cheaper matching, raw format.
//   Zstd     = lazy LZ77 (128 KiB window) + rANS entropy stage.
//
// Their cost profiles encode why the paper measures all of them slow on
// GPU relative to ANS/Bitcomp: hash-chain match finding is serial and
// branchy (low parallel_fraction, poor coalescing).

#include "src/codec/ans.hpp"
#include "src/codec/codec.hpp"
#include "src/codec/huffman.hpp"
#include "src/codec/lz77.hpp"

#include <stdexcept>

namespace compso::codec {
namespace {

void append_sized(Bytes& out, const Bytes& blob) {
  wire::put_u64(out, blob.size());
  out.insert(out.end(), blob.begin(), blob.end());
}

ByteView read_sized(ByteView in, std::size_t& pos) {
  const std::uint64_t n = wire::get_u64(in, pos);
  pos += 8;
  if (n > in.size() - pos) throw PayloadError("codec: truncated blob");
  ByteView v = in.subspan(pos, n);
  pos += n;
  return v;
}

enum class Entropy { kNone, kHuffman, kRans };

Bytes entropy_encode(ByteView raw, Entropy e) {
  switch (e) {
    case Entropy::kNone: return Bytes(raw.begin(), raw.end());
    case Entropy::kHuffman: return huffman_encode(raw);
    case Entropy::kRans: return rans_encode(raw);
  }
  return {};
}

Bytes entropy_decode(ByteView coded, Entropy e) {
  switch (e) {
    case Entropy::kNone: return Bytes(coded.begin(), coded.end());
    case Entropy::kHuffman: return huffman_decode(coded);
    case Entropy::kRans: return rans_decode(coded);
  }
  return {};
}

/// Generic LZ codec: parse -> (literals, tokens) -> entropy stage.
class LzCodec : public Codec {
 public:
  LzCodec(std::string name, std::uint32_t magic, Lz77Params params,
          Entropy entropy, CodecCostProfile profile)
      : name_(std::move(name)),
        magic_(magic),
        params_(params),
        entropy_(entropy),
        profile_(profile) {}

  std::string_view name() const noexcept override { return name_; }

  Bytes encode(ByteView input) const override {
    Bytes out;
    wire::begin_payload(out, magic_, input.size());
    const auto tokens = lz77_parse(input, params_);
    const Lz77Streams s = lz77_serialize(input, tokens);
    const Bytes lit = entropy_encode(s.literals, entropy_);
    const Bytes tok = entropy_encode(s.tokens, entropy_);
    if (lit.size() + tok.size() + 32 >= input.size()) {
      out.push_back(0);  // stored
      out.insert(out.end(), input.begin(), input.end());
      wire::seal_payload(out);
      return out;
    }
    out.push_back(1);  // coded
    append_sized(out, lit);
    append_sized(out, tok);
    wire::seal_payload(out);
    return out;
  }

  Bytes decode(ByteView input) const override {
    const std::uint64_t size = wire::read_payload_header(input, magic_).count;
    if (input.size() < wire::kHeaderSize + 1) {
      throw PayloadError(name_ + ": truncated stream");
    }
    const std::uint8_t mode = input[wire::kHeaderSize];
    std::size_t pos = wire::kHeaderSize + 1;
    if (mode == 0) {
      ByteView body = input.subspan(pos);
      if (body.size() < size) {
        throw PayloadError(name_ + ": truncated stored block");
      }
      return Bytes(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(size));
    }
    if (mode != 1) throw PayloadError(name_ + ": unknown block mode");
    const ByteView lit_blob = read_sized(input, pos);
    const ByteView tok_blob = read_sized(input, pos);
    const Bytes literals = entropy_decode(lit_blob, entropy_);
    const Bytes tokens = entropy_decode(tok_blob, entropy_);
    return lz77_deserialize(literals, tokens, size);
  }

  CodecCostProfile cost_profile() const noexcept override { return profile_; }

 private:
  std::string name_;
  std::uint32_t magic_;
  Lz77Params params_;
  Entropy entropy_;
  CodecCostProfile profile_;
};

}  // namespace

std::unique_ptr<Codec> make_deflate_codec() {
  return std::make_unique<LzCodec>(
      "Deflate", 0x44454631U,
      Lz77Params{.window = 1U << 15, .min_match = 6, .max_match = 258,
                 .max_chain = 32, .lazy = false},
      Entropy::kHuffman,
      CodecCostProfile{.encode_passes = 3.0,
                       .decode_passes = 2.0,
                       .parallel_fraction = 0.35,
                       .flops_per_byte = 24.0,
                       .bandwidth_efficiency = 0.25});
}

std::unique_ptr<Codec> make_gdeflate_codec() {
  // GPU-oriented Deflate: deeper chains buy ratio; block-level parallelism
  // raises the parallel fraction somewhat vs. classic Deflate.
  return std::make_unique<LzCodec>(
      "Gdeflate", 0x47444546U,
      Lz77Params{.window = 1U << 16, .min_match = 6, .max_match = 258,
                 .max_chain = 48, .lazy = false},
      Entropy::kHuffman,
      CodecCostProfile{.encode_passes = 3.0,
                       .decode_passes = 1.8,
                       .parallel_fraction = 0.45,
                       .flops_per_byte = 24.0,
                       .bandwidth_efficiency = 0.28});
}

std::unique_ptr<Codec> make_lz4_codec() {
  return std::make_unique<LzCodec>(
      "LZ4", 0x4C5A3431U,
      Lz77Params{.window = 1U << 16, .min_match = 6, .max_match = 1U << 14,
                 .max_chain = 8, .lazy = false},
      Entropy::kNone,
      CodecCostProfile{.encode_passes = 1.5,
                       .decode_passes = 1.0,
                       .parallel_fraction = 0.40,
                       .flops_per_byte = 8.0,
                       .bandwidth_efficiency = 0.30});
}

std::unique_ptr<Codec> make_snappy_codec() {
  return std::make_unique<LzCodec>(
      "Snappy", 0x534E4150U,
      Lz77Params{.window = 1U << 14, .min_match = 6, .max_match = 64,
                 .max_chain = 4, .lazy = false},
      Entropy::kNone,
      CodecCostProfile{.encode_passes = 1.3,
                       .decode_passes = 1.0,
                       .parallel_fraction = 0.42,
                       .flops_per_byte = 6.0,
                       .bandwidth_efficiency = 0.32});
}

std::unique_ptr<Codec> make_zstd_codec() {
  return std::make_unique<LzCodec>(
      "Zstd", 0x5A535444U,
      Lz77Params{.window = 1U << 17, .min_match = 8, .max_match = 1U << 16,
                 .max_chain = 64, .lazy = true},
      Entropy::kRans,
      CodecCostProfile{.encode_passes = 4.0,
                       .decode_passes = 2.2,
                       .parallel_fraction = 0.30,
                       .flops_per_byte = 30.0,
                       .bandwidth_efficiency = 0.22});
}

}  // namespace compso::codec
