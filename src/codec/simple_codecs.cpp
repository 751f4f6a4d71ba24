// Lightweight numeric codecs:
//   Bitcomp  = per-block (min, width) frame-of-reference bit packing.
//              One streaming pass, trivially parallel -> the highest
//              throughput / lowest ratio corner of Table 2.
//   Cascaded = RLE + delta + bit packing (nvCOMP's cascaded scheme).
//              Wins only when long runs exist; mid throughput.

#include "src/codec/codec.hpp"
#include "src/quant/bitpack.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace compso::codec {
namespace {

constexpr std::uint32_t kBitcompMagic = 0x42495443U;  // "BITC"
constexpr std::uint32_t kCascadedMagic = 0x43415343U;  // "CASC"
constexpr std::size_t kBitcompBlock = 4096;

class BitcompCodec final : public Codec {
 public:
  std::string_view name() const noexcept override { return "Bitcomp"; }

  Bytes encode(ByteView input) const override {
    Bytes out;
    wire::begin_payload(out, kBitcompMagic, input.size());
    quant::BitWriter w;
    for (std::size_t off = 0; off < input.size(); off += kBitcompBlock) {
      const std::size_t n = std::min(kBitcompBlock, input.size() - off);
      std::uint8_t lo = input[off], hi = input[off];
      for (std::size_t i = 0; i < n; ++i) {
        lo = std::min(lo, input[off + i]);
        hi = std::max(hi, input[off + i]);
      }
      const auto width = static_cast<unsigned>(
          std::bit_width(static_cast<unsigned>(hi - lo)));
      w.write(lo, 8);
      w.write(width, 4);
      if (width > 0) {
        for (std::size_t i = 0; i < n; ++i) {
          w.write(static_cast<std::uint64_t>(input[off + i] - lo), width);
        }
      }
    }
    const Bytes payload = w.take();
    if (payload.size() >= input.size()) {
      out.push_back(0);
      out.insert(out.end(), input.begin(), input.end());
    } else {
      out.push_back(1);
      out.insert(out.end(), payload.begin(), payload.end());
    }
    wire::seal_payload(out);
    return out;
  }

  Bytes decode(ByteView input) const override {
    const std::uint64_t size =
        wire::read_payload_header(input, kBitcompMagic).count;
    if (input.size() < wire::kHeaderSize + 1) {
      throw PayloadError("bitcomp: truncated stream");
    }
    const std::uint8_t mode = input[wire::kHeaderSize];
    ByteView body = input.subspan(wire::kHeaderSize + 1);
    if (mode == 0) {
      if (body.size() < size) {
        throw PayloadError("bitcomp: truncated stored block");
      }
      return Bytes(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(size));
    }
    if (mode != 1) throw PayloadError("bitcomp: unknown block mode");
    // Every block of up to 4096 output bytes costs at least 12 header bits.
    wire::check_expansion(size, body.size(), 4096, "bitcomp");
    quant::BitReader r(body);
    Bytes out;
    out.reserve(size);
    while (out.size() < size) {
      const std::size_t n = std::min(kBitcompBlock, size - out.size());
      const auto lo = static_cast<std::uint8_t>(r.read(8));
      const auto width = static_cast<unsigned>(r.read(4));
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t delta = width > 0 ? r.read(width) : 0;
        out.push_back(static_cast<std::uint8_t>(lo + delta));
      }
    }
    return out;
  }

  CodecCostProfile cost_profile() const noexcept override {
    return {.encode_passes = 1.0,
            .decode_passes = 1.0,
            .parallel_fraction = 0.99,
            .flops_per_byte = 2.0,
            .bandwidth_efficiency = 0.90};
  }
};

class CascadedCodec final : public Codec {
 public:
  std::string_view name() const noexcept override { return "Cascaded"; }

  Bytes encode(ByteView input) const override {
    Bytes out;
    wire::begin_payload(out, kCascadedMagic, input.size());
    // Stage 1: RLE.
    std::vector<std::uint8_t> values;
    std::vector<std::uint64_t> runs;
    std::size_t i = 0;
    while (i < input.size()) {
      const std::uint8_t v = input[i];
      std::size_t j = i;
      while (j < input.size() && input[j] == v) ++j;
      values.push_back(v);
      runs.push_back(j - i);
      i = j;
    }
    // Stage 2: delta on values; Stage 3: bitpack deltas and runs.
    std::vector<std::int64_t> deltas(values.size());
    std::int64_t prev = 0;
    for (std::size_t k = 0; k < values.size(); ++k) {
      deltas[k] = static_cast<std::int64_t>(values[k]) - prev;
      prev = values[k];
    }
    std::vector<std::int64_t> run_codes(runs.begin(), runs.end());
    const unsigned dbits = deltas.empty() ? 1 : quant::required_bits(deltas);
    const unsigned rbits =
        run_codes.empty() ? 1 : quant::required_bits(run_codes);
    const Bytes dpack = quant::pack_codes(deltas, dbits);
    const Bytes rpack = quant::pack_codes(run_codes, rbits);

    Bytes payload;
    wire::put_u64(payload, values.size());
    payload.push_back(static_cast<std::uint8_t>(dbits));
    payload.push_back(static_cast<std::uint8_t>(rbits));
    wire::put_u64(payload, dpack.size());
    payload.insert(payload.end(), dpack.begin(), dpack.end());
    payload.insert(payload.end(), rpack.begin(), rpack.end());

    if (payload.size() >= input.size()) {
      out.push_back(0);
      out.insert(out.end(), input.begin(), input.end());
    } else {
      out.push_back(1);
      out.insert(out.end(), payload.begin(), payload.end());
    }
    wire::seal_payload(out);
    return out;
  }

  Bytes decode(ByteView input) const override {
    const std::uint64_t size =
        wire::read_payload_header(input, kCascadedMagic).count;
    if (input.size() < wire::kHeaderSize + 1) {
      throw PayloadError("cascaded: truncated stream");
    }
    const std::uint8_t mode = input[wire::kHeaderSize];
    ByteView body = input.subspan(wire::kHeaderSize + 1);
    if (mode == 0) {
      if (body.size() < size) {
        throw PayloadError("cascaded: truncated stored block");
      }
      return Bytes(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(size));
    }
    if (mode != 1) throw PayloadError("cascaded: unknown block mode");
    std::size_t pos = 0;
    const std::uint64_t pairs = wire::get_u64(body, pos); pos += 8;
    if (pos + 2 > body.size()) throw PayloadError("cascaded: truncated");
    const unsigned dbits = body[pos++];
    const unsigned rbits = body[pos++];
    const std::uint64_t dpack_size = wire::get_u64(body, pos); pos += 8;
    if (dpack_size > body.size() - pos) {
      throw PayloadError("cascaded: truncated delta stream");
    }
    // unpack_codes bounds `pairs` against the packed streams before
    // allocating, so a hostile pair count cannot drive the vectors below.
    const auto deltas =
        quant::unpack_codes(body.subspan(pos, dpack_size), dbits, pairs);
    pos += dpack_size;
    const auto runs = quant::unpack_codes(body.subspan(pos), rbits, pairs);

    Bytes out;
    out.reserve(std::min<std::uint64_t>(size, 1ULL << 22));
    std::int64_t value = 0;
    for (std::uint64_t k = 0; k < pairs; ++k) {
      value += deltas[k];
      // RLE is unbounded expansion, so bound each run against the declared
      // output size incrementally instead of after the fact.
      if (value < 0 || value > 255 || runs[k] < 0 ||
          static_cast<std::uint64_t>(runs[k]) > size - out.size()) {
        throw PayloadError("cascaded: corrupt stream");
      }
      out.insert(out.end(), static_cast<std::size_t>(runs[k]),
                 static_cast<std::uint8_t>(value));
    }
    if (out.size() != size) {
      throw PayloadError("cascaded: size mismatch");
    }
    return out;
  }

  CodecCostProfile cost_profile() const noexcept override {
    return {.encode_passes = 2.5,
            .decode_passes = 1.5,
            .parallel_fraction = 0.85,
            .flops_per_byte = 4.0,
            .bandwidth_efficiency = 0.60};
  }
};

}  // namespace

std::unique_ptr<Codec> make_bitcomp_codec() {
  return std::make_unique<BitcompCodec>();
}
std::unique_ptr<Codec> make_cascaded_codec() {
  return std::make_unique<CascadedCodec>();
}

}  // namespace compso::codec
