// Baseline compressors the paper evaluates against (§2.4, §5):
//   QSGD        = fixed n-bit SR quantization + Elias gamma coding.
//   SZ (cuSZ)   = 1-D Lorenzo prediction + RN error-bounded quantization +
//                 Huffman coding of the prediction-error codes.
//   CocktailSGD = seeded random sampling (no index transmission thanks to
//                 the shared seed) + n-bit SR quantization.
//   Top-k       = magnitude sparsification with explicit indices.
//   Identity    = no compression.
//
// All payloads use wire format v1 (see DESIGN.md "Payload format v1"): a
// 17-byte [magic | version | count | body CRC32] header followed by the
// body documented per compressor below. Decompress validates the header,
// then reads the body through the bounds-checked wire::Reader and
// cross-checks every length field structurally before allocating.

#include "src/codec/elias.hpp"
#include "src/codec/huffman.hpp"
#include "src/compress/compressor.hpp"
#include "src/quant/quantizer.hpp"
#include "src/tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace compso::compress {
namespace {

namespace wire = codec::wire;

constexpr std::uint32_t kQsgdMagic = 0x51534744U;      // "QSGD"
constexpr std::uint32_t kSzMagic = 0x535A3031U;        // "SZ01"
constexpr std::uint32_t kCocktailMagic = 0x434B544CU;  // "CKTL"
constexpr std::uint32_t kTopKMagic = 0x544F504BU;      // "TOPK"
constexpr std::uint32_t kIdentityMagic = 0x49444E54U;  // "IDNT"

double finite_f64(wire::Reader& r, const char* who) {
  const double v = r.f64();
  if (!std::isfinite(v)) {
    throw PayloadError(std::string(who) + ": non-finite step");
  }
  return v;
}

// ---------------------------------------------------------------- QSGD --
// Body: [f64 step][Elias-gamma signed codes, to end of payload]
class QsgdCompressor final : public GradientCompressor {
 public:
  explicit QsgdCompressor(unsigned bits) : bits_(bits) {}

  std::string_view name() const noexcept override { return "QSGD"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override {
    const quant::FixedBitQuantizer q(bits_, quant::RoundingMode::kStochastic);
    const quant::QuantizedBlock block = q.quantize(values, rng);
    const Bytes coded = codec::elias_gamma_encode_signed(block.codes);
    Bytes out;
    wire::begin_payload(out, kQsgdMagic, values.size());
    wire::put_f64(out, block.step);
    out.insert(out.end(), coded.begin(), coded.end());
    wire::seal_payload(out);
    return out;
  }

  std::vector<float> decompress(ByteView payload) const override {
    const std::size_t count =
        wire::read_element_count(payload, kQsgdMagic, "QSGD");
    wire::Reader r(wire::payload_body(payload));
    const double step = finite_f64(r, "QSGD");
    // elias_gamma_decode bounds count against the stream's bit capacity
    // before allocating and throws on any corrupt/truncated code.
    const auto codes = codec::elias_gamma_decode_signed(r.rest(), count);
    std::vector<float> out(count);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = static_cast<float>(static_cast<double>(codes[i]) * step);
    }
    return out;
  }

  GpuProfile gpu_profile() const noexcept override {
    // Fused normalize+SR+encode: fewer operations than COMPSO (no filter).
    return {.stages = 2,
            .flops_per_byte = 4.0,
            .bandwidth_efficiency = 0.26,
            .dispatch = gpusim::Dispatch::kFusedKernel,
            .framework_ops_per_stage = 1,
            .memory_passes = 3.0};  // extrema, quantize, Elias encode
  }

 private:
  unsigned bits_;
};

// ------------------------------------------------------------------ SZ --
// Body: [f64 step][u64 unpredictable][u64 coded_size][Huffman codes blob]
//       [f32 raw value x unpredictable]
class SzCompressor final : public GradientCompressor {
 public:
  explicit SzCompressor(double eb) : eb_(eb) {
    if (eb_ <= 0.0) throw std::invalid_argument("SZ: error bound must be > 0");
  }

  std::string_view name() const noexcept override { return "SZ"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& /*rng*/) const override {
    const auto ex = tensor::extrema(values);
    const double range = static_cast<double>(ex.max) - ex.min;
    const double step = 2.0 * eb_ * (range > 0.0 ? range : 1.0);

    // Lorenzo: predict each value as the previous *reconstructed* value,
    // RN-quantize the prediction error into a byte-sized code; values whose
    // error exceeds the code range become "unpredictable" (escape 0) and
    // are stored raw.
    Bytes codes(values.size());
    Bytes raw;
    double prev = 0.0;
    std::size_t unpredictable = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double err = static_cast<double>(values[i]) - prev;
      const auto q = static_cast<long>(std::llround(err / step));
      if (q >= -126 && q <= 127) {
        codes[i] = static_cast<std::uint8_t>(q + 128);
        prev += static_cast<double>(q) * step;
      } else {
        codes[i] = 0;  // escape
        wire::put_f32(raw, values[i]);
        prev = values[i];
        ++unpredictable;
      }
    }
    const Bytes coded = codec::huffman_encode(codes);
    Bytes out;
    wire::begin_payload(out, kSzMagic, values.size());
    wire::put_f64(out, step);
    wire::put_u64(out, unpredictable);
    wire::put_u64(out, coded.size());
    out.insert(out.end(), coded.begin(), coded.end());
    out.insert(out.end(), raw.begin(), raw.end());
    wire::seal_payload(out);
    return out;
  }

  std::vector<float> decompress(ByteView payload) const override {
    const std::size_t count = wire::read_element_count(payload, kSzMagic, "SZ");
    wire::Reader r(wire::payload_body(payload));
    const double step = finite_f64(r, "SZ");
    const std::uint64_t unpredictable = r.bounded_u64(count, "unpredictable");
    const std::uint64_t coded_size = r.u64();
    const Bytes codes = codec::huffman_decode(r.blob(coded_size));
    if (codes.size() != count) {
      throw PayloadError("SZ: code count mismatch");
    }
    // The escape codes drive reads from the raw stream, so the stream must
    // match them exactly: as many f32s as escapes, no trailing garbage.
    const std::uint64_t escapes = static_cast<std::uint64_t>(
        std::count(codes.begin(), codes.end(), std::uint8_t{0}));
    if (escapes != unpredictable) {
      throw PayloadError("SZ: escape count disagrees with code stream");
    }
    ByteView raw = r.rest();
    if (raw.size() != wire::checked_mul(unpredictable, 4, "SZ raw stream")) {
      throw PayloadError("SZ: raw value stream size mismatch");
    }
    std::vector<float> out(count);
    double prev = 0.0;
    std::size_t raw_pos = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (codes[i] == 0) {
        float v;
        std::memcpy(&v, raw.data() + raw_pos, 4);
        prev = v;
        raw_pos += 4;
      } else {
        prev += static_cast<double>(static_cast<int>(codes[i]) - 128) * step;
      }
      out[i] = static_cast<float>(prev);
    }
    return out;
  }

  GpuProfile gpu_profile() const noexcept override {
    // cuSZ: fused prediction+quantization kernel, separate Huffman kernels;
    // prediction introduces a dependency chain lowering efficiency.
    return {.stages = 3,
            .flops_per_byte = 8.0,
            .bandwidth_efficiency = 0.10,
            .dispatch = gpusim::Dispatch::kSeparateKernels,
            .framework_ops_per_stage = 1};
  }

 private:
  double eb_;
};

// --------------------------------------------------------- CocktailSGD --
// Body: [u64 seed][f64 step][u8 bit_width][u64 sampled_count]
//       [bit-packed codes, to end of payload]
// sampled_count is redundant with (count, seed) but lets the decoder bound
// the O(count) position replay against data the packed stream attests to.
class CocktailCompressor final : public GradientCompressor {
 public:
  CocktailCompressor(double keep_fraction, unsigned bits)
      : keep_(keep_fraction), bits_(bits) {
    if (keep_ <= 0.0 || keep_ > 1.0) {
      throw std::invalid_argument("CocktailSGD: keep fraction in (0, 1]");
    }
  }

  std::string_view name() const noexcept override { return "CocktailSGD"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override {
    // Shared-seed random sampling: the seed rides in the payload, so the
    // receiver regenerates the same positions and no indices are sent.
    const std::uint64_t seed = rng();
    const auto selected = select_positions(values.size(), seed);
    std::vector<float> sampled;
    sampled.reserve(selected.size());
    for (auto i : selected) sampled.push_back(values[i]);

    const quant::FixedBitQuantizer q(bits_, quant::RoundingMode::kStochastic);
    const quant::QuantizedBlock block = q.quantize(sampled, rng);
    const Bytes packed = quant::pack_codes(block.codes, block.bit_width);

    Bytes out;
    wire::begin_payload(out, kCocktailMagic, values.size());
    wire::put_u64(out, seed);
    wire::put_f64(out, block.step);
    out.push_back(static_cast<std::uint8_t>(block.bit_width));
    wire::put_u64(out, selected.size());
    out.insert(out.end(), packed.begin(), packed.end());
    wire::seal_payload(out);
    return out;
  }

  std::vector<float> decompress(ByteView payload) const override {
    const std::size_t count =
        wire::read_element_count(payload, kCocktailMagic, "CocktailSGD");
    wire::Reader r(wire::payload_body(payload));
    const std::uint64_t seed = r.u64();
    const double step = finite_f64(r, "CocktailSGD");
    const unsigned bit_width = r.u8();
    if (bit_width == 0 || bit_width > 64) {
      throw PayloadError("CocktailSGD: bit width out of range");
    }
    const std::uint64_t sampled_count = r.bounded_u64(count, "sampled_count");
    ByteView packed = r.rest();
    // pack_codes emits exactly ceil(n * width / 8) bytes, which pins
    // sampled_count to the bytes actually present...
    if (packed.size() != (sampled_count * bit_width + 7) / 8) {
      throw PayloadError("CocktailSGD: packed code stream size mismatch");
    }
    // ...and the expected sample yield bounds the claimed element count in
    // turn (binomial count*keep concentrates tightly; 16x + slack is far
    // beyond any legitimate deviation) before the O(count) replay below.
    if (static_cast<double>(count) * keep_ >
        16.0 * static_cast<double>(sampled_count) + 65536.0) {
      throw PayloadError("CocktailSGD: element count implausible for sample");
    }
    const auto selected = select_positions(count, seed);
    if (selected.size() != sampled_count) {
      throw PayloadError("CocktailSGD: sample count disagrees with seed");
    }
    const auto codes = quant::unpack_codes(packed, bit_width, sampled_count);
    std::vector<float> out(count, 0.0F);
    for (std::size_t k = 0; k < selected.size(); ++k) {
      out[selected[k]] =
          static_cast<float>(static_cast<double>(codes[k]) * step);
    }
    return out;
  }

  GpuProfile gpu_profile() const noexcept override {
    // The paper measures CocktailSGD through PyTorch: framework dispatch
    // per op, and the sampling/top-k stage is expensive (§5.3).
    return {.stages = 3,
            .flops_per_byte = 10.0,
            .bandwidth_efficiency = 0.45,
            .dispatch = gpusim::Dispatch::kFrameworkOps,
            .framework_ops_per_stage = 2};
  }

 private:
  std::vector<std::size_t> select_positions(std::size_t n,
                                            std::uint64_t seed) const {
    // Deterministic selection of ~keep_ * n positions from the seed.
    tensor::Rng sel(seed);
    std::vector<std::size_t> out;
    out.reserve(static_cast<std::size_t>(static_cast<double>(n) * keep_) + 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (sel.uniform() < static_cast<float>(keep_)) out.push_back(i);
    }
    return out;
  }

  double keep_;
  unsigned bits_;
};

// --------------------------------------------------------------- Top-k --
// Body: [u64 k][u64 delta_blob_size][Elias-gamma index deltas]
//       [f32 value x k]
class TopKCompressor final : public GradientCompressor {
 public:
  explicit TopKCompressor(double keep_fraction) : keep_(keep_fraction) {
    if (keep_ <= 0.0 || keep_ > 1.0) {
      throw std::invalid_argument("TopK: keep fraction in (0, 1]");
    }
  }

  std::string_view name() const noexcept override { return "TopK"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& /*rng*/) const override {
    const std::size_t k = expected_k(values.size());
    std::vector<std::size_t> idx(values.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    if (k > 0) {
      std::nth_element(idx.begin(),
                       idx.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       idx.end(), [&](std::size_t a, std::size_t b) {
                         return std::fabs(values[a]) > std::fabs(values[b]);
                       });
    }
    idx.resize(k);
    std::sort(idx.begin(), idx.end());

    Bytes out;
    wire::begin_payload(out, kTopKMagic, values.size());
    wire::put_u64(out, idx.size());
    // Delta-coded indices (gamma) + raw FP32 values.
    std::vector<std::uint64_t> deltas;
    deltas.reserve(idx.size());
    std::size_t prev = 0;
    for (std::size_t i : idx) {
      deltas.push_back(i - prev + 1);
      prev = i;
    }
    const Bytes dcoded = codec::elias_gamma_encode(deltas);
    wire::put_u64(out, dcoded.size());
    out.insert(out.end(), dcoded.begin(), dcoded.end());
    for (std::size_t i : idx) wire::put_f32(out, values[i]);
    wire::seal_payload(out);
    return out;
  }

  std::vector<float> decompress(ByteView payload) const override {
    const std::size_t count =
        wire::read_element_count(payload, kTopKMagic, "TopK");
    wire::Reader r(wire::payload_body(payload));
    const std::uint64_t k = r.bounded_u64(count, "k");
    // k is fully determined by count and the configured keep fraction, so
    // a mismatch can only mean corruption.
    if (k != expected_k(count)) {
      throw PayloadError("TopK: k disagrees with element count");
    }
    const std::uint64_t dsize = r.u64();
    const auto deltas = codec::elias_gamma_decode(r.blob(dsize), k);
    ByteView raw = r.rest();
    if (raw.size() != wire::checked_mul(k, 4, "TopK value stream")) {
      throw PayloadError("TopK: value stream size mismatch");
    }
    std::vector<float> out(count, 0.0F);
    std::size_t prev = 0;
    for (std::uint64_t j = 0; j < k; ++j) {
      // Gamma deltas are >= 1 by construction; bound the running index
      // before writing so a corrupt delta cannot land outside `out`.
      const std::size_t i = prev + static_cast<std::size_t>(deltas[j]) - 1;
      if (i < prev || i >= count) {
        throw PayloadError("TopK: index out of range");
      }
      float v;
      std::memcpy(&v, raw.data() + j * 4, 4);
      out[i] = v;
      prev = i;
    }
    return out;
  }

  GpuProfile gpu_profile() const noexcept override {
    return {.stages = 3,
            .flops_per_byte = 16.0,  // selection is compute-heavy
            .bandwidth_efficiency = 0.30,
            .dispatch = gpusim::Dispatch::kSeparateKernels,
            .framework_ops_per_stage = 1};
  }

 private:
  std::size_t expected_k(std::size_t count) const noexcept {
    const auto k = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(count) * keep_));
    return std::min(k, count);
  }

  double keep_;
};

// ------------------------------------------------------------ Identity --
// Body: [f32 value x count]
class IdentityCompressor final : public GradientCompressor {
 public:
  std::string_view name() const noexcept override { return "Identity"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& /*rng*/) const override {
    Bytes out;
    wire::begin_payload(out, kIdentityMagic, values.size());
    const std::size_t header = out.size();
    out.resize(header + values.size() * 4);
    if (!values.empty()) {
      std::memcpy(out.data() + header, values.data(), values.size() * 4);
    }
    wire::seal_payload(out);
    return out;
  }

  std::vector<float> decompress(ByteView payload) const override {
    const std::size_t count =
        wire::read_element_count(payload, kIdentityMagic, "Identity");
    wire::Reader r(wire::payload_body(payload));
    ByteView raw = r.rest();
    if (raw.size() != wire::checked_mul(count, 4, "Identity stream")) {
      throw PayloadError("Identity: payload size mismatch");
    }
    std::vector<float> out(count);
    if (count > 0) {
      std::memcpy(out.data(), raw.data(), count * 4);
    }
    return out;
  }

  GpuProfile gpu_profile() const noexcept override {
    return {.stages = 1,
            .flops_per_byte = 0.0,
            .bandwidth_efficiency = 1.0,
            .dispatch = gpusim::Dispatch::kFusedKernel,
            .framework_ops_per_stage = 1};
  }
};

}  // namespace

std::unique_ptr<GradientCompressor> make_qsgd(unsigned bits) {
  return std::make_unique<QsgdCompressor>(bits);
}
std::unique_ptr<GradientCompressor> make_sz(double relative_error_bound) {
  return std::make_unique<SzCompressor>(relative_error_bound);
}
std::unique_ptr<GradientCompressor> make_cocktail(double keep_fraction,
                                                  unsigned bits) {
  return std::make_unique<CocktailCompressor>(keep_fraction, bits);
}
std::unique_ptr<GradientCompressor> make_topk(double keep_fraction) {
  return std::make_unique<TopKCompressor>(keep_fraction);
}
std::unique_ptr<GradientCompressor> make_identity() {
  return std::make_unique<IdentityCompressor>();
}

}  // namespace compso::compress
