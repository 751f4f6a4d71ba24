// COMPSO's hybrid compressor (paper §4.3, Algorithm 1, Fig. 4a):
//
//   Step 1   filter:    |g| < eb_f * absmax  ->  0, recorded in a bitmap
//   Step 2-1 quantize:  survivors -> error-bounded SR integer codes
//   Step 2-2 bitmap:    filtered positions, packed 1 bit/element
//   Step 3   encode:    bitmap and packed codes each through the selected
//                       lossless encoder (ANS by default, Table 2)
//
// Payload layout (wire format v1, see DESIGN.md "Payload format v1"):
//   [17-byte header: magic "CSO1" | version | element count | body CRC32]
//   body: [f64 step][u8 bit_width][u8 flags]
//         flags bit 0 set => the filter ran; only then the bitmap rides:
//         [u64 survivor_count][u64 bitmap_blob_size][bitmap blob]
//         [codes blob]  (always, to end of payload)
//
// Two implementations share that wire format:
//
//   - CompsoCompressor (the production path, make_compso): the fused
//     single-pass pipeline of §4.5 / DESIGN.md §10 — blockwise extrema,
//     one filter+SR+bitmap sweep into reusable scratch, in-place codec
//     emission into the payload buffer, and a fused
//     popcount/scatter/dequantize decoder. Zero steady-state heap
//     allocations on compress once the thread-local scratch has grown.
//   - CompsoReferenceCompressor (make_compso_reference): the original
//     multi-pass pipeline, kept verbatim as the bit-exactness oracle for
//     tests and the unfused baseline for the throughput benches. The two
//     produce byte-identical payloads for the same Rng state.

#include "src/compress/compressor.hpp"
#include "src/quant/filter.hpp"
#include "src/quant/fused.hpp"
#include "src/quant/quantizer.hpp"
#include "src/tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace compso::compress {
namespace {

namespace wire = codec::wire;

constexpr std::uint32_t kMagic = 0x43534F31U;  // "CSO1"

/// Shared decode of the fixed part of the body; both implementations
/// validate identically.
struct DecodedHeader {
  std::size_t count = 0;
  double step = 0.0;
  unsigned bit_width = 1;
  bool filtered = false;
};

DecodedHeader decode_fixed_header(ByteView payload, wire::Reader& r) {
  DecodedHeader h;
  h.count = wire::read_element_count(payload, kMagic, "COMPSO");
  h.step = r.f64();
  if (!std::isfinite(h.step)) {
    throw PayloadError("COMPSO: non-finite quantization step");
  }
  h.bit_width = r.u8();
  if (h.bit_width == 0 || h.bit_width > 64) {
    throw PayloadError("COMPSO: bit width out of range");
  }
  const std::uint8_t flags = r.u8();
  if ((flags & ~1U) != 0) throw PayloadError("COMPSO: unknown flags");
  h.filtered = (flags & 1U) != 0;
  return h;
}

// ---------------------------------------------------------------------------
// Fused production path.
// ---------------------------------------------------------------------------

class CompsoCompressor final : public GradientCompressor {
 public:
  explicit CompsoCompressor(const CompsoParams& p)
      : params_(p), codec_(codec::make_codec(p.encoder)) {
    if (p.quant_bound <= 0.0) {
      throw std::invalid_argument("COMPSO: quant_bound must be > 0");
    }
  }

  std::string_view name() const noexcept override { return "COMPSO"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override {
    Bytes out;
    compress_into(values, rng, out);
    return out;
  }

  void compress_into(std::span<const float> values, tensor::Rng& rng,
                     Bytes& out) const override {
    const std::size_t n = values.size();
    const double abs_max = quant::extrema_blockwise(values).abs_max;
    quant::FusedScratch& scratch = tls_scratch();

    const quant::FusedEncodeInfo info = quant::fused_filter_quantize(
        values, params_.filter_bound, params_.quant_bound, params_.use_filter,
        abs_max, quant::RoundingMode::kStochastic, rng, scratch);
    quant::pack_scratch_codes(info, scratch);

    // Exact upper bound on the payload: fixed fields plus one codec frame
    // per blob, each at most header + mode byte + raw input (the stored
    // fallback; coded frames are smaller by construction).
    constexpr std::size_t kFrameOverhead = wire::kHeaderSize + 1;
    out.clear();
    out.reserve(wire::kHeaderSize + 10 +
                (info.filtered
                     ? 16 + kFrameOverhead + scratch.bitmap.size()
                     : 0) +
                kFrameOverhead + scratch.packed.size());

    wire::begin_payload(out, kMagic, n);
    wire::put_f64(out, info.step);
    out.push_back(static_cast<std::uint8_t>(info.bit_width));
    out.push_back(info.filtered ? 1 : 0);
    if (info.filtered) {
      wire::put_u64(out, info.survivors);
      // The bitmap blob is emitted straight into the payload; its size is
      // only known afterwards, so patch the placeholder.
      const std::size_t size_pos = out.size();
      wire::put_u64(out, 0);
      const std::size_t blob_begin = out.size();
      codec_->encode_into(scratch.bitmap, out);
      wire::store_u64(out.data() + size_pos, out.size() - blob_begin);
    }
    codec_->encode_into(scratch.packed, out);
    wire::seal_payload(out);
  }

  std::vector<float> decompress(ByteView payload) const override {
    std::vector<float> out;
    decompress_into(payload, out);
    return out;
  }

  void decompress_into(ByteView payload,
                       std::vector<float>& out) const override {
      wire::Reader r(wire::payload_body(payload));
    const DecodedHeader h = decode_fixed_header(payload, r);

    // Decoded blobs land in thread-local scratch: steady-state decompress
    // performs no heap allocation (mirrors compress_into's FusedScratch).
    thread_local Bytes bitmap_scratch;
    thread_local Bytes packed_scratch;
    std::uint64_t survivor_count = h.count;
    Bytes& bitmap = bitmap_scratch;
    Bytes& packed = packed_scratch;
    bitmap.clear();
    if (h.filtered) {
      survivor_count = r.bounded_u64(h.count, "survivor_count");
      const std::uint64_t bitmap_blob_size = r.u64();
      const ByteView bitmap_blob = r.blob(bitmap_blob_size);
      // The bitmap and packed-code blobs are independent streams, so they
      // decode in one interleaved pass (two rANS state chains in flight
      // hide the per-symbol latency). Results and the validation below
      // are identical to two sequential decodes.
      codec_->decode_pair_into(bitmap_blob, bitmap, r.rest(), packed);
      if (bitmap.size() != (h.count + 7) / 8) {
        throw PayloadError("COMPSO: bitmap size mismatch");
      }
      // The bitmap and the survivor count describe the same thing; if they
      // disagree the payload is corrupt and scatter would misalign.
      const std::size_t unfiltered =
          h.count - quant::bitmap_count_set(bitmap, h.count);
      if (unfiltered != survivor_count) {
        throw PayloadError("COMPSO: bitmap disagrees with survivor count");
      }
    } else {
      codec_->decode_into(r.rest(), packed);
    }
    // pack_codes emits exactly ceil(n * width / 8) bytes; anything else
    // means a corrupted stream (survivor_count <= 2^32 and width <= 64, so
    // the product cannot overflow).
    if (packed.size() != (survivor_count * h.bit_width + 7) / 8) {
      throw PayloadError("COMPSO: packed code stream size mismatch");
    }

    out.resize(h.count);
    if (h.filtered) {
      quant::fused_scatter_dequant(packed, h.bit_width, h.step, bitmap,
                                   static_cast<std::size_t>(survivor_count),
                                   out);
    } else {
      quant::fused_dequant(packed, h.bit_width, h.step, out);
    }
  }

  GpuProfile gpu_profile() const noexcept override {
    // Single fused kernel (filter + quantize + encode) per §4.5; slightly
    // more work than plain QSGD because the filter branch diverges and the
    // bitmap adds strided writes (lower effective bandwidth).
    return {.stages = 3,
            .flops_per_byte = 6.0,
            .bandwidth_efficiency = 0.26,
            .dispatch = gpusim::Dispatch::kFusedKernel,
            .framework_ops_per_stage = 1,
            .memory_passes = 3.5};  // extrema, filter+quantize, ANS x2
  }

 private:
  static quant::FusedScratch& tls_scratch() {
    // One scratch per thread, shared by every fused compressor instance:
    // compress_into is a single-threaded critical path per call, and the
    // thread pool runs each layer's compress on exactly one worker.
    thread_local quant::FusedScratch scratch;
    return scratch;
  }

  CompsoParams params_;
  std::unique_ptr<codec::Codec> codec_;
};

// ---------------------------------------------------------------------------
// Reference multi-pass path (the pre-fusion implementation, unchanged).
// ---------------------------------------------------------------------------

class CompsoReferenceCompressor final : public GradientCompressor {
 public:
  explicit CompsoReferenceCompressor(const CompsoParams& p,
                                     std::string_view name = "COMPSO-unfused")
      : params_(p), codec_(codec::make_codec(p.encoder)), name_(name) {
    if (p.quant_bound <= 0.0) {
      throw std::invalid_argument("COMPSO: quant_bound must be > 0");
    }
  }

  std::string_view name() const noexcept override { return name_; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override {
    const double abs_max = tensor::extrema(values).abs_max;

    // Step 1: filter (skipped in conservative SR-only mode). When the
    // filter is off there is nothing to record: no bitmap is built or
    // shipped, and the flags bit tells the decoder so.
    const bool filtered = params_.use_filter && params_.filter_bound > 0.0;
    quant::FilterResult filt;
    std::span<const float> survivors = values;
    if (filtered) {
      filt = quant::apply_filter(values, params_.filter_bound, abs_max);
      survivors = filt.survivors;
    }

    // Step 2-1: error-bounded SR on survivors.
    const quant::ErrorBoundedQuantizer q(params_.quant_bound,
                                         quant::RoundingMode::kStochastic);
    const quant::QuantizedBlock block = q.quantize(survivors, rng, abs_max);
    const Bytes packed = quant::pack_codes(block.codes, block.bit_width);

    Bytes out;
    wire::begin_payload(out, kMagic, values.size());
    wire::put_f64(out, block.step);
    out.push_back(static_cast<std::uint8_t>(block.bit_width));
    out.push_back(filtered ? 1 : 0);
    if (filtered) {
      // Step 3 (bitmap branch): lossless-encode the filter bitmap.
      const Bytes bitmap_blob = codec_->encode(filt.bitmap);
      wire::put_u64(out, survivors.size());
      wire::put_u64(out, bitmap_blob.size());
      out.insert(out.end(), bitmap_blob.begin(), bitmap_blob.end());
    }
    const Bytes codes_blob = codec_->encode(packed);
    out.insert(out.end(), codes_blob.begin(), codes_blob.end());
    wire::seal_payload(out);
    return out;
  }

  std::vector<float> decompress(ByteView payload) const override {
      wire::Reader r(wire::payload_body(payload));
    const DecodedHeader h = decode_fixed_header(payload, r);
    const std::size_t count = h.count;

    std::uint64_t survivor_count = h.count;
    Bytes bitmap;
    if (h.filtered) {
      survivor_count = r.bounded_u64(h.count, "survivor_count");
      const std::uint64_t bitmap_blob_size = r.u64();
      bitmap = codec_->decode(r.blob(bitmap_blob_size));
      if (bitmap.size() != (count + 7) / 8) {
        throw PayloadError("COMPSO: bitmap size mismatch");
      }
      std::uint64_t unfiltered = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (!quant::bitmap_get(bitmap, i)) ++unfiltered;
      }
      if (unfiltered != survivor_count) {
        throw PayloadError("COMPSO: bitmap disagrees with survivor count");
      }
    }

    const Bytes packed = codec_->decode(r.rest());
    if (packed.size() != (survivor_count * h.bit_width + 7) / 8) {
      throw PayloadError("COMPSO: packed code stream size mismatch");
    }

    const auto codes =
        quant::unpack_codes(packed, h.bit_width, survivor_count);
    std::vector<float> survivors(survivor_count);
    quant::QuantizedBlock block;
    block.codes = codes;
    block.step = h.step;
    block.bit_width = h.bit_width;
    quant::ErrorBoundedQuantizer::dequantize(block, survivors);

    if (!h.filtered) return survivors;
    std::vector<float> out(count);
    quant::scatter_survivors(bitmap, survivors, out);
    return out;
  }

  GpuProfile gpu_profile() const noexcept override {
    return {.stages = 3,
            .flops_per_byte = 6.0,
            .bandwidth_efficiency = 0.26,
            .dispatch = gpusim::Dispatch::kFusedKernel,
            .framework_ops_per_stage = 1,
            .memory_passes = 3.5};
  }

 private:
  CompsoParams params_;
  std::unique_ptr<codec::Codec> codec_;
  std::string name_;
};

}  // namespace

std::unique_ptr<GradientCompressor> make_compso(const CompsoParams& params) {
  // Quantization bounds tight enough to overflow the fused path's int32
  // code scratch (eb below ~2e-10) fall back to the multi-pass pipeline,
  // which carries codes as int64. Nothing in the training stack configures
  // such bounds; this keeps the pathological corner correct anyway.
  if (!quant::codes_fit_int32(params.quant_bound)) {
    return std::make_unique<CompsoReferenceCompressor>(params, "COMPSO");
  }
  return std::make_unique<CompsoCompressor>(params);
}

std::unique_ptr<GradientCompressor> make_compso_reference(
    const CompsoParams& params) {
  return std::make_unique<CompsoReferenceCompressor>(params);
}

}  // namespace compso::compress
