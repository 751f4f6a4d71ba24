#pragma once
// Gradient compressor interface and the method zoo evaluated in the paper:
// COMPSO (ours), QSGD, SZ (cuSZ's algorithm), CocktailSGD, Top-k, identity.
//
// A compressor turns an FP32 gradient buffer into a self-delimiting byte
// payload and back. Compression may be lossy; `compress` takes the Rng that
// drives stochastic rounding / random sampling so runs are reproducible.
// Each compressor also describes its GPU execution shape so gpusim can
// model (de)compression throughput (Fig. 8) under fused-CUDA or
// PyTorch-style dispatch.

#include "src/codec/codec.hpp"
#include "src/gpusim/device_model.hpp"
#include "src/tensor/rng.hpp"

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace compso::compress {

using codec::ByteView;
using codec::Bytes;

/// GPU execution shape of a compressor's lossy stage + encoder.
struct GpuProfile {
  std::size_t stages = 3;               ///< logical pipeline stages.
  double flops_per_byte = 4.0;
  double bandwidth_efficiency = 0.8;    ///< divergence / atomics / lookups.
  gpusim::Dispatch dispatch = gpusim::Dispatch::kFusedKernel;
  std::size_t framework_ops_per_stage = 4;
  double memory_passes = 1.0;           ///< input sweeps even when fused.
};

class GradientCompressor {
 public:
  virtual ~GradientCompressor() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Compresses `values`; the payload embeds everything needed to decode.
  virtual Bytes compress(std::span<const float> values,
                         tensor::Rng& rng) const = 0;

  /// Decompresses a payload produced by this compressor. Payloads are
  /// wire-format v1 frames (see DESIGN.md "Payload format v1"): the header
  /// (magic, version, CRC) and every embedded length/width field are
  /// validated before any allocation; malformed or corrupted input throws
  /// compso::PayloadError and never reads out of bounds.
  virtual std::vector<float> decompress(ByteView payload) const = 0;

  /// compress() into a caller-owned buffer: `out` is cleared and refilled
  /// with the identical payload bytes, reusing its capacity. The fused
  /// COMPSO path overrides this to make steady-state compression
  /// allocation-free; the default delegates to compress().
  virtual void compress_into(std::span<const float> values, tensor::Rng& rng,
                             Bytes& out) const {
    out = compress(values, rng);
  }

  /// decompress() into a caller-owned buffer (same values; capacity
  /// reused). Default delegates to decompress().
  virtual void decompress_into(ByteView payload,
                               std::vector<float>& out) const {
    out = decompress(payload);
  }

  /// GPU execution shape (see GpuProfile).
  virtual GpuProfile gpu_profile() const noexcept = 0;

  /// Stream-aware compress_into. A *stream* names one logical payload
  /// slot that persists across steps — DistSgd uses slot*world+rank,
  /// DistKfac's gather path uses (owner rank, first owned slot) — so
  /// stateful compressors (error-feedback residuals, sketch seed
  /// counters) can key their cross-step state without caring which pool
  /// thread runs the task. Stateless compressors ignore the stream and
  /// delegate to compress_into. Concurrent calls on *distinct* streams
  /// must be safe; calls on the same stream are serialized by the step
  /// graph (one compute task per stream per step).
  virtual void compress_stream_into(std::uint64_t stream,
                                    std::span<const float> values,
                                    tensor::Rng& rng, Bytes& out) const {
    (void)stream;
    compress_into(values, rng, out);
  }

  /// Recovery-ladder hook: the payload most recently produced on
  /// `stream` was abandoned (decode-retry ladder exhausted, transport
  /// fell back to uncompressed). Stateful compressors roll back any
  /// state the abandoned compression mutated — the EF wrapper restores
  /// the pre-compress residual so gradient mass the fallback already
  /// delivered uncompressed is not re-sent next step. Default: no-op.
  virtual void notify_fallback(std::uint64_t stream) const noexcept {
    (void)stream;
  }

  /// Membership hook: drop any cross-step state held for `stream`
  /// (rank evicted, or a rejoiner resyncing from a snapshot that never
  /// saw the stream). Default: no-op.
  virtual void reset_stream(std::uint64_t stream) const noexcept {
    (void)stream;
  }

  /// Expected compressed-size ratio achieved on `values` (measured).
  double compression_ratio(std::span<const float> values,
                           tensor::Rng& rng) const;

  /// Modeled GPU compression throughput in bytes/s for an input of
  /// `input_bytes` producing `output_bytes`.
  double modeled_throughput(const gpusim::DeviceModel& dev,
                            std::size_t input_bytes,
                            std::size_t output_bytes) const noexcept;
};

/// Cross-step compressor state that must survive checkpoint save/resume.
/// ErrorFeedbackCompressor (per-stream residuals) and the sketch family
/// (per-stream seed counters) implement this alongside GradientCompressor;
/// FaultTolerantTrainer dynamic_casts its compressor and, when this
/// interface is present, checkpoints the serialized state as its own
/// versioned CKPT section ("compressor", DESIGN.md §17).
class StatefulCompressor {
 public:
  virtual ~StatefulCompressor() = default;

  /// Appends a self-delimiting versioned state blob to `out`. The
  /// encoding is deterministic (streams in sorted id order) so two
  /// bit-identical trainers serialize bit-identical state regardless of
  /// the thread interleaving that created the streams.
  virtual void serialize_state(Bytes& out) const = 0;

  /// Restores state written by serialize_state, replacing any current
  /// state. Validates the blob's magic/version and every embedded count
  /// against the remaining bytes; malformed input throws
  /// compso::PayloadError and leaves no partially-applied state behind.
  virtual void deserialize_state(codec::wire::Reader& reader) = 0;
};

/// --- concrete compressor configs ---

/// COMPSO (§4.3, Alg. 1): filter + bitmap + error-bounded SR + encoder.
struct CompsoParams {
  double filter_bound = 4e-3;     ///< eb_f, relative to abs-max; 0 disables.
  double quant_bound = 4e-3;      ///< eb_q, relative to abs-max.
  codec::CodecKind encoder = codec::CodecKind::kAns;
  bool use_filter = true;         ///< false = conservative SR-only mode.
};

std::unique_ptr<GradientCompressor> make_compso(const CompsoParams& params);

/// The pre-fusion multi-pass COMPSO pipeline (name "COMPSO-unfused"),
/// kept as the bit-exactness oracle for tests and the baseline for the
/// compressor throughput benches. For any fixed Rng state it produces
/// byte-identical payloads to make_compso's fused path.
std::unique_ptr<GradientCompressor> make_compso_reference(
    const CompsoParams& params);

/// QSGD: fixed n-bit SR quantization + Elias gamma coding.
std::unique_ptr<GradientCompressor> make_qsgd(unsigned bits);

/// SZ algorithm (cuSZ): 1-D Lorenzo prediction + RN error-bounded
/// quantization + Huffman.
std::unique_ptr<GradientCompressor> make_sz(double relative_error_bound);

/// CocktailSGD: seeded random sampling to `keep_fraction` + n-bit SR
/// quantization (shared-seed sampling means no index transmission,
/// giving the paper's constant ~20x ratio at 20% / 8-bit).
std::unique_ptr<GradientCompressor> make_cocktail(double keep_fraction,
                                                  unsigned bits);

/// Top-k magnitude sparsification with explicit indices (ablation baseline).
std::unique_ptr<GradientCompressor> make_topk(double keep_fraction);

/// Identity (no compression) — the paper's "KFAC (No Comp.)" baseline.
std::unique_ptr<GradientCompressor> make_identity();

/// Error-feedback wrapper over any compressor (DESIGN.md §17): sends
/// C(g + e), keeps e' = (g + e) - decode(C(g + e)) per stream. The
/// concrete class lives in error_feedback.hpp; this factory builds it
/// from any inner compressor (including COMPSO itself).
std::unique_ptr<GradientCompressor> make_error_feedback(
    std::unique_ptr<GradientCompressor> inner);

/// Seeded randomized-linear compressors (DESIGN.md §17): count-sketch
/// (rows × width sign-hash accumulation, mean-of-rows unbiased decode)
/// and block random projection (seeded ±1 projection, (1/m)·Aᵀy
/// unbiased reconstruction). Payload seeds are counter-derived per
/// stream, so parallel payloads are bit-identical to serial and the
/// counters survive checkpoint resume. Declared in sketch.hpp.
std::unique_ptr<GradientCompressor> make_count_sketch(double ratio,
                                                      unsigned rows,
                                                      std::uint64_t seed);
std::unique_ptr<GradientCompressor> make_random_projection(double ratio,
                                                           std::uint64_t seed);

}  // namespace compso::compress
