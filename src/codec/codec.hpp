#pragma once
// Lossless encoder interface and registry.
//
// The paper selects COMPSO's lossless stage from the eight nvCOMP codecs
// (Table 2): ANS, Bitcomp, Cascaded, Deflate, Gdeflate, LZ4, Snappy, Zstd.
// Each codec here is a real, roundtrip-correct implementation of the same
// algorithm family (see DESIGN.md for the simplifications), plus a GPU cost
// profile so the gpusim device model can estimate the GB/s columns.

#include "src/codec/wire.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace compso::codec {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Operation counts used by gpusim to model GPU (de)compression
/// throughput. `passes` = full sweeps over the input; `parallel_fraction`
/// captures how well the algorithm maps onto thousands of GPU threads
/// (dictionary matching with hash chains serializes; table-driven entropy
/// coding with per-block interleaving parallelizes).
struct CodecCostProfile {
  double encode_passes = 1.0;
  double decode_passes = 1.0;
  double parallel_fraction = 1.0;    ///< in (0, 1]; Amdahl-style.
  double flops_per_byte = 2.0;
  double bandwidth_efficiency = 1.0; ///< coalescing quality.
};

/// A lossless byte codec. encode() output is self-delimiting (it embeds the
/// original size), so decode() needs no side channel: every codec stream
/// is a wire-format v1 payload (src/codec/wire.hpp) — encoders call
/// wire::begin_payload first and wire::seal_payload last, and decoders
/// validate magic, version and CRC with wire::read_payload_header.
class Codec {
 public:
  virtual ~Codec() = default;
  virtual std::string_view name() const noexcept = 0;
  virtual Bytes encode(ByteView input) const = 0;
  virtual Bytes decode(ByteView input) const = 0;
  virtual CodecCostProfile cost_profile() const noexcept = 0;

  /// Appends the encoded stream to `out` (identical bytes to encode()).
  /// Codecs that can emit in place override this to skip the temporary
  /// buffer + copy; the default delegates to encode(). Implementations
  /// must be const-thread-safe like encode().
  virtual void encode_into(ByteView input, Bytes& out) const {
    const Bytes frame = encode(input);
    out.insert(out.end(), frame.begin(), frame.end());
  }

  /// Replaces `out` with the decoded stream (identical bytes to
  /// decode()). Codecs override this to reuse the caller's buffer across
  /// steady-state calls instead of allocating a fresh vector per decode;
  /// the default delegates to decode(). Must be const-thread-safe.
  virtual void decode_into(ByteView input, Bytes& out) const {
    out = decode(input);
  }

  /// Decodes two independent streams (identical results to two
  /// decode_into calls; `out_a` and `out_b` must be distinct buffers).
  /// Codecs whose decode is a latency-bound serial chain override this
  /// to interleave the two streams and recover ILP. Must be
  /// const-thread-safe.
  virtual void decode_pair_into(ByteView input_a, Bytes& out_a,
                                ByteView input_b, Bytes& out_b) const {
    decode_into(input_a, out_a);
    decode_into(input_b, out_b);
  }
};

/// The nvCOMP-parallel codec set of Table 2.
enum class CodecKind {
  kAns,
  kBitcomp,
  kCascaded,
  kDeflate,
  kGdeflate,
  kLz4,
  kSnappy,
  kZstd,
};

constexpr CodecKind kAllCodecKinds[] = {
    CodecKind::kAns,     CodecKind::kBitcomp, CodecKind::kCascaded,
    CodecKind::kDeflate, CodecKind::kGdeflate, CodecKind::kLz4,
    CodecKind::kSnappy,  CodecKind::kZstd,
};

const char* to_string(CodecKind kind) noexcept;

/// Creates a codec instance.
std::unique_ptr<Codec> make_codec(CodecKind kind);
/// Lookup by name ("ANS", "Bitcomp", ...); throws on unknown name.
std::unique_ptr<Codec> make_codec(std::string_view name);

}  // namespace compso::codec
