#include "src/codec/codec.hpp"

#include <stdexcept>

namespace compso::codec {

const char* to_string(CodecKind kind) noexcept {
  switch (kind) {
    case CodecKind::kAns: return "ANS";
    case CodecKind::kBitcomp: return "Bitcomp";
    case CodecKind::kCascaded: return "Cascaded";
    case CodecKind::kDeflate: return "Deflate";
    case CodecKind::kGdeflate: return "Gdeflate";
    case CodecKind::kLz4: return "LZ4";
    case CodecKind::kSnappy: return "Snappy";
    case CodecKind::kZstd: return "Zstd";
  }
  return "?";
}

// Factories are defined in each codec's translation unit.
std::unique_ptr<Codec> make_ans_codec();
std::unique_ptr<Codec> make_bitcomp_codec();
std::unique_ptr<Codec> make_cascaded_codec();
std::unique_ptr<Codec> make_deflate_codec();
std::unique_ptr<Codec> make_gdeflate_codec();
std::unique_ptr<Codec> make_lz4_codec();
std::unique_ptr<Codec> make_snappy_codec();
std::unique_ptr<Codec> make_zstd_codec();

std::unique_ptr<Codec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::kAns: return make_ans_codec();
    case CodecKind::kBitcomp: return make_bitcomp_codec();
    case CodecKind::kCascaded: return make_cascaded_codec();
    case CodecKind::kDeflate: return make_deflate_codec();
    case CodecKind::kGdeflate: return make_gdeflate_codec();
    case CodecKind::kLz4: return make_lz4_codec();
    case CodecKind::kSnappy: return make_snappy_codec();
    case CodecKind::kZstd: return make_zstd_codec();
  }
  throw std::invalid_argument("make_codec: unknown kind");
}

std::unique_ptr<Codec> make_codec(std::string_view name) {
  for (CodecKind k : kAllCodecKinds) {
    if (name == to_string(k)) return make_codec(k);
  }
  throw std::invalid_argument("make_codec: unknown codec name: " +
                              std::string(name));
}

}  // namespace compso::codec
