// Seeded randomized-linear compressors (DESIGN.md §17): count-sketch and
// block random projection. See sketch.hpp for the estimator math and the
// counter-derived seed-stream scheme.
//
// Payload bodies (after the standard v1 header, whose count field is the
// original element count):
//   count-sketch: [u64 seed][u32 rows][u64 width][f32 × rows·width]
//   projection:   [u64 seed][u64 block][f32 × total_rows(count)]
// rows/width/block are redundantly embedded and cross-checked against the
// geometry this config derives from the element count — any mismatch
// (truncation, bit rot that survived the CRC, a payload from a different
// config) throws PayloadError before the float data is touched.

#include "src/compress/sketch.hpp"

#include "src/codec/ckpt.hpp"
#include "src/common/payload_error.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace compso::compress {

namespace wire = codec::wire;
namespace ckpt = codec::ckpt;

namespace sketch_detail {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::size_t count_sketch_width(std::size_t n, double ratio, unsigned rows) {
  if (n == 0) return 0;
  const double target = static_cast<double>(n) * ratio /
                        static_cast<double>(rows);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(target)));
}

std::size_t projection_rows(std::size_t block_len, double ratio) {
  if (block_len == 0) return 0;
  const double target = static_cast<double>(block_len) * ratio;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(target)));
}

}  // namespace sketch_detail

using sketch_detail::count_sketch_width;
using sketch_detail::mix64;
using sketch_detail::projection_rows;

// ------------------------------------------------------- seed counters --

std::uint64_t SketchSeedState::next_seed(std::uint64_t stream) {
  std::uint64_t counter;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    counter = counters_[stream]++;
  }
  // Three mixing rounds decorrelate (base, stream, counter) triples that
  // differ in one coordinate by one.
  return mix64(mix64(mix64(base_seed_) ^ stream) ^ counter);
}

namespace {
/// "SKST" little-endian — magic of the serialized seed-counter blob.
constexpr std::uint32_t kSeedStateMagic = 0x54534B53U;
constexpr std::uint8_t kSeedStateVersion = 1;
constexpr std::uint64_t kMaxStreams = 1u << 20;
}  // namespace

void SketchSeedState::serialize(codec::Bytes& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  wire::put_u64(out, kSeedStateMagic);
  wire::put_u8(out, kSeedStateVersion);
  wire::put_u64(out, base_seed_);
  wire::put_u64(out, counters_.size());
  for (const auto& [stream, counter] : counters_) {  // sorted → deterministic.
    wire::put_u64(out, stream);
    wire::put_u64(out, counter);
  }
}

void SketchSeedState::deserialize(wire::Reader& reader) {
  if (reader.u64() != kSeedStateMagic) {
    throw PayloadError("sketch seed state: bad magic");
  }
  if (reader.u8() != kSeedStateVersion) {
    throw PayloadError("sketch seed state: unsupported version");
  }
  const std::uint64_t base = reader.u64();
  const std::uint64_t count =
      reader.bounded_u64(kMaxStreams, "sketch seed streams");
  if (count * 16 > reader.remaining()) {
    throw PayloadError("sketch seed state: stream count exceeds body");
  }
  std::map<std::uint64_t, std::uint64_t> restored;
  for (std::uint64_t s = 0; s < count; ++s) {
    const std::uint64_t stream = reader.u64();
    const std::uint64_t counter = reader.u64();
    if (!restored.emplace(stream, counter).second) {
      throw PayloadError("sketch seed state: duplicate stream id");
    }
  }
  const std::lock_guard<std::mutex> lock(mu_);
  base_seed_ = base;
  counters_ = std::move(restored);
}

void SketchSeedState::erase(std::uint64_t stream) {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.erase(stream);
}

namespace {

constexpr std::uint32_t kCountSketchMagic = 0x534B4348U;  // "SKCH"
constexpr std::uint32_t kProjectionMagic = 0x534B504AU;   // "SKPJ"

// -------------------------------------------------------- count-sketch --
class CountSketchCompressor final : public GradientCompressor,
                                    public StatefulCompressor {
 public:
  CountSketchCompressor(double ratio, unsigned rows, std::uint64_t seed)
      : ratio_(ratio), rows_(rows), seeds_(seed) {}

  std::string_view name() const noexcept override { return "CountSketch"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override {
    Bytes out;
    compress_stream_into(0, values, rng, out);
    return out;
  }

  void compress_into(std::span<const float> values, tensor::Rng& rng,
                     Bytes& out) const override {
    compress_stream_into(0, values, rng, out);
  }

  void compress_stream_into(std::uint64_t stream,
                            std::span<const float> values, tensor::Rng& rng,
                            Bytes& out) const override {
    (void)rng;  // randomness is counter-derived, never drawn from the Rng.
    const std::uint64_t seed = seeds_.next_seed(stream);
    const std::size_t n = values.size();
    const std::size_t w = count_sketch_width(n, ratio_, rows_);
    out.clear();
    wire::begin_payload(out, kCountSketchMagic, n);
    wire::put_u64(out, seed);
    wire::put_u32(out, rows_);
    wire::put_u64(out, w);
    thread_local std::vector<float> sketch;
    sketch.assign(static_cast<std::size_t>(rows_) * w, 0.0f);
    for (unsigned r = 0; r < rows_; ++r) {
      const std::uint64_t row_seed = mix64(seed ^ (r + 1));
      float* row = sketch.data() + static_cast<std::size_t>(r) * w;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h = mix64(row_seed ^ i);
        const std::size_t bucket = static_cast<std::size_t>(h % w);
        const float sign = (h >> 63) ? -1.0f : 1.0f;
        row[bucket] += sign * values[i];
      }
    }
    for (const float v : sketch) wire::put_f32(out, v);
    wire::seal_payload(out);
  }

  std::vector<float> decompress(ByteView payload) const override {
    std::vector<float> out;
    decompress_into(payload, out);
    return out;
  }

  void decompress_into(ByteView payload,
                       std::vector<float>& out) const override {
    const std::size_t n =
        wire::read_element_count(payload, kCountSketchMagic, "CountSketch");
    wire::Reader r(wire::payload_body(payload));
    const std::uint64_t seed = r.u64();
    const std::uint32_t rows = r.u32();
    const std::uint64_t width = r.u64();
    if (rows != rows_ || width != count_sketch_width(n, ratio_, rows_)) {
      throw PayloadError("CountSketch: geometry mismatch for element count");
    }
    const std::uint64_t total = wire::checked_mul(rows, width, "CountSketch");
    if (total * sizeof(float) != r.remaining()) {
      throw PayloadError("CountSketch: sketch data size mismatch");
    }
    std::vector<float> sketch(static_cast<std::size_t>(total));
    for (float& v : sketch) v = r.f32();
    out.assign(n, 0.0f);
    if (n == 0) return;
    const float inv_rows = 1.0f / static_cast<float>(rows);
    for (std::uint32_t row = 0; row < rows; ++row) {
      const std::uint64_t row_seed = mix64(seed ^ (row + 1));
      const float* data = sketch.data() + static_cast<std::size_t>(row) * width;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h = mix64(row_seed ^ i);
        const float sign = (h >> 63) ? -1.0f : 1.0f;
        out[i] += sign * data[h % width] * inv_rows;
      }
    }
  }

  void reset_stream(std::uint64_t stream) const noexcept override {
    seeds_.erase(stream);
  }

  GpuProfile gpu_profile() const noexcept override {
    GpuProfile p;
    p.stages = 2;  // hash+scatter-add, pack.
    p.flops_per_byte = 2.0;
    p.bandwidth_efficiency = 0.55;  // scattered atomics across buckets.
    p.memory_passes = static_cast<double>(rows_);
    return p;
  }

  void serialize_state(Bytes& out) const override { seeds_.serialize(out); }
  void deserialize_state(wire::Reader& reader) override {
    seeds_.deserialize(reader);
  }

 private:
  double ratio_;
  unsigned rows_;
  mutable SketchSeedState seeds_;
};

// ---------------------------------------------------- random projection --
constexpr std::size_t kProjectionBlock = 256;

class RandomProjectionCompressor final : public GradientCompressor,
                                         public StatefulCompressor {
 public:
  RandomProjectionCompressor(double ratio, std::uint64_t seed)
      : ratio_(ratio), seeds_(seed) {}

  std::string_view name() const noexcept override { return "RandProj"; }

  Bytes compress(std::span<const float> values,
                 tensor::Rng& rng) const override {
    Bytes out;
    compress_stream_into(0, values, rng, out);
    return out;
  }

  void compress_into(std::span<const float> values, tensor::Rng& rng,
                     Bytes& out) const override {
    compress_stream_into(0, values, rng, out);
  }

  void compress_stream_into(std::uint64_t stream,
                            std::span<const float> values, tensor::Rng& rng,
                            Bytes& out) const override {
    (void)rng;  // randomness is counter-derived, never drawn from the Rng.
    const std::uint64_t seed = seeds_.next_seed(stream);
    const std::size_t n = values.size();
    out.clear();
    wire::begin_payload(out, kProjectionMagic, n);
    wire::put_u64(out, seed);
    wire::put_u64(out, kProjectionBlock);
    for (std::size_t begin = 0; begin < n; begin += kProjectionBlock) {
      const std::size_t len = std::min(kProjectionBlock, n - begin);
      const std::size_t m = projection_rows(len, ratio_);
      const std::uint64_t block_seed = mix64(seed ^ (begin + 1));
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t row_seed = mix64(block_seed ^ j);
        float acc = 0.0f;
        for (std::size_t i = 0; i < len; ++i) {
          const float sign = (mix64(row_seed ^ i) >> 63) ? -1.0f : 1.0f;
          acc += sign * values[begin + i];
        }
        wire::put_f32(out, acc);
      }
    }
    wire::seal_payload(out);
  }

  std::vector<float> decompress(ByteView payload) const override {
    std::vector<float> out;
    decompress_into(payload, out);
    return out;
  }

  void decompress_into(ByteView payload,
                       std::vector<float>& out) const override {
    const std::size_t n =
        wire::read_element_count(payload, kProjectionMagic, "RandProj");
    wire::Reader r(wire::payload_body(payload));
    const std::uint64_t seed = r.u64();
    const std::uint64_t block = r.u64();
    if (block != kProjectionBlock) {
      throw PayloadError("RandProj: block size mismatch");
    }
    if (total_rows(n) * sizeof(float) != r.remaining()) {
      throw PayloadError("RandProj: projection data size mismatch");
    }
    out.assign(n, 0.0f);
    for (std::size_t begin = 0; begin < n; begin += kProjectionBlock) {
      const std::size_t len = std::min(kProjectionBlock, n - begin);
      const std::size_t m = projection_rows(len, ratio_);
      const std::uint64_t block_seed = mix64(seed ^ (begin + 1));
      const float inv_m = 1.0f / static_cast<float>(m);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t row_seed = mix64(block_seed ^ j);
        const float y = r.f32();
        for (std::size_t i = 0; i < len; ++i) {
          const float sign = (mix64(row_seed ^ i) >> 63) ? -1.0f : 1.0f;
          out[begin + i] += sign * y * inv_m;
        }
      }
    }
  }

  void reset_stream(std::uint64_t stream) const noexcept override {
    seeds_.erase(stream);
  }

  GpuProfile gpu_profile() const noexcept override {
    GpuProfile p;
    p.stages = 2;  // blocked sign-GEMV, pack.
    p.flops_per_byte = 8.0;
    p.bandwidth_efficiency = 0.7;
    p.memory_passes = 2.0;
    return p;
  }

  void serialize_state(Bytes& out) const override { seeds_.serialize(out); }
  void deserialize_state(wire::Reader& reader) override {
    seeds_.deserialize(reader);
  }

 private:
  std::size_t total_rows(std::size_t n) const noexcept {
    std::size_t total = 0;
    for (std::size_t begin = 0; begin < n; begin += kProjectionBlock) {
      total += projection_rows(std::min(kProjectionBlock, n - begin), ratio_);
    }
    return total;
  }

  double ratio_;
  mutable SketchSeedState seeds_;
};

}  // namespace

std::unique_ptr<GradientCompressor> make_count_sketch(double ratio,
                                                      unsigned rows,
                                                      std::uint64_t seed) {
  return std::make_unique<CountSketchCompressor>(
      ratio, std::clamp(rows, 1u, 64u), seed);
}

std::unique_ptr<GradientCompressor> make_random_projection(double ratio,
                                                           std::uint64_t seed) {
  return std::make_unique<RandomProjectionCompressor>(ratio, seed);
}

}  // namespace compso::compress
