#pragma once
// Seeded randomized-linear (sketching) compressors (DESIGN.md §17), after
// "Problem-dependent convergence bounds for randomized linear gradient
// compression" (Flynn et al.): the compressed message is y = S·g for a
// random matrix S drawn fresh per payload, and the reconstruction
// ĝ = E[Sᵀ]-style unbiased estimate satisfies E[ĝ] = g.
//
//  - Count-sketch: d rows × width-w buckets; row r accumulates
//    s_r(i)·g[i] into bucket h_r(i); decode averages the d per-row
//    estimates s_r(i)·sketch[r][h_r(i)] (mean, not the classical median —
//    the mean keeps the estimator exactly unbiased, which is the property
//    the differential tests pin down).
//  - Random projection: per 256-element block, m ≈ ratio·block seeded ±1
//    rows; y = A·x on the wire, decode x̂ = (1/m)·Aᵀ·y (E[x̂] = x).
//
// Seed-stream scheme: every payload embeds its own u64 seed, derived as
// mix(base_seed, stream, counter[stream]++). Hash/sign bits then come
// from stateless per-index mixing of that seed — never from drawing the
// shared Rng sequentially — so a payload's bits depend only on (stream,
// how many payloads that stream produced before it, input values). That
// is what makes parallel payloads bit-identical to serial at any engine
// thread count, and it makes the whole randomness state checkpointable
// as one {stream → counter} map (a versioned CKPT section with typed
// PayloadError validation; see StatefulCompressor).
//
// Payloads are standard wire-format v1 frames: magic, version, element
// count, CRC32; every embedded field is validated against the remaining
// bytes and the expected geometry for the claimed element count, so a
// truncated or corrupted sketch throws PayloadError before any
// allocation.

#include "src/compress/compressor.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

namespace compso::compress {

/// Shared per-stream seed-counter state + checkpoint plumbing for both
/// sketch compressors. Concrete classes live in sketch.cpp; tests reach
/// the state through the StatefulCompressor interface.
class SketchSeedState {
 public:
  explicit SketchSeedState(std::uint64_t base_seed) noexcept
      : base_seed_(base_seed) {}

  /// Returns the payload seed for `stream` and advances its counter.
  std::uint64_t next_seed(std::uint64_t stream);

  void serialize(codec::Bytes& out) const;
  void deserialize(codec::wire::Reader& reader);
  void erase(std::uint64_t stream);

  std::uint64_t base_seed() const noexcept { return base_seed_; }

 private:
  std::uint64_t base_seed_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> counters_;  ///< stream → #payloads.
};

/// Deterministic geometry helpers, shared with the tests.
namespace sketch_detail {
/// splitmix64 finalizer — the per-index bit mixer.
std::uint64_t mix64(std::uint64_t x) noexcept;
/// Count-sketch bucket width for `n` elements at `ratio` with `rows` rows.
std::size_t count_sketch_width(std::size_t n, double ratio, unsigned rows);
/// Random-projection output rows for one `block_len`-element block.
std::size_t projection_rows(std::size_t block_len, double ratio);
}  // namespace sketch_detail

}  // namespace compso::compress
