#pragma once
// Checkpoint frame format v1 (DESIGN.md §9.3).
//
// A checkpoint is a single wire-format v1 frame (src/codec/wire.hpp): the
// standard 17-byte header — magic "CKPT", version, body byte count, CRC32 —
// followed by a little-endian body the owner serializes section by
// section. The CRC covers the whole frame, so a torn or bit-rotted frame
// fails loudly with PayloadError instead of resuming from silent garbage,
// and every body read goes through the bounds-checked wire::Reader.
//
// Floats are serialized by bit pattern (no text round-trip), which is what
// makes resume bit-exact: a restored run continues the identical FP32
// trajectory and RNG stream of an uninterrupted one.
//
// This lives in the codec layer (not core) because the frame is used below
// the trainer too: the optimizers ship rejoin re-sync payloads between
// replicas through the same sealed framing (DESIGN.md §14). The historical
// spelling core::ckpt:: remains valid via src/core/checkpoint.hpp.

#include "src/codec/wire.hpp"
#include "src/tensor/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace compso::codec::ckpt {

using codec::wire::ByteView;
using codec::wire::Bytes;

/// "CKPT" little-endian.
constexpr std::uint32_t kMagic = 0x54504B43U;

// --- body serialization helpers (little-endian, matching wire::Reader;
// scalars go through wire::put_u8 / put_u64 / put_f64) ---

/// [u64 count][f32 x count]
void put_floats(Bytes& out, std::span<const float> values);
void put_tensor(Bytes& out, const tensor::Tensor& t);
void put_rng(Bytes& out, const tensor::RngState& state);

std::vector<float> get_floats(codec::wire::Reader& reader, const char* field);
/// Reads a float vector and checks it against the expected tensor shape.
tensor::Tensor get_tensor(codec::wire::Reader& reader,
                          std::vector<std::size_t> shape, const char* field);
tensor::RngState get_rng(codec::wire::Reader& reader);

// --- frame + file layer ---

/// Wraps a serialized body in the v1 header and seals the CRC.
Bytes seal_frame(ByteView body);

/// Validates a frame (size, magic, version, count, CRC) and returns its
/// body view (into `frame` — keep the frame alive). Throws PayloadError.
ByteView open_frame(ByteView frame);

/// Writes bytes to `path` atomically enough for tests (tmp + rename);
/// throws std::runtime_error on I/O failure.
void write_file(const std::string& path, ByteView bytes);

/// Reads a whole file; throws std::runtime_error on I/O failure.
Bytes read_file(const std::string& path);

}  // namespace compso::codec::ckpt
