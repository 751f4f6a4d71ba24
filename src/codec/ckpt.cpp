#include "src/codec/ckpt.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace compso::codec::ckpt {

void put_floats(Bytes& out, std::span<const float> values) {
  wire::put_u64(out, values.size());
  const std::size_t at = out.size();
  out.resize(at + values.size() * sizeof(float));
  if (!values.empty()) {
    std::memcpy(out.data() + at, values.data(), values.size_bytes());
  }
}

void put_tensor(Bytes& out, const tensor::Tensor& t) {
  put_floats(out, t.span());
}

void put_rng(Bytes& out, const tensor::RngState& state) {
  for (std::uint64_t word : state.s) wire::put_u64(out, word);
  wire::put_u64(out, state.cached_normal_bits);
  wire::put_u8(out, state.has_cached_normal ? 1 : 0);
}

std::vector<float> get_floats(codec::wire::Reader& reader, const char* field) {
  const auto n = reader.bounded_u64(codec::wire::kMaxElementCount, field);
  // Bound the allocation by the bytes actually present: a corrupted count
  // that survives the CRC must fail with a typed error, not a 16 GiB
  // vector resize.
  if (n * sizeof(float) > reader.remaining()) {
    throw PayloadError(std::string("checkpoint: float count overruns body in ") +
                       field);
  }
  std::vector<float> v(n);
  for (auto& x : v) x = reader.f32();
  return v;
}

tensor::Tensor get_tensor(codec::wire::Reader& reader,
                          std::vector<std::size_t> shape, const char* field) {
  const auto n = reader.bounded_u64(codec::wire::kMaxElementCount, field);
  tensor::Tensor t(std::move(shape));
  if (n != t.size()) {
    throw PayloadError(std::string("checkpoint: tensor size mismatch in ") +
                       field);
  }
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = reader.f32();
  return t;
}

tensor::RngState get_rng(codec::wire::Reader& reader) {
  tensor::RngState state;
  for (auto& word : state.s) word = reader.u64();
  state.cached_normal_bits = static_cast<std::uint32_t>(
      reader.bounded_u64(~std::uint32_t{0}, "rng cached bits"));
  state.has_cached_normal = reader.u8() != 0;
  return state;
}

Bytes seal_frame(ByteView body) {
  Bytes frame;
  codec::wire::begin_payload(frame, kMagic, body.size());
  frame.insert(frame.end(), body.begin(), body.end());
  codec::wire::seal_payload(frame);
  return frame;
}

ByteView open_frame(ByteView frame) {
  const auto header = codec::wire::read_payload_header(frame, kMagic);
  const auto body = codec::wire::payload_body(frame);
  if (header.count != body.size()) {
    throw PayloadError("checkpoint: body size does not match header count");
  }
  return body;
}

void write_file(const std::string& path, ByteView bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + tmp);
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot rename into " + path);
  }
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  Bytes data;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    throw std::runtime_error("checkpoint: read error on " + path);
  }
  return data;
}

}  // namespace compso::codec::ckpt
