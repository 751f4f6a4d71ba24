#include "src/codec/ans.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <stdexcept>

namespace compso::codec {
namespace {

constexpr std::uint32_t kMagic = 0x414E5331;  // "ANS1"
constexpr std::uint8_t kModeStored = 0;
constexpr std::uint8_t kModeCoded = 1;
constexpr unsigned kProbBits = 12;            // frequencies sum to 4096
constexpr std::uint32_t kProbScale = 1U << kProbBits;
constexpr std::uint32_t kRansLowerBound = 1U << 23;

/// Normalizes raw counts so they sum to kProbScale with every present
/// symbol keeping frequency >= 1.
std::array<std::uint32_t, 256> normalize_freqs(
    const std::array<std::uint64_t, 256>& raw, std::uint64_t total) {
  std::array<std::uint32_t, 256> freq{};
  std::uint32_t assigned = 0;
  int last_present = -1;
  for (int s = 0; s < 256; ++s) {
    if (raw[static_cast<std::size_t>(s)] == 0) continue;
    auto f = static_cast<std::uint32_t>(
        (raw[static_cast<std::size_t>(s)] * kProbScale) / total);
    if (f == 0) f = 1;
    freq[static_cast<std::size_t>(s)] = f;
    assigned += f;
    last_present = s;
  }
  if (last_present < 0) return freq;
  // Fix the rounding drift: add any shortfall to the most frequent symbol;
  // shave any excess off the largest symbols (keeping each >= 1).
  while (assigned != kProbScale) {
    int max_sym = last_present;
    for (int s = 0; s < 256; ++s) {
      if (freq[static_cast<std::size_t>(s)] >
          freq[static_cast<std::size_t>(max_sym)]) {
        max_sym = s;
      }
    }
    auto& f = freq[static_cast<std::size_t>(max_sym)];
    if (assigned < kProbScale) {
      f += kProbScale - assigned;
      assigned = kProbScale;
    } else {
      const std::uint32_t excess = assigned - kProbScale;
      const std::uint32_t cut = std::min(excess, f - 1);
      if (cut == 0) {
        // Every symbol is already at 1: more distinct symbols than slots
        // cannot happen (256 symbols, 4096 slots).
        throw std::invalid_argument("rans: cannot normalize frequency table");
      }
      f -= cut;
      assigned -= cut;
    }
  }
  return freq;
}

}  // namespace

void rans_encode_into(ByteView input, Bytes& out) {
  const std::size_t frame_begin = out.size();
  wire::begin_payload(out, kMagic, input.size());
  if (input.empty()) {
    out.push_back(kModeStored);
    wire::seal_payload_at(out, frame_begin);
    return;
  }
  // Histogram in four independent lanes: per-byte increments on one array
  // serialize on store-forwarding; the split costs nothing to merge.
  std::array<std::uint64_t, 256> raw{};
  {
    std::array<std::uint64_t, 256> h1{}, h2{}, h3{};
    std::size_t i = 0;
    for (; i + 4 <= input.size(); i += 4) {
      ++raw[input[i]];
      ++h1[input[i + 1]];
      ++h2[input[i + 2]];
      ++h3[input[i + 3]];
    }
    for (; i < input.size(); ++i) ++raw[input[i]];
    for (int s = 0; s < 256; ++s) {
      raw[static_cast<std::size_t>(s)] += h1[static_cast<std::size_t>(s)] +
                                          h2[static_cast<std::size_t>(s)] +
                                          h3[static_cast<std::size_t>(s)];
    }
  }
  const auto freq = normalize_freqs(raw, input.size());
  std::array<std::uint32_t, 256> cum{};
  for (int s = 1; s < 256; ++s) {
    cum[static_cast<std::size_t>(s)] =
        cum[static_cast<std::size_t>(s - 1)] + freq[static_cast<std::size_t>(s - 1)];
  }

  // Per-symbol encode entries: the state transform
  //   state = ((state / f) << kProbBits) + (state % f) + cum
  // is computed divide-free via an exact fixed-point reciprocal
  // (Granlund-Montgomery round-up division, the standard rANS encoder
  // formulation): q = (state * rcp) >> (32 + shift) equals state / f for
  // every state below the renormalized range, so the emitted stream is
  // bit-identical to the plain-division form.
  struct EncSym {
    std::uint32_t x_max;      ///< renormalization threshold for this f.
    std::uint32_t rcp;        ///< fixed-point reciprocal of f.
    std::uint32_t bias;       ///< cum (plus the f==1 special-case offset).
    std::uint32_t cmpl_freq;  ///< kProbScale - f.
    std::uint32_t shift;
  };
  std::array<EncSym, 256> syms{};
  for (int s = 0; s < 256; ++s) {
    const std::uint32_t f = freq[static_cast<std::size_t>(s)];
    if (f == 0) continue;
    auto& e = syms[static_cast<std::size_t>(s)];
    e.x_max = ((kRansLowerBound >> kProbBits) << 8) * f;
    e.cmpl_freq = kProbScale - f;
    if (f < 2) {
      // f == 1: state / 1 == state, so fold the whole transform into
      // state + state * cmpl + bias with rcp = ~0 (q == state - 1).
      e.rcp = ~0U;
      e.shift = 0;
      e.bias = cum[static_cast<std::size_t>(s)] + kProbScale - 1;
    } else {
      std::uint32_t shift = 0;
      while (f > (1U << shift)) ++shift;
      e.rcp = static_cast<std::uint32_t>(
          ((std::uint64_t{1} << (shift + 31)) + f - 1) / f);
      e.shift = shift - 1;
      e.bias = cum[static_cast<std::size_t>(s)];
    }
  }

  // rANS encodes in reverse so the decoder emits in forward order. The
  // back-to-front buffer is inherent to the algorithm; reuse it across
  // calls so steady-state encodes stop allocating. Sized for the worst
  // case (12 bits per symbol plus the flushed state) so the hot loop can
  // write through a raw pointer with no capacity checks.
  thread_local Bytes payload;
  if (payload.size() < input.size() + (input.size() >> 1) + 16) {
    payload.resize(input.size() + (input.size() >> 1) + 16);
  }
  std::uint8_t* pp = payload.data();
  std::size_t pn = 0;
  std::uint32_t state = kRansLowerBound;
  for (std::size_t i = input.size(); i-- > 0;) {
    const EncSym& e = syms[input[i]];
    // Renormalize: push bytes until state fits the encode range for f.
    // state < 2^31 and x_max >= 2^19, so 0, 1, or 2 bytes — done
    // branch-free: write both candidate bytes unconditionally (the buffer
    // has slack; unconsumed slots are overwritten by later symbols) and
    // advance by the exact count. The emitted byte sequence is identical
    // to the push-while-loop form, minus its data-dependent mispredicts.
    std::uint32_t x = state;
    const unsigned c1 = x >= e.x_max;
    const unsigned c2 =
        static_cast<std::uint64_t>(x) >= (std::uint64_t{e.x_max} << 8);
    pp[pn] = static_cast<std::uint8_t>(x);
    pp[pn + 1] = static_cast<std::uint8_t>(x >> 8);
    const unsigned cnt = c1 + c2;
    pn += cnt;
    x >>= 8 * cnt;
    const auto q = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(x) * e.rcp) >> 32) >> e.shift;
    state = x + e.bias + q * e.cmpl_freq;
  }
  if (pn + 512 + 4 >= input.size()) {
    out.push_back(kModeStored);
    out.insert(out.end(), input.begin(), input.end());
    wire::seal_payload_at(out, frame_begin);
    return;
  }
  out.push_back(kModeCoded);
  out.reserve(out.size() + 512 + 4 + pn);
  for (int s = 0; s < 256; ++s) {
    const std::uint32_t f = freq[static_cast<std::size_t>(s)];
    out.push_back(static_cast<std::uint8_t>(f & 0xFF));
    out.push_back(static_cast<std::uint8_t>((f >> 8) & 0xFF));
  }
  wire::put_u32(out, state);
  // Payload was produced back-to-front; store reversed so decode reads
  // forward with push-back semantics preserved.
  out.insert(out.end(), std::make_reverse_iterator(pp + pn),
             std::make_reverse_iterator(pp));
  wire::seal_payload_at(out, frame_begin);
}

Bytes rans_encode(ByteView input) {
  Bytes out;
  rans_encode_into(input, out);
  return out;
}

namespace {

/// Per-slot decode tables: symbol, its frequency, and the slot's offset
/// within the symbol's range (slot - cum) so the hot loop does three
/// flat array reads instead of chasing freq/cum through the symbol.
struct DecSlot {
  std::uint8_t sym;
  std::uint16_t freq;
  std::uint16_t offset;  ///< slot - cum[sym], in [0, freq).
};

/// In-flight state of one coded stream: everything the per-symbol decode
/// step touches, laid out for register promotion when two streams are
/// software-interleaved.
struct DecCtx {
  const DecSlot* slots;
  const std::uint8_t* stream;
  std::size_t stream_size;
  std::size_t safe_pos;
  std::size_t pos;
  std::uint32_t state;
  std::uint8_t* dst;
  std::uint64_t size;
};

/// One decoded symbol. Away from the stream's tail, renormalization (0,
/// 1, or 2 byte pulls for a 12-bit scale) runs branch-free: both
/// candidate bytes are read up front and the exact count is folded into
/// shifts. Bytes consumed and states visited are identical to the
/// pull-while-loop form, which still runs the last two stream bytes
/// (where the speculative 2-byte read would walk off the buffer, and
/// where underrun is detected).
inline void dec_step(DecCtx& c, std::uint64_t i) {
  const DecSlot& d = c.slots[c.state & (kProbScale - 1)];
  c.dst[i] = d.sym;
  c.state =
      static_cast<std::uint32_t>(d.freq) * (c.state >> kProbBits) + d.offset;
  if (c.pos <= c.safe_pos) {
    const unsigned c1 = c.state < kRansLowerBound;
    const unsigned c2 = c.state < (kRansLowerBound >> 8);
    const unsigned cnt = c1 + c2;
    const std::uint32_t b01 =
        (static_cast<std::uint32_t>(c.stream[c.pos]) << 8) |
        c.stream[c.pos + 1];
    c.state = (c.state << (8 * cnt)) | (b01 >> (8 * (2 - cnt)));
    c.pos += cnt;
  } else {
    while (c.state < kRansLowerBound) {
      if (c.pos >= c.stream_size) throw PayloadError("rans: stream underrun");
      c.state = (c.state << 8) | c.stream[c.pos++];
    }
  }
}

/// Header/table parse and slot-table build for one stream. Returns false
/// when the stream was fully handled here (stored mode); true when `ctx`
/// is primed for dec_step over `ctx.size` symbols (out is pre-resized).
bool dec_init(ByteView input, Bytes& out, std::vector<DecSlot>& slots,
              DecCtx& ctx) {
  const std::uint64_t size = wire::read_payload_header(input, kMagic).count;
  if (input.size() < wire::kHeaderSize + 1) {
    throw PayloadError("rans: truncated stream");
  }
  const std::uint8_t mode = input[wire::kHeaderSize];
  ByteView body = input.subspan(wire::kHeaderSize + 1);
  if (mode == kModeStored) {
    if (body.size() < size) throw PayloadError("rans: truncated stored block");
    out.assign(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(size));
    return false;
  }
  if (mode != kModeCoded) throw PayloadError("rans: unknown block mode");
  if (body.size() < 512 + 4) throw PayloadError("rans: missing table");
  // A coded symbol consumes at least log2(4096/4095) bits, so legitimate
  // streams never expand past ~2842x; reject bigger claims before the
  // output allocation.
  wire::check_expansion(size, body.size(), 4096, "rans");
  std::array<std::uint32_t, 256> freq{};
  for (int s = 0; s < 256; ++s) {
    freq[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(body[static_cast<std::size_t>(2 * s)]) |
        (static_cast<std::uint32_t>(body[static_cast<std::size_t>(2 * s + 1)])
         << 8);
  }
  // Validate the (possibly corrupted) table before building slot lookups:
  // frequencies must sum to exactly kProbScale or indexing would run past
  // the slot table.
  std::uint64_t freq_sum = 0;
  for (int s = 0; s < 256; ++s) freq_sum += freq[static_cast<std::size_t>(s)];
  if (freq_sum != kProbScale) {
    throw PayloadError("rans: corrupt frequency table");
  }
  std::array<std::uint32_t, 256> cum{};
  for (int s = 1; s < 256; ++s) {
    cum[static_cast<std::size_t>(s)] =
        cum[static_cast<std::size_t>(s - 1)] +
        freq[static_cast<std::size_t>(s - 1)];
  }
  // The table is rebuilt per stream (the freq table rides in the frame)
  // but the backing store is steady-state: one thread-local allocation.
  slots.resize(kProbScale);
  for (int s = 0; s < 256; ++s) {
    const auto f =
        static_cast<std::uint16_t>(freq[static_cast<std::size_t>(s)]);
    const std::uint32_t base = cum[static_cast<std::size_t>(s)];
    for (std::uint16_t i = 0; i < f; ++i) {
      slots[base + i] = {static_cast<std::uint8_t>(s), f, i};
    }
  }
  out.resize(size);
  ctx.slots = slots.data();
  ctx.stream = body.data();
  ctx.stream_size = body.size();
  ctx.safe_pos = body.size() >= 2 ? body.size() - 2 : 0;
  ctx.pos = 512 + 4;
  ctx.state = wire::get_u32(body, 512);
  ctx.dst = out.data();
  ctx.size = size;
  return true;
}

}  // namespace

void rans_decode_into(ByteView input, Bytes& out) {
  thread_local std::vector<DecSlot> slots;
  DecCtx c;
  if (!dec_init(input, out, slots, c)) return;
  for (std::uint64_t i = 0; i < c.size; ++i) dec_step(c, i);
}

void rans_decode_pair_into(ByteView input_a, Bytes& out_a, ByteView input_b,
                           Bytes& out_b) {
  // Two independent rANS streams decoded in one software-interleaved
  // loop: each stream's state -> slot -> multiply chain is the decode
  // bottleneck (latency-bound, ~10 cycles per symbol), and the two
  // chains share no data, so alternating them nearly doubles ILP over
  // the common prefix. Symbol-by-symbol results, consumed bytes, and
  // error behavior per stream are identical to two sequential decodes.
  thread_local std::vector<DecSlot> slots_a;
  thread_local std::vector<DecSlot> slots_b;
  DecCtx a;
  DecCtx b;
  const bool coded_a = dec_init(input_a, out_a, slots_a, a);
  const bool coded_b = dec_init(input_b, out_b, slots_b, b);
  if (coded_a && coded_b) {
    const std::uint64_t n = std::min(a.size, b.size);
    for (std::uint64_t i = 0; i < n; ++i) {
      dec_step(a, i);
      dec_step(b, i);
    }
    for (std::uint64_t i = n; i < a.size; ++i) dec_step(a, i);
    for (std::uint64_t i = n; i < b.size; ++i) dec_step(b, i);
    return;
  }
  if (coded_a) {
    for (std::uint64_t i = 0; i < a.size; ++i) dec_step(a, i);
  }
  if (coded_b) {
    for (std::uint64_t i = 0; i < b.size; ++i) dec_step(b, i);
  }
}

Bytes rans_decode(ByteView input) {
  Bytes out;
  rans_decode_into(input, out);
  return out;
}

namespace {

class AnsCodec final : public Codec {
 public:
  std::string_view name() const noexcept override { return "ANS"; }
  Bytes encode(ByteView input) const override { return rans_encode(input); }
  Bytes decode(ByteView input) const override { return rans_decode(input); }
  void encode_into(ByteView input, Bytes& out) const override {
    rans_encode_into(input, out);
  }
  void decode_into(ByteView input, Bytes& out) const override {
    rans_decode_into(input, out);
  }
  void decode_pair_into(ByteView input_a, Bytes& out_a, ByteView input_b,
                        Bytes& out_b) const override {
    rans_decode_pair_into(input_a, out_a, input_b, out_b);
  }
  CodecCostProfile cost_profile() const noexcept override {
    // Two streaming passes (histogram + code), fully block-parallel on GPU
    // via interleaved states ([54]); table lookups are coalesced.
    return {.encode_passes = 2.0,
            .decode_passes = 1.2,
            .parallel_fraction = 0.97,
            .flops_per_byte = 6.0,
            .bandwidth_efficiency = 0.75};
  }
};

}  // namespace

std::unique_ptr<Codec> make_ans_codec() { return std::make_unique<AnsCodec>(); }

}  // namespace compso::codec
