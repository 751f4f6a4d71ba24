#include "src/perf/perf_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace compso::perf {

CommLookupTable::CommLookupTable(const comm::Communicator& comm,
                                 std::size_t min_bytes, std::size_t max_bytes,
                                 std::size_t points, CollectiveKind kind) {
  if (points < 2 || min_bytes == 0 || max_bytes <= min_bytes) {
    throw std::invalid_argument("CommLookupTable: bad sampling range");
  }
  const double lo = std::log2(static_cast<double>(min_bytes));
  const double hi = std::log2(static_cast<double>(max_bytes));
  for (std::size_t i = 0; i < points; ++i) {
    const double frac =
        static_cast<double>(i) / static_cast<double>(points - 1);
    const auto bytes =
        static_cast<std::size_t>(std::exp2(lo + frac * (hi - lo)));
    // Narrow ranges round adjacent sample points to the same byte size;
    // keep sizes_ strictly increasing or interpolation divides by
    // log2(x1) - log2(x0) == 0 and returns NaN.
    if (!sizes_.empty() && bytes <= sizes_.back()) continue;
    const double t = kind == CollectiveKind::kPipelinedBroadcast
                         ? comm.pipelined_broadcast_time(bytes)
                         : comm.allgather_time(bytes);
    sizes_.push_back(bytes);
    tput_.push_back(t > 0.0 ? static_cast<double>(bytes) / t : 1e18);
  }
}

CommLookupGrid::CommLookupGrid(const comm::NetworkModel& net,
                               std::vector<std::size_t> worlds,
                               const comm::CollectiveConfig& coll,
                               std::size_t min_bytes, std::size_t max_bytes,
                               std::size_t points, CollectiveKind kind)
    : worlds_(std::move(worlds)) {
  if (worlds_.empty()) {
    throw std::invalid_argument("CommLookupGrid: need at least one world");
  }
  for (std::size_t i = 0; i < worlds_.size(); ++i) {
    if (worlds_[i] == 0 || (i > 0 && worlds_[i] <= worlds_[i - 1])) {
      throw std::invalid_argument(
          "CommLookupGrid: worlds must be strictly increasing");
    }
  }
  tables_.reserve(worlds_.size());
  for (std::size_t w : worlds_) {
    comm::Communicator comm(comm::Topology::with_gpus(w), net);
    comm.set_collective_config(coll);
    tables_.emplace_back(comm, min_bytes, max_bytes, points, kind);
  }
}

CommLookupGrid CommLookupGrid::scale_sweep(const comm::NetworkModel& net,
                                           const comm::CollectiveConfig& coll) {
  return CommLookupGrid(net, {256, 512, 1024, 2048, 4096}, coll);
}

double CommLookupGrid::throughput(std::size_t world,
                                  std::size_t bytes) const noexcept {
  if (world <= worlds_.front()) return tables_.front().throughput(bytes);
  if (world >= worlds_.back()) return tables_.back().throughput(bytes);
  const auto it = std::lower_bound(worlds_.begin(), worlds_.end(), world);
  const std::size_t hi = static_cast<std::size_t>(it - worlds_.begin());
  if (worlds_[hi] == world) return tables_[hi].throughput(bytes);
  const std::size_t lo = hi - 1;
  const double x0 = std::log2(static_cast<double>(worlds_[lo]));
  const double x1 = std::log2(static_cast<double>(worlds_[hi]));
  const double x = std::log2(static_cast<double>(world));
  const double w = (x - x0) / (x1 - x0);
  return tables_[lo].throughput(bytes) * (1.0 - w) +
         tables_[hi].throughput(bytes) * w;
}

double CommLookupTable::throughput(std::size_t bytes) const noexcept {
  if (bytes == 0 || sizes_.empty()) return tput_.empty() ? 1e18 : tput_.front();
  if (bytes <= sizes_.front()) return tput_.front();
  if (bytes >= sizes_.back()) return tput_.back();
  // log-size linear interpolation.
  const auto it = std::lower_bound(sizes_.begin(), sizes_.end(), bytes);
  const std::size_t hi = static_cast<std::size_t>(it - sizes_.begin());
  const std::size_t lo = hi - 1;
  const double x0 = std::log2(static_cast<double>(sizes_[lo]));
  const double x1 = std::log2(static_cast<double>(sizes_[hi]));
  const double x = std::log2(static_cast<double>(bytes));
  const double w = (x - x0) / (x1 - x0);
  return tput_[lo] * (1.0 - w) + tput_[hi] * w;
}

void OnlineProfiler::record(std::size_t original_bytes,
                            std::size_t compressed_bytes, double comp_seconds,
                            double decomp_seconds, double comm_seconds,
                            double total_seconds) {
  ++n_;
  orig_bytes_ += static_cast<double>(original_bytes);
  comp_bytes_ += static_cast<double>(compressed_bytes);
  comp_s_ += comp_seconds;
  decomp_s_ += decomp_seconds;
  comm_s_ += comm_seconds;
  total_s_ += total_seconds;
}

WarmupProfile OnlineProfiler::finish() const {
  WarmupProfile p;
  p.iterations = n_;
  if (n_ == 0) return p;
  p.compression_ratio = comp_bytes_ > 0.0 ? orig_bytes_ / comp_bytes_ : 1.0;
  p.comp_throughput = comp_s_ > 0.0 ? orig_bytes_ / comp_s_ : 1e18;
  p.decomp_throughput = decomp_s_ > 0.0 ? comp_bytes_ / decomp_s_ : 1e18;
  p.comm_fraction = total_s_ > 0.0 ? comm_s_ / total_s_ : 0.0;
  return p;
}

WarmupProfile profile_warmup(const compress::GradientCompressor& compressor,
                             std::span<const float> sample,
                             const gpusim::DeviceModel& dev,
                             double comm_seconds, double total_seconds,
                             std::size_t iterations, tensor::Rng& rng) {
  OnlineProfiler profiler;
  const std::size_t in_bytes = sample.size() * sizeof(float);
  for (std::size_t k = 0; k < iterations; ++k) {
    const compress::Bytes payload = compressor.compress(sample, rng);
    const double comp_s =
        static_cast<double>(in_bytes) /
        compressor.modeled_throughput(dev, in_bytes, payload.size());
    const double decomp_s =
        static_cast<double>(payload.size()) /
        compressor.modeled_throughput(dev, payload.size(), in_bytes);
    profiler.record(in_bytes, payload.size(), comp_s, decomp_s, comm_seconds,
                    total_seconds);
  }
  return profiler.finish();
}

Eq5Times eq5_times(std::size_t orig_bytes, std::size_t comp_bytes,
                   const CommLookupTable& table, double comp_throughput,
                   double decomp_throughput) noexcept {
  Eq5Times t;
  t.orig = table.allgather_time(orig_bytes);
  t.wire = table.allgather_time(comp_bytes);
  if (comp_throughput > 0.0) {
    t.compress = static_cast<double>(orig_bytes) / comp_throughput;
  }
  if (decomp_throughput > 0.0) {
    t.decompress = static_cast<double>(comp_bytes) / decomp_throughput;
  }
  return t;
}

double end_to_end_speedup(double comm_fraction, double comm_speedup) noexcept {
  const double r = std::clamp(comm_fraction, 0.0, 1.0);
  const double s = std::max(comm_speedup, 1e-9);
  return 1.0 / ((1.0 - r) + r / s);
}

double chunked_pipeline_speedup(std::size_t orig_bytes,
                                std::size_t comp_bytes, std::size_t chunks,
                                const CommLookupTable& table,
                                double comp_throughput,
                                double decomp_throughput) noexcept {
  if (chunks <= 1 || comp_bytes == 0) return 1.0;
  const Eq5Times t = eq5_times(orig_bytes, comp_bytes, table, comp_throughput,
                               decomp_throughput);
  const auto n = static_cast<double>(chunks);
  const std::size_t chunk_bytes = (comp_bytes + chunks - 1) / chunks;
  const double pipeline = comm::chunk_pipeline_makespan(
      chunks, t.compress / n, table.allgather_time(chunk_bytes),
      t.decompress / n);
  return pipeline > 0.0 ? t.compressed() / pipeline : 1.0;
}

AggregationDecision choose_aggregation_factor(
    const std::vector<std::size_t>& layer_bytes, const WarmupProfile& profile,
    const compress::GradientCompressor& compressor,
    const gpusim::DeviceModel& dev, const CommLookupTable& table,
    const std::vector<std::size_t>& candidates) {
  AggregationDecision best;
  best.est_end_to_end = 0.0;
  for (std::size_t m : candidates) {
    if (m == 0) continue;
    // Group consecutive layers into chunks of m; estimate per-chunk time.
    double t_orig = 0.0, t_new = 0.0;
    for (std::size_t i = 0; i < layer_bytes.size(); i += m) {
      std::size_t chunk = 0;
      for (std::size_t j = i; j < std::min(i + m, layer_bytes.size()); ++j) {
        chunk += layer_bytes[j];
      }
      if (chunk == 0) continue;
      const auto comp_chunk = static_cast<std::size_t>(
          static_cast<double>(chunk) /
          std::max(profile.compression_ratio, 1.0));
      // Compressor throughput for this chunk size from the device model:
      // launch overhead amortizes with chunk size (§4.4's reason to
      // aggregate small layers).
      const Eq5Times t = eq5_times(
          chunk, comp_chunk, table,
          compressor.modeled_throughput(dev, chunk, comp_chunk),
          compressor.modeled_throughput(dev, comp_chunk, chunk));
      t_orig += t.orig;
      t_new += t.compressed();
    }
    const double s = t_new > 0.0 ? t_orig / t_new : 1.0;
    const double e2e = end_to_end_speedup(profile.comm_fraction, s);
    best.candidate_end_to_end.push_back(e2e);
    if (e2e > best.est_end_to_end) {
      best.est_end_to_end = e2e;
      best.est_comm_speedup = s;
      best.factor = m;
    }
  }
  return best;
}

std::vector<EncoderScore> score_encoders(
    codec::ByteView sample, const gpusim::DeviceModel& dev,
    const CommLookupTable& table,
    std::span<const codec::CodecKind> candidates) {
  std::vector<EncoderScore> out;
  for (codec::CodecKind kind : candidates) {
    const auto codec = codec::make_codec(kind);
    const codec::Bytes enc = codec->encode(sample);
    EncoderScore s;
    s.kind = kind;
    s.compression_ratio = enc.empty()
                              ? 1.0
                              : static_cast<double>(sample.size()) /
                                    static_cast<double>(enc.size());
    // Model the codec's GPU throughput from its cost profile.
    const auto prof = codec->cost_profile();
    const double eff_bw =
        dev.effective_bandwidth() * prof.bandwidth_efficiency;
    auto stage_time = [&](double passes, std::size_t bytes) {
      const double serial = 1.0 - prof.parallel_fraction;
      const double par_t = passes * static_cast<double>(bytes) / eff_bw;
      // Amdahl: the serial fraction runs at single-SM-ish speed.
      const double ser_t = serial * passes * static_cast<double>(bytes) /
                           (eff_bw / static_cast<double>(dev.sm_count));
      return dev.kernel_launch_s + par_t + ser_t;
    };
    const double t_enc = stage_time(prof.encode_passes, sample.size());
    const double t_dec = stage_time(prof.decode_passes, enc.size());
    s.comp_throughput =
        t_enc > 0.0 ? static_cast<double>(sample.size()) / t_enc : 1e18;
    s.decomp_throughput =
        t_dec > 0.0 ? static_cast<double>(enc.size()) / t_dec : 1e18;
    s.est_total_time = table.allgather_time(enc.size()) + t_enc + t_dec;
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const EncoderScore& a, const EncoderScore& b) {
              return a.est_total_time < b.est_total_time;
            });
  return out;
}

HostThroughput measure_host_throughput(
    const compress::GradientCompressor& compressor,
    std::span<const float> values, std::uint64_t seed,
    std::size_t repetitions) {
  HostThroughput out;
  out.repetitions = std::max<std::size_t>(repetitions, 1);
  out.input_bytes = values.size() * sizeof(float);

  compress::Bytes payload;
  std::vector<float> decoded;
  // Warm-up pass: page in the input and size the scratch buffers so the
  // timed loop sees steady-state (allocation-free) behavior.
  {
    tensor::Rng rng(seed);
    compressor.compress_into(values, rng, payload);
    compressor.decompress_into(payload, decoded);
  }
  out.payload_bytes = payload.size();
  out.compression_ratio =
      payload.empty() ? 1.0
                      : static_cast<double>(out.input_bytes) /
                            static_cast<double>(payload.size());

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (std::size_t i = 0; i < out.repetitions; ++i) {
    tensor::Rng rng(seed);  // identical stream -> identical payload.
    compressor.compress_into(values, rng, payload);
  }
  const auto t1 = clock::now();
  for (std::size_t i = 0; i < out.repetitions; ++i) {
    compressor.decompress_into(payload, decoded);
  }
  const auto t2 = clock::now();

  const double comp_s = std::chrono::duration<double>(t1 - t0).count();
  const double decomp_s = std::chrono::duration<double>(t2 - t1).count();
  const double reps = static_cast<double>(out.repetitions);
  const double in_b = static_cast<double>(out.input_bytes);
  const double dec_b = static_cast<double>(decoded.size() * sizeof(float));
  out.compress_bytes_per_s = comp_s > 0.0 ? reps * in_b / comp_s : 1e18;
  out.decompress_bytes_per_s = decomp_s > 0.0 ? reps * dec_b / decomp_s : 1e18;
  return out;
}

}  // namespace compso::perf
