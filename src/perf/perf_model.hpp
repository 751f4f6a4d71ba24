#pragma once
// COMPSO's performance model (paper §4.4).
//
// Offline: benchmark the system's collective throughput into a lookup
// table mapping message size -> effective throughput (per GPU count).
// Online: profile the first k warm-up iterations for compressed sizes and
// compressor throughput, then
//   - estimate the communication speedup s (Eq. 5),
//   - turn it into an end-to-end estimate ((1-r) + r/s)^-1,
//   - choose the layer-aggregation factor m maximizing that estimate,
//   - choose the lossless encoder minimizing comm+codec time.

#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/gpusim/device_model.hpp"

#include <optional>
#include <span>
#include <vector>

namespace compso::perf {

/// Which collective an offline CommLookupTable samples. The paper builds
/// one table per collective actually used on the hot path; the KFAC
/// gradient exchange here is the pipelined broadcast, while allgather is
/// the default for the generic Eq. 5 decision flow.
enum class CollectiveKind { kAllgather, kPipelinedBroadcast };

/// Offline lookup table: effective collective throughput (bytes/s per
/// rank message) vs. message size, for one (platform, GPU count) pair.
/// Built from the network model the same way the paper builds it from
/// synthetic benchmarks.
class CommLookupTable {
 public:
  /// Samples sizes geometrically in [min_bytes, max_bytes].
  CommLookupTable(const comm::Communicator& comm,
                  std::size_t min_bytes = 1 << 10,
                  std::size_t max_bytes = std::size_t{1} << 28,
                  std::size_t points = 24,
                  CollectiveKind kind = CollectiveKind::kAllgather);

  /// Interpolated effective throughput (bytes/s) for a per-rank message of
  /// `bytes` in an allgather.
  double throughput(std::size_t bytes) const noexcept;
  /// Time to allgather a per-rank message of `bytes`.
  double allgather_time(std::size_t bytes) const noexcept {
    return bytes == 0 ? 0.0
                      : static_cast<double>(bytes) / throughput(bytes);
  }

  const std::vector<std::size_t>& sizes() const noexcept { return sizes_; }
  const std::vector<double>& throughputs() const noexcept { return tput_; }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<double> tput_;
};

/// The Eq. 5 lookup extended across world sizes (DESIGN.md §16): one
/// CommLookupTable per simulated world (default 256-4096 ranks), each
/// built from a Communicator over Topology::with_gpus(world) with the
/// given collective-selection config, plus log2-world interpolation so the
/// predictor can price a collective at any rank count in range.
class CommLookupGrid {
 public:
  /// `worlds` must be strictly increasing and non-empty.
  CommLookupGrid(const comm::NetworkModel& net,
                 std::vector<std::size_t> worlds,
                 const comm::CollectiveConfig& coll = {},
                 std::size_t min_bytes = 1 << 10,
                 std::size_t max_bytes = std::size_t{1} << 28,
                 std::size_t points = 24,
                 CollectiveKind kind = CollectiveKind::kAllgather);

  /// The 1000-rank scale-out grid: worlds {256, 512, 1024, 2048, 4096}.
  static CommLookupGrid scale_sweep(const comm::NetworkModel& net,
                                    const comm::CollectiveConfig& coll = {});

  /// Interpolated effective throughput (bytes/s) at `world` ranks; worlds
  /// outside the grid clamp to the nearest edge table.
  double throughput(std::size_t world, std::size_t bytes) const noexcept;
  double allgather_time(std::size_t world, std::size_t bytes) const noexcept {
    return bytes == 0
               ? 0.0
               : static_cast<double>(bytes) / throughput(world, bytes);
  }

  const std::vector<std::size_t>& worlds() const noexcept { return worlds_; }
  const CommLookupTable& table(std::size_t i) const { return tables_.at(i); }

 private:
  std::vector<std::size_t> worlds_;
  std::vector<CommLookupTable> tables_;
};

/// Averages from the first k warm-up iterations (§4.4's online half).
struct WarmupProfile {
  double compression_ratio = 1.0;   ///< L_o / L_c.
  double comp_throughput = 0.0;     ///< T_o: bytes of input per second.
  double decomp_throughput = 0.0;   ///< T_c: bytes of compressed per second.
  double comm_fraction = 0.0;       ///< r: comm / total iteration time.
  std::size_t iterations = 0;       ///< k.
};

/// Accumulates per-iteration observations into a WarmupProfile.
class OnlineProfiler {
 public:
  void record(std::size_t original_bytes, std::size_t compressed_bytes,
              double comp_seconds, double decomp_seconds,
              double comm_seconds, double total_seconds);
  WarmupProfile finish() const;
  std::size_t iterations() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
  double orig_bytes_ = 0.0, comp_bytes_ = 0.0;
  double comp_s_ = 0.0, decomp_s_ = 0.0;
  double comm_s_ = 0.0, total_s_ = 0.0;
};

/// The online half of §4.4 in one call: `iterations` compress rounds of
/// `compressor` on `sample` (drawing from `rng` as compress does), each
/// folded into an OnlineProfiler with device-modeled (de)compression times
/// and the caller's per-iteration comm and total seconds.
WarmupProfile profile_warmup(const compress::GradientCompressor& compressor,
                             std::span<const float> sample,
                             const gpusim::DeviceModel& dev,
                             double comm_seconds, double total_seconds,
                             std::size_t iterations, tensor::Rng& rng);

/// Eq. 5's terms for one group of layers of `orig_bytes` compressed to
/// `comp_bytes` (a throughput of 0 charges no time): the one place the
/// aggregation search and the chunked prediction price a group.
struct Eq5Times {
  double orig = 0.0;        ///< the uncompressed allgather.
  double wire = 0.0;        ///< the compressed allgather.
  double compress = 0.0;    ///< orig_bytes / comp_throughput.
  double decompress = 0.0;  ///< comp_bytes / decomp_throughput.
  /// Eq. 5's denominator: the compressed group's stages in series, so
  /// the group's communication speedup is s = orig / compressed().
  double compressed() const noexcept { return wire + compress + decompress; }
};
Eq5Times eq5_times(std::size_t orig_bytes, std::size_t comp_bytes,
                   const CommLookupTable& table, double comp_throughput,
                   double decomp_throughput) noexcept;

/// End-to-end gain ((1 - r) + r / s)^-1 for comm fraction r and
/// communication speedup s.
double end_to_end_speedup(double comm_fraction, double comm_speedup) noexcept;

/// Eq. 5's denominator charges compression, wire, and decompression in
/// series. The chunked streaming pipeline (DESIGN.md §15) splits the
/// payload into `chunks` frames so the three stages overlap: the predicted
/// speedup is serial (a+b+c) over the 3-stage makespan
/// (a+b+c)/n * (2 + n) -> exactly (fill + (n-1) * slowest beat), with each
/// chunk's wire time priced at its own (smaller) message size on the
/// lookup table — the latency penalty of chunking is in the model, not
/// assumed away. chunks == 0 or 1 returns 1.0.
double chunked_pipeline_speedup(std::size_t orig_bytes,
                                std::size_t comp_bytes, std::size_t chunks,
                                const CommLookupTable& table,
                                double comp_throughput,
                                double decomp_throughput) noexcept;

/// Result of the aggregation-factor search.
struct AggregationDecision {
  std::size_t factor = 1;
  double est_comm_speedup = 1.0;
  double est_end_to_end = 1.0;
  /// Estimates per candidate (parallel to `candidates` passed in).
  std::vector<double> candidate_end_to_end;
};

/// Chooses m (layers aggregated per compression call) maximizing the
/// estimated end-to-end speedup. Aggregation helps twice: bigger messages
/// ride the steeper part of the throughput curve, and kernel-launch
/// overhead amortizes (small layers underutilize the GPU, §4.4).
AggregationDecision choose_aggregation_factor(
    const std::vector<std::size_t>& layer_bytes, const WarmupProfile& profile,
    const compress::GradientCompressor& compressor,
    const gpusim::DeviceModel& dev, const CommLookupTable& table,
    const std::vector<std::size_t>& candidates = {1, 2, 4, 8, 16, 32});

/// Per-encoder measurements for encoder selection (and Table 2 rows).
struct EncoderScore {
  codec::CodecKind kind;
  double compression_ratio = 0.0;    ///< on the lossy-stage output bytes.
  double comp_throughput = 0.0;      ///< modeled GPU GB-scale bytes/s.
  double decomp_throughput = 0.0;
  double est_total_time = 0.0;       ///< comm + codec time for the sample.
};

/// Scores every candidate encoder on a sample of lossy-stage output and
/// returns them best-first (smallest est_total_time).
std::vector<EncoderScore> score_encoders(
    codec::ByteView sample, const gpusim::DeviceModel& dev,
    const CommLookupTable& table,
    std::span<const codec::CodecKind> candidates = codec::kAllCodecKinds);

/// Measured single-thread host throughput of a compressor on one input
/// (wall-clock, not the gpusim model). This is the T_o / T_c pair Eq. 5
/// wants when the decision is made for the host implementation itself —
/// e.g. by bench/micro_compressor_throughput, which reports fused vs.
/// unfused pipelines with exactly these numbers.
struct HostThroughput {
  double compress_bytes_per_s = 0.0;    ///< input bytes / compress second.
  double decompress_bytes_per_s = 0.0;  ///< output bytes / decompress second.
  double compression_ratio = 1.0;       ///< input bytes / payload bytes.
  std::size_t input_bytes = 0;
  std::size_t payload_bytes = 0;
  std::size_t repetitions = 0;
};

/// Times `compressor` on `values` for `repetitions` compress and
/// decompress calls (scratch-reusing *_into entry points, steady-state
/// behavior). The Rng is re-seeded per repetition so every payload is
/// bit-identical; throughputs are averages over all repetitions.
HostThroughput measure_host_throughput(
    const compress::GradientCompressor& compressor,
    std::span<const float> values, std::uint64_t seed,
    std::size_t repetitions = 8);

}  // namespace compso::perf
