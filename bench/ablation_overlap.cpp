// Ablation — KAISA's computation-communication overlap (paper §2.2,
// contribution 2) interacting with compression, plus the chunked
// streaming pipeline (DESIGN.md §15) that converts the serial
// compress -> wire -> decompress chain of Eq. 5's denominator into a
// 3-stage pipeline.
//
// The paper's motivating claim: communication exceeds 30% of the
// iteration "even considering the computation-communication overlap"
// (§3). This bench shows (a) how much overlap alone can hide, (b) that
// compression still pays on top of full overlap, and (c) how much of the
// codec's serial cost chunked streaming wins back — the measured
// chunked-vs-unchunked payload-pipeline ratio next to the Eq. 5 chunked
// prediction, at Slingshot-10 scale.
//
//   ablation_overlap [--smoke] [output.json]   (default BENCH_overlap.json)
//
// --smoke gates the acceptance criteria: chunked >= 1.3x unchunked at
// Slingshot-10, reassembled chunk payloads byte-identical to the
// unchunked payload (real chunk-layer round trip), and the transport's
// per-round wire charge equal to the network model's (sum of per-round
// allgatherv_time) — the two views must agree exactly.

#include "bench/bench_util.hpp"

#include "src/compress/chunked_stream.hpp"
#include "src/compress/compressor.hpp"
#include "src/perf/perf_model.hpp"
#include "src/tensor/synthetic.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace compso;

namespace {

struct OverlapRow {
  double overlap = 0.0;
  double comm_fraction = 0.0;
  double iter_ms = 0.0;
  double e2e_speedup = 1.0;
};

struct ChunkRow {
  std::size_t chunk_bytes = 0;
  std::size_t chunks = 0;
  double serial_ms = 0.0;
  double pipeline_ms = 0.0;
  double ratio = 1.0;
  double eq5_predicted = 1.0;
};

/// Real chunk-layer round trip: frame `payload` at `chunk_bytes`, feed
/// every frame through a decode cursor, compare the reassembly.
bool chunk_roundtrip_identical(const compress::Bytes& payload,
                               std::size_t chunk_bytes) {
  compress::ChunkedProducer producer;
  producer.frame(compress::ByteView(payload), chunk_bytes);
  codec::chunk::Cursor consumer;
  for (std::size_t k = 0; k < producer.chunk_count(); ++k) {
    consumer.feed(producer.chunk(k));
  }
  if (!consumer.complete()) return false;
  const auto out = consumer.payload();
  return out.size() == payload.size() &&
         (payload.empty() ||
          std::memcmp(out.data(), payload.data(), payload.size()) == 0);
}

/// Transport/model agreement: the simulated time a chunked collective
/// charges must equal the sum of the network model's per-round
/// allgatherv_time over the same frame sizes.
bool transport_matches_model(std::size_t chunk_bytes) {
  comm::Topology topo{.nodes = 2, .gpus_per_node = 2};
  comm::Communicator c(topo, comm::NetworkModel::platform1());
  const std::size_t world = topo.world_size();
  std::vector<compress::Bytes> payloads(world);
  std::vector<compress::ChunkedProducer> producers(world);
  std::size_t rounds = 0;
  for (std::size_t r = 0; r < world; ++r) {
    payloads[r].assign(1000 + 700 * r, static_cast<std::uint8_t>(r));
    producers[r].frame(compress::ByteView(payloads[r]), chunk_bytes);
    rounds = std::max(rounds, producers[r].chunk_count());
  }
  double expected = 0.0;
  for (std::size_t k = 0; k < rounds; ++k) {
    std::vector<std::span<const std::uint8_t>> frames(world);
    std::vector<std::size_t> sizes;
    for (std::size_t r = 0; r < world; ++r) {
      if (k < producers[r].chunk_count()) frames[r] = producers[r].chunk(k);
      sizes.push_back(frames[r].size());
    }
    expected += c.allgatherv_time(sizes);
    std::vector<std::vector<std::uint8_t>> recv;
    c.allgatherv_chunks(frames, recv, k);
  }
  return std::abs(c.stats().allgather_s - expected) <= 1e-15 * rounds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_overlap.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  bench::print_header(
      "Ablation: comp-comm overlap + chunked streaming (ResNet-50, 64 GPUs, "
      "Slingshot-10)");
  const auto compso = compress::make_compso({});
  constexpr std::size_t kAggregation = 4;

  // --- Part (a)/(b): the overlap sweep (unchanged shape from the paper's
  // §3 claim).
  std::vector<OverlapRow> overlap_rows;
  std::printf("%8s | %12s %12s | %10s\n", "overlap", "comm-share",
              "iter (ms)", "COMPSO e2e");
  bench::print_rule();
  for (double overlap : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    auto cfg = bench::perf_config(nn::resnet50_shape(), 16,
                                  comm::NetworkModel::platform1());
    cfg.comm_overlap = overlap;
    const core::PerfSimulator sim(cfg);
    const auto& b = sim.baseline();
    const auto r = sim.with_compressor(*compso, kAggregation);
    overlap_rows.push_back({overlap, b.comm_fraction(), 1e3 * b.total_s(),
                            r.end_to_end_speedup});
    std::printf("%7.0f%% | %11.1f%% %12.1f | %9.2fx\n", 100.0 * overlap,
                100.0 * b.comm_fraction(), 1e3 * b.total_s(),
                r.end_to_end_speedup);
  }

  // --- Part (c): the chunked payload pipeline. serial = the codec+wire
  // chain Eq. 5 charges in series; pipeline = the 3-stage chunk makespan
  // on the identical compression ratios, codec throughputs, and network
  // model. The Eq. 5 prediction prices the same totals on the offline
  // CommLookupTable (the §4.4 decision path), so measured-vs-predicted is
  // a genuine cross-check of two independent calculations.
  const auto cfg = bench::perf_config(nn::resnet50_shape(), 16,
                                      comm::NetworkModel::platform1());
  const core::PerfSimulator sim(cfg);
  const comm::Communicator lookup_comm(cfg.topo, cfg.net);
  const perf::CommLookupTable table(lookup_comm, 1 << 10,
                                    std::size_t{1} << 28, 24,
                                    perf::CollectiveKind::kPipelinedBroadcast);

  std::printf("\n%12s | %7s | %11s %11s | %8s | %9s\n", "chunk", "chunks",
              "serial (ms)", "piped (ms)", "ratio", "Eq.5 pred");
  bench::print_rule();
  std::vector<ChunkRow> chunk_rows;
  for (std::size_t cb : {std::size_t{64} << 10, std::size_t{256} << 10,
                         std::size_t{1} << 20, std::size_t{4} << 20}) {
    const auto p = sim.with_chunked_compressor(*compso, kAggregation, cb);
    ChunkRow row;
    row.chunk_bytes = cb;
    row.chunks = p.chunks;
    row.serial_ms = 1e3 * p.serial_s;
    row.pipeline_ms = 1e3 * p.pipeline_s;
    row.ratio = p.ratio();
    // Feed Eq. 5 the effective codec throughputs the simulator actually
    // charged (per-group launch overheads included); the wire pricing
    // stays independent — offline lookup table vs direct network model.
    std::size_t orig_bytes = 0;
    for (const auto& l : cfg.model.layers) orig_bytes += l.kfac_bytes();
    row.eq5_predicted = perf::chunked_pipeline_speedup(
        orig_bytes, p.comp_bytes, p.chunks, table,
        p.comp_s > 0.0 ? static_cast<double>(orig_bytes) / p.comp_s : 1e18,
        p.decomp_s > 0.0 ? static_cast<double>(p.comp_bytes) / p.decomp_s
                         : 1e18);
    chunk_rows.push_back(row);
    std::printf("%9zu KiB | %7zu | %11.2f %11.2f | %7.2fx | %8.2fx\n",
                cb >> 10, row.chunks, row.serial_ms, row.pipeline_ms,
                row.ratio, row.eq5_predicted);
  }

  // --- Byte-identity + transport agreement (the §15 contracts).
  tensor::Rng grad_rng(20250808);
  const auto grad = tensor::synthetic_gradient(
      1 << 16, tensor::GradientProfile::kfac(), grad_rng);
  tensor::Rng comp_rng(7);
  const auto payload = compso->compress(grad, comp_rng);
  const bool bytes_identical = chunk_roundtrip_identical(payload, 4096);
  const bool transport_agrees = transport_matches_model(512);
  double best_ratio = 1.0;
  for (const auto& r : chunk_rows) best_ratio = std::max(best_ratio, r.ratio);

  std::printf(
      "\nShape checks: overlap shrinks the exposed communication and with\n"
      "it compression's headroom — but at the paper's operating regime\n"
      "(exposed comm > 30%%) COMPSO still delivers a 1.3-1.6x end-to-end\n"
      "gain. Chunked streaming then overlaps the codec with the wire:\n"
      "best payload-pipeline ratio %.2fx (gate: >= 1.30x). Round-trip\n"
      "bytes %s, transport/model agreement %s.\n",
      best_ratio, bytes_identical ? "identical" : "MISMATCH",
      transport_agrees ? "exact" : "BROKEN");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"ablation_overlap\",\n");
  std::fprintf(f, "  \"model\": \"%s\",\n", cfg.model.name.c_str());
  std::fprintf(f, "  \"network\": \"%s\",\n", cfg.net.name().c_str());
  std::fprintf(f, "  \"aggregation\": %zu,\n", kAggregation);
  std::fprintf(f, "  \"overlap_rows\": [\n");
  for (std::size_t i = 0; i < overlap_rows.size(); ++i) {
    const auto& r = overlap_rows[i];
    std::fprintf(f,
                 "    {\"overlap\": %.2f, \"comm_fraction\": %.4f,"
                 " \"iter_ms\": %.4f, \"e2e_speedup\": %.4f}%s\n",
                 r.overlap, r.comm_fraction, r.iter_ms, r.e2e_speedup,
                 i + 1 < overlap_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"chunk_rows\": [\n");
  for (std::size_t i = 0; i < chunk_rows.size(); ++i) {
    const auto& r = chunk_rows[i];
    std::fprintf(f,
                 "    {\"chunk_bytes\": %zu, \"chunks\": %zu,"
                 " \"serial_ms\": %.4f, \"pipeline_ms\": %.4f,"
                 " \"chunked_vs_unchunked\": %.4f,"
                 " \"eq5_predicted\": %.4f}%s\n",
                 r.chunk_bytes, r.chunks, r.serial_ms, r.pipeline_ms,
                 r.ratio, r.eq5_predicted,
                 i + 1 < chunk_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"best_chunked_ratio\": %.4f,\n", best_ratio);
  std::fprintf(f, "  \"payload_bytes_identical\": %s,\n",
               bytes_identical ? "true" : "false");
  std::fprintf(f, "  \"transport_matches_model\": %s\n",
               transport_agrees ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (smoke) {
    if (!bytes_identical) {
      std::fprintf(stderr, "SMOKE FAIL: chunk round trip not bit-identical\n");
      return 1;
    }
    if (!transport_agrees) {
      std::fprintf(stderr,
                   "SMOKE FAIL: transport wire time != network model\n");
      return 1;
    }
    if (best_ratio < 1.3) {
      std::fprintf(stderr,
                   "SMOKE FAIL: chunked pipeline ratio %.3f < 1.3\n",
                   best_ratio);
      return 1;
    }
    std::printf("smoke OK: ratio %.2fx, bytes identical, transport exact\n",
                best_ratio);
  }
  return 0;
}
