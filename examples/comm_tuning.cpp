// Performance-model workflow (paper §4.4): given your cluster and model,
// pick the lossless encoder and the layer-aggregation factor before
// training starts with the perf:: decision functions, in order:
// score_encoders -> profile_warmup -> choose_aggregation_factor.
//
// This is the "offline-online mechanism": the lookup table is built from
// the network model offline; encoder selection and the aggregation search
// run on a sample of real gradient data (the first k warm-up iterations in
// production; a synthetic sample here).

#include "src/core/adaptive_schedule.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/perf/perf_model.hpp"
#include "src/quant/filter.hpp"
#include "src/quant/quantizer.hpp"
#include "src/tensor/stats.hpp"
#include "src/tensor/synthetic.hpp"

#include <cstdio>

int main() {
  using namespace compso;

  // Your system: 64 GPUs on the Slingshot-10 platform.
  comm::Communicator comm(comm::Topology::with_gpus(64),
                          comm::NetworkModel::platform1());
  // Your model: ResNet-50's layer sizes.
  const auto model = nn::resnet50_shape();
  std::vector<std::size_t> layer_bytes;
  for (const auto& l : model.layers) layer_bytes.push_back(l.kfac_bytes());

  // Your schedule: StepLR with the first drop at iteration 60; Algorithm 1
  // derives each iteration's error bounds from it.
  const auto schedule = core::AdaptiveSchedule::step_lr(60);

  // Offline: the allgather lookup table of this system.
  const auto dev = gpusim::DeviceModel::a100();
  const perf::CommLookupTable table(comm);

  // Warm-up sample (in production: gradients from the first k iterations).
  tensor::Rng rng(7);
  const auto sample = tensor::synthetic_gradient(
      1 << 18, tensor::GradientProfile::kfac(), rng);

  // Encoder selection on the stage-0 lossy stream, the bytes the encoder
  // sees: filtered, quantized and packed codes followed by the bitmap.
  const core::CompressionStage stage0 = schedule.at(0);
  const double abs_max = tensor::extrema(sample).abs_max;
  const auto filt = quant::apply_filter(sample, stage0.filter_bound, abs_max);
  const quant::ErrorBoundedQuantizer q(stage0.quant_bound,
                                       quant::RoundingMode::kStochastic);
  const auto block = q.quantize(filt.survivors, rng, abs_max);
  auto lossy_stream = quant::pack_codes(block.codes, block.bit_width);
  lossy_stream.insert(lossy_stream.end(), filt.bitmap.begin(),
                      filt.bitmap.end());
  const auto encoder_scores = perf::score_encoders(lossy_stream, dev, table);
  const codec::CodecKind encoder = encoder_scores.front().kind;

  // Warm-up profile: k = 5 compress rounds of COMPSO with that encoder.
  const auto compso = compress::make_compso(schedule.params_at(0, encoder));
  const double comm_s = table.allgather_time(sample.size() * sizeof(float));
  const double comm_fraction = 0.45;  // measured in the warm-up
  const auto profile = perf::profile_warmup(
      *compso, sample, dev, comm_s, comm_s / comm_fraction, 5, rng);

  // COMPSO-p: the aggregation factor that maximizes the Eq. 5 estimate.
  const auto decision = perf::choose_aggregation_factor(
      layer_bytes, profile, *compso, dev, table);

  std::printf("offline lookup table (allgather throughput vs size):\n");
  for (std::size_t i = 0; i < table.sizes().size(); i += 6) {
    std::printf("  %10zu B -> %7.2f GB/s\n", table.sizes()[i],
                table.throughputs()[i] / 1e9);
  }

  std::printf("\nencoder candidates (best first):\n");
  for (const auto& s : encoder_scores) {
    std::printf("  %-9s CR %6.2f  enc %7.2f GB/s  dec %7.2f GB/s\n",
                codec::to_string(s.kind), s.compression_ratio,
                s.comp_throughput / 1e9, s.decomp_throughput / 1e9);
  }

  std::printf("\ndecisions:\n");
  std::printf("  encoder            : %s\n", codec::to_string(encoder));
  std::printf("  aggregation factor : %zu layers per compression call\n",
              decision.factor);
  std::printf("  estimated end-to-end speedup: %.2fx\n",
              decision.est_end_to_end);

  // The per-iteration compressor follows the adaptive schedule:
  std::printf("\nper-iteration strategy (Algorithm 1):\n");
  for (std::size_t t : {0UL, 30UL, 60UL, 90UL}) {
    const auto stage = schedule.at(t);
    std::printf("  t=%3zu: %s, eb_f %.0e, eb_q %.0e\n", t,
                stage.use_filter ? "aggressive (filter+SR)"
                                 : "conservative (SR only)",
                stage.filter_bound, stage.quant_bound);
  }
  return 0;
}
