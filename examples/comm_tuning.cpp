// Performance-model workflow (paper §4.4): given your cluster and model,
// let the framework pick the lossless encoder and the layer-aggregation
// factor before training starts.
//
// This is the "offline-online mechanism": the lookup table is built from
// the network model offline; encoder selection and the aggregation search
// run on a sample of real gradient data (the first k warm-up iterations in
// production; a synthetic sample here).

#include "src/core/framework.hpp"
#include "src/nn/model_zoo.hpp"
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

  // Your schedule: StepLR with the first drop at iteration 60.
  const optim::StepLr lr(0.01, 0.1, {60});

  core::FrameworkConfig cfg;
  cfg.use_perf_model = true;  // COMPSO-p
  core::CompsoFramework framework(cfg, lr, 100, comm);

  // Warm-up sample (in production: gradients from the first k iterations).
  tensor::Rng rng(7);
  const auto sample = tensor::synthetic_gradient(
      1 << 18, tensor::GradientProfile::kfac(), rng);
  const double comm_fraction = 0.45;  // measured in the warm-up
  framework.tune(layer_bytes, sample, comm_fraction, rng);

  std::printf("offline lookup table (allgather throughput vs size):\n");
  const auto& table = framework.lookup_table();
  for (std::size_t i = 0; i < table.sizes().size(); i += 6) {
    std::printf("  %10zu B -> %7.2f GB/s\n", table.sizes()[i],
                table.throughputs()[i] / 1e9);
  }

  std::printf("\nencoder candidates (best first):\n");
  for (const auto& s : framework.encoder_scores()) {
    std::printf("  %-9s CR %6.2f  enc %7.2f GB/s  dec %7.2f GB/s\n",
                codec::to_string(s.kind), s.compression_ratio,
                s.comp_throughput / 1e9, s.decomp_throughput / 1e9);
  }

  std::printf("\ndecisions:\n");
  std::printf("  encoder            : %s\n",
              codec::to_string(framework.encoder()));
  std::printf("  aggregation factor : %zu layers per compression call\n",
              framework.aggregation());
  std::printf("  estimated end-to-end speedup: %.2fx\n",
              framework.estimated_end_to_end());

  // The per-iteration compressor follows the adaptive schedule:
  std::printf("\nper-iteration strategy (Algorithm 1):\n");
  for (std::size_t t : {0UL, 30UL, 60UL, 90UL}) {
    const auto stage = framework.schedule().at(t);
    std::printf("  t=%3zu: %s, eb_f %.0e, eb_q %.0e\n", t,
                stage.use_filter ? "aggressive (filter+SR)"
                                 : "conservative (SR only)",
                stage.filter_bound, stage.quant_bound);
  }
  return 0;
}
