// Distributed KFAC training with COMPSO on the simulated cluster.
//
// The full pipeline of the paper: data-parallel replicas, KAISA-style
// distributed KFAC (factor allreduce, layer-partitioned eigendecomposition,
// preconditioned-gradient allgather), with the iteration-wise adaptive
// COMPSO compressor on the allgather. Compares against the uncompressed
// baseline and reports accuracy, compression ratio, and the simulated
// communication time saved.

#include "src/comm/network_model.hpp"
#include "src/core/ft_trainer.hpp"

#include <cstdio>

int main() {
  using namespace compso;

  core::FtTrainerConfig cfg;
  cfg.base.world = 8;       // 8 simulated GPUs (2 nodes x 4)
  cfg.base.classes = 10;
  cfg.base.features = 20;
  cfg.base.hidden = 24;
  cfg.base.depth = 2;
  cfg.base.noise = 1.1F;
  cfg.total_iterations = 100;
  cfg.base_lr = 0.01;
  cfg.lr_milestones = {60};
  cfg.kfac.damping = 0.1;

  std::printf("== baseline: distributed KFAC, no compression ==\n");
  cfg.compress = false;
  const auto base = core::train(cfg);
  std::printf("final accuracy %.1f%%, final loss %.4f\n\n",
              100.0 * base.final_accuracy, base.final_loss);

  std::printf("== distributed KFAC + COMPSO (adaptive schedule) ==\n");
  // Algorithm 1: aggressive (filter + SR) until the LR drop, then
  // conservative (SR-only, tighter bound).
  cfg.compress = true;
  const auto result = core::train(cfg);
  std::printf("final accuracy %.1f%% (baseline %.1f%%)\n",
              100.0 * result.final_accuracy, 100.0 * base.final_accuracy);
  std::printf("average compression ratio on the allgather: %.1fx\n",
              result.avg_compression_ratio);

  // What that ratio means for communication on a real-scale model: the
  // simulated allgather time for a ResNet-50-sized gradient at 64 GPUs.
  comm::Communicator comm(comm::Topology::with_gpus(64),
                          comm::NetworkModel::platform1());
  const std::size_t grad_bytes = 102U << 20;  // ~ResNet-50 KFAC gradient
  const double t_raw = comm.allgather_time(grad_bytes / 64);
  const double t_comp = comm.allgather_time(static_cast<std::size_t>(
      grad_bytes / 64 / result.avg_compression_ratio));
  std::printf(
      "at ResNet-50 scale on Platform 1 / 64 GPUs this turns a %.2f ms\n"
      "allgather into %.2f ms (%.1fx communication speedup).\n",
      1e3 * t_raw, 1e3 * t_comp, t_raw / t_comp);
  return 0;
}
