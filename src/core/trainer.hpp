#pragma once
// Convergence trainer: data-parallel SPMD training of the proxy models on
// the simulated cluster, with KFAC or SGD, with or without compression.
// This drives Fig. 6 / Fig. 3(right) / Table 1.

#include "src/comm/communicator.hpp"
#include "src/compress/compressor.hpp"
#include "src/nn/dataset.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/optim/dist_kfac.hpp"
#include "src/optim/dist_sgd.hpp"
#include "src/optim/lr_scheduler.hpp"

#include <functional>
#include <vector>

namespace compso::core {

/// Returns the compressor to use at iteration t (nullptr = no compression).
/// This is how the iteration-wise adaptive schedule plugs into training.
using CompressorProvider =
    std::function<const compress::GradientCompressor*(std::size_t t)>;

struct TrainerConfig {
  std::size_t world = 4;
  std::size_t batch_per_rank = 16;
  std::size_t features = 24;
  std::size_t classes = 6;
  std::size_t hidden = 24;
  std::size_t depth = 2;
  float noise = 0.7F;
  std::uint64_t seed = 1234;
};

struct TrainResult {
  std::vector<double> loss_curve;      ///< training loss per iteration.
  std::vector<double> eval_curve;      ///< eval accuracy at eval points.
  double final_accuracy = 0.0;         ///< held-out accuracy at the end.
  double final_loss = 0.0;
  double avg_compression_ratio = 1.0;  ///< on the compressed collective.
};

/// Trains the MLP classifier proxy on the Gaussian-cluster dataset.
class ClusterTrainer {
 public:
  explicit ClusterTrainer(TrainerConfig config);

  /// Distributed KFAC (KAISA pipeline), compressor chosen per iteration.
  TrainResult train_kfac(std::size_t iterations,
                         const optim::LrScheduler& lr,
                         const CompressorProvider& provider,
                         optim::DistKfacConfig kfac_cfg = {});

  /// Distributed SGD, optional compressor. Error feedback comes from the
  /// compressor (compress::make_error_feedback); pass a fresh wrapper per
  /// call so residuals do not carry over between runs.
  TrainResult train_sgd(std::size_t iterations, const optim::LrScheduler& lr,
                        const compress::GradientCompressor* compressor);

 private:
  TrainerConfig cfg_;
  nn::ClusterDataset dataset_;

  double evaluate(nn::Model& model) const;
};

/// Span-extraction fine-tuning (Table 1 proxy). Returns SQuAD-style
/// F1 / exact-match of the trained model on held-out samples.
struct SpanResult {
  nn::SpanMetrics metrics;
  double final_loss = 0.0;
};

struct SpanTrainerConfig {
  std::size_t world = 4;
  std::size_t batch_per_rank = 16;
  std::size_t positions = 12;
  std::size_t features = 24;
  std::size_t hidden = 32;
  std::size_t depth = 2;
  float noise = 0.55F;
  std::uint64_t seed = 99;
};

class SpanTrainer {
 public:
  explicit SpanTrainer(SpanTrainerConfig config);

  SpanResult train_kfac(std::size_t iterations, const optim::LrScheduler& lr,
                        const CompressorProvider& provider,
                        optim::DistKfacConfig kfac_cfg = {});
  SpanResult train_sgd(std::size_t iterations, const optim::LrScheduler& lr,
                       const compress::GradientCompressor* compressor);

 private:
  SpanTrainerConfig cfg_;
  nn::SpanDataset dataset_;

  nn::SpanMetrics evaluate(nn::Model& model) const;
  /// Span loss: cross-entropy on the start head + on the end head.
  double span_loss(const tensor::Tensor& logits,
                   const nn::SpanDataset::SpanBatch& batch,
                   tensor::Tensor& grad) const;
};

}  // namespace compso::core
