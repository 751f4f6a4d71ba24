#include "src/core/trainer.hpp"

#include "src/comm/network_model.hpp"

#include <algorithm>
#include <cmath>

namespace compso::core {
namespace {

/// Builds `world` structurally identical replicas from one seed.
std::vector<nn::Model> build_replicas(std::size_t world,
                                      const std::function<nn::Model(
                                          tensor::Rng&)>& builder,
                                      std::uint64_t seed) {
  std::vector<nn::Model> replicas;
  replicas.reserve(world);
  for (std::size_t r = 0; r < world; ++r) {
    tensor::Rng rng(seed);  // same seed -> identical initial weights
    replicas.push_back(builder(rng));
  }
  return replicas;
}

comm::Communicator make_comm(std::size_t world) {
  return comm::Communicator(comm::Topology::with_gpus(world),
                            comm::NetworkModel::platform1());
}

}  // namespace

ClusterTrainer::ClusterTrainer(TrainerConfig config)
    : cfg_(config),
      dataset_(config.features, config.classes, config.noise,
               config.seed ^ 0xDA7A5E7ULL) {}

double ClusterTrainer::evaluate(nn::Model& model) const {
  tensor::Rng rng(cfg_.seed ^ 0xE7A1ULL);
  const auto batch = dataset_.sample(512, rng);
  const auto logits = model.forward(batch.x);
  return nn::accuracy(logits, batch.labels);
}

TrainResult ClusterTrainer::train_kfac(std::size_t iterations,
                                       const optim::LrScheduler& lr,
                                       const CompressorProvider& provider,
                                       optim::DistKfacConfig kfac_cfg) {
  auto replicas = build_replicas(
      cfg_.world,
      [&](tensor::Rng& rng) {
        return nn::make_mlp_classifier(cfg_.features, cfg_.hidden,
                                       cfg_.classes, cfg_.depth, rng);
      },
      cfg_.seed);
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas) ptrs.push_back(&m);
  auto comm = make_comm(cfg_.world);
  optim::DistKfac kfac(kfac_cfg, comm, ptrs);

  tensor::Rng data_rng(cfg_.seed ^ 0xBA7C4ULL);
  tensor::Rng sr_rng(cfg_.seed ^ 0x5121ULL);
  TrainResult result;
  double cr_sum = 0.0;
  std::size_t cr_n = 0;
  for (std::size_t t = 0; t < iterations; ++t) {
    double loss = 0.0;
    for (std::size_t r = 0; r < cfg_.world; ++r) {
      const auto batch = dataset_.sample(cfg_.batch_per_rank, data_rng);
      const auto logits = replicas[r].forward(batch.x);
      tensor::Tensor grad;
      loss += nn::softmax_cross_entropy(logits, batch.labels, grad);
      replicas[r].backward(grad);
    }
    loss /= static_cast<double>(cfg_.world);
    kfac.step(t, lr.lr(t), provider ? provider(t) : nullptr, sr_rng);
    result.loss_curve.push_back(loss);
    if (kfac.last_compressed_bytes() > 0) {
      cr_sum += static_cast<double>(kfac.last_original_bytes()) /
                static_cast<double>(kfac.last_compressed_bytes());
      ++cr_n;
    }
    if ((t + 1) % std::max<std::size_t>(iterations / 20, 1) == 0) {
      result.eval_curve.push_back(evaluate(replicas[0]));
    }
  }
  result.final_accuracy = evaluate(replicas[0]);
  result.final_loss = result.loss_curve.empty() ? 0.0
                                                : result.loss_curve.back();
  result.avg_compression_ratio = cr_n > 0 ? cr_sum / static_cast<double>(cr_n)
                                          : 1.0;
  return result;
}

TrainResult ClusterTrainer::train_sgd(
    std::size_t iterations, const optim::LrScheduler& lr,
    const compress::GradientCompressor* compressor) {
  auto replicas = build_replicas(
      cfg_.world,
      [&](tensor::Rng& rng) {
        return nn::make_mlp_classifier(cfg_.features, cfg_.hidden,
                                       cfg_.classes, cfg_.depth, rng);
      },
      cfg_.seed);
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas) ptrs.push_back(&m);
  auto comm = make_comm(cfg_.world);
  optim::DistSgd sgd({.momentum = 0.9}, comm, ptrs);

  tensor::Rng data_rng(cfg_.seed ^ 0xBA7C4ULL);
  tensor::Rng sr_rng(cfg_.seed ^ 0x5122ULL);
  TrainResult result;
  double cr_sum = 0.0;
  std::size_t cr_n = 0;
  for (std::size_t t = 0; t < iterations; ++t) {
    double loss = 0.0;
    for (std::size_t r = 0; r < cfg_.world; ++r) {
      const auto batch = dataset_.sample(cfg_.batch_per_rank, data_rng);
      const auto logits = replicas[r].forward(batch.x);
      tensor::Tensor grad;
      loss += nn::softmax_cross_entropy(logits, batch.labels, grad);
      replicas[r].backward(grad);
    }
    loss /= static_cast<double>(cfg_.world);
    sgd.step(lr.lr(t), compressor, sr_rng);
    result.loss_curve.push_back(loss);
    if (sgd.last_compressed_bytes() > 0 && compressor != nullptr) {
      cr_sum += static_cast<double>(sgd.last_original_bytes()) /
                static_cast<double>(sgd.last_compressed_bytes());
      ++cr_n;
    }
    if ((t + 1) % std::max<std::size_t>(iterations / 20, 1) == 0) {
      result.eval_curve.push_back(evaluate(replicas[0]));
    }
  }
  result.final_accuracy = evaluate(replicas[0]);
  result.final_loss = result.loss_curve.empty() ? 0.0
                                                : result.loss_curve.back();
  result.avg_compression_ratio = cr_n > 0 ? cr_sum / static_cast<double>(cr_n)
                                          : 1.0;
  return result;
}

// ------------------------------------------------------------ SpanTrainer

SpanTrainer::SpanTrainer(SpanTrainerConfig config)
    : cfg_(config),
      dataset_(config.positions, config.features, config.noise,
               config.seed ^ 0x51AD5ULL) {}

double SpanTrainer::span_loss(const tensor::Tensor& logits,
                              const nn::SpanDataset::SpanBatch& batch,
                              tensor::Tensor& grad) const {
  // logits: (batch, 2 * positions). Split into start / end heads and apply
  // softmax-CE to each.
  const std::size_t b = logits.rows();
  const std::size_t p = cfg_.positions;
  tensor::Tensor start_logits({b, p}), end_logits({b, p});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      start_logits.at(r, c) = logits.at(r, c);
      end_logits.at(r, c) = logits.at(r, p + c);
    }
  }
  tensor::Tensor gs, ge;
  const double ls = nn::softmax_cross_entropy(start_logits, batch.start, gs);
  const double le = nn::softmax_cross_entropy(end_logits, batch.end, ge);
  grad = tensor::Tensor({b, 2 * p});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      grad.at(r, c) = 0.5F * gs.at(r, c);
      grad.at(r, p + c) = 0.5F * ge.at(r, c);
    }
  }
  return 0.5 * (ls + le);
}

nn::SpanMetrics SpanTrainer::evaluate(nn::Model& model) const {
  tensor::Rng rng(cfg_.seed ^ 0xE7A2ULL);
  const auto batch = dataset_.sample(512, rng);
  const auto logits = model.forward(batch.x);
  const std::size_t p = cfg_.positions;
  std::vector<int> ps(batch.start.size()), pe(batch.end.size());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    std::size_t bs = 0, be = 0;
    for (std::size_t c = 1; c < p; ++c) {
      if (logits.at(r, c) > logits.at(r, bs)) bs = c;
      if (logits.at(r, p + c) > logits.at(r, p + be)) be = c;
    }
    ps[r] = static_cast<int>(bs);
    pe[r] = static_cast<int>(be);
  }
  return nn::span_metrics(ps, pe, batch.start, batch.end);
}

SpanResult SpanTrainer::train_kfac(std::size_t iterations,
                                   const optim::LrScheduler& lr,
                                   const CompressorProvider& provider,
                                   optim::DistKfacConfig kfac_cfg) {
  auto replicas = build_replicas(
      cfg_.world,
      [&](tensor::Rng& rng) {
        return nn::make_span_model(cfg_.features, cfg_.hidden, cfg_.positions,
                                   cfg_.depth, rng);
      },
      cfg_.seed);
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas) ptrs.push_back(&m);
  auto comm = make_comm(cfg_.world);
  optim::DistKfac kfac(kfac_cfg, comm, ptrs);

  tensor::Rng data_rng(cfg_.seed ^ 0xBA7C5ULL);
  tensor::Rng sr_rng(cfg_.seed ^ 0x5123ULL);
  SpanResult result;
  for (std::size_t t = 0; t < iterations; ++t) {
    double loss = 0.0;
    for (std::size_t r = 0; r < cfg_.world; ++r) {
      const auto batch = dataset_.sample(cfg_.batch_per_rank, data_rng);
      const auto logits = replicas[r].forward(batch.x);
      tensor::Tensor grad;
      loss += span_loss(logits, batch, grad);
      replicas[r].backward(grad);
    }
    kfac.step(t, lr.lr(t), provider ? provider(t) : nullptr, sr_rng);
    result.final_loss = loss / static_cast<double>(cfg_.world);
  }
  result.metrics = evaluate(replicas[0]);
  return result;
}

SpanResult SpanTrainer::train_sgd(
    std::size_t iterations, const optim::LrScheduler& lr,
    const compress::GradientCompressor* compressor) {
  auto replicas = build_replicas(
      cfg_.world,
      [&](tensor::Rng& rng) {
        return nn::make_span_model(cfg_.features, cfg_.hidden, cfg_.positions,
                                   cfg_.depth, rng);
      },
      cfg_.seed);
  std::vector<nn::Model*> ptrs;
  for (auto& m : replicas) ptrs.push_back(&m);
  auto comm = make_comm(cfg_.world);
  optim::DistSgd sgd({.momentum = 0.9}, comm, ptrs);

  tensor::Rng data_rng(cfg_.seed ^ 0xBA7C5ULL);
  tensor::Rng sr_rng(cfg_.seed ^ 0x5124ULL);
  SpanResult result;
  for (std::size_t t = 0; t < iterations; ++t) {
    double loss = 0.0;
    for (std::size_t r = 0; r < cfg_.world; ++r) {
      const auto batch = dataset_.sample(cfg_.batch_per_rank, data_rng);
      const auto logits = replicas[r].forward(batch.x);
      tensor::Tensor grad;
      loss += span_loss(logits, batch, grad);
      replicas[r].backward(grad);
    }
    sgd.step(lr.lr(t), compressor, sr_rng);
    result.final_loss = loss / static_cast<double>(cfg_.world);
  }
  result.metrics = evaluate(replicas[0]);
  return result;
}

}  // namespace compso::core
