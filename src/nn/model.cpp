#include "src/nn/model.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace compso::nn {

Tensor Model::forward(const Tensor& x) {
  if (layers_.empty()) return x;
  Tensor h = layers_.front()->forward(x);
  for (std::size_t i = 1; i < layers_.size(); ++i) h = layers_[i]->forward(h);
  return h;
}

void Model::backward(Tensor grad_out) {
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad_out = layers_[i]->backward(std::move(grad_out), /*input_grad=*/i > 0);
  }
}

std::vector<std::size_t> Model::trainable_layers() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->has_params()) out.push_back(i);
  }
  return out;
}

std::size_t Model::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    if (!l->has_params()) continue;
    auto* lp = const_cast<Layer*>(l.get());
    if (auto* w = lp->weight()) n += w->size();
    if (auto* b = lp->bias()) n += b->size();
  }
  return n;
}

double softmax_cross_entropy(const Tensor& logits,
                             const std::vector<int>& labels, Tensor& grad) {
  if (logits.rank() != 2 || logits.rows() != labels.size()) {
    throw std::invalid_argument("softmax_cross_entropy: shape mismatch");
  }
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  grad = Tensor({batch, classes});
  std::vector<double> e(classes);  // exp(logit - max) of one row.
  double total = 0.0;
  for (std::size_t r = 0; r < batch; ++r) {
    // Stable softmax.
    float maxv = logits.at(r, 0);
    for (std::size_t c = 1; c < classes; ++c) {
      maxv = std::max(maxv, logits.at(r, c));
    }
    double denom = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      e[c] = std::exp(static_cast<double>(logits.at(r, c) - maxv));
      denom += e[c];
    }
    const int y = labels[r];
    if (y < 0 || static_cast<std::size_t>(y) >= classes) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    const double logp =
        static_cast<double>(logits.at(r, static_cast<std::size_t>(y)) - maxv) -
        std::log(denom);
    total -= logp;
    for (std::size_t c = 0; c < classes; ++c) {
      const double p = e[c] / denom;
      grad.at(r, c) = static_cast<float>(
          (p - (static_cast<std::size_t>(y) == c ? 1.0 : 0.0)) /
          static_cast<double>(batch));
    }
  }
  return total / static_cast<double>(batch);
}

double span_cross_entropy(const Tensor& logits, const std::vector<int>& start,
                          const std::vector<int>& end, Tensor& grad) {
  if (logits.rank() != 2 || logits.cols() % 2 != 0) {
    throw std::invalid_argument("span_cross_entropy: shape mismatch");
  }
  const std::size_t b = logits.rows();
  const std::size_t p = logits.cols() / 2;
  Tensor start_logits({b, p}), end_logits({b, p});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      start_logits.at(r, c) = logits.at(r, c);
      end_logits.at(r, c) = logits.at(r, p + c);
    }
  }
  Tensor gs, ge;
  const double ls = softmax_cross_entropy(start_logits, start, gs);
  const double le = softmax_cross_entropy(end_logits, end, ge);
  grad = Tensor({b, 2 * p});
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      grad.at(r, c) = 0.5F * gs.at(r, c);
      grad.at(r, p + c) = 0.5F * ge.at(r, c);
    }
  }
  return 0.5 * (ls + le);
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
  if (logits.rank() != 2 || logits.rows() != labels.size() || labels.empty()) {
    throw std::invalid_argument("accuracy: shape mismatch");
  }
  std::size_t correct = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < logits.cols(); ++c) {
      if (logits.at(r, c) > logits.at(r, best)) best = c;
    }
    correct += static_cast<int>(best) == labels[r] ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace compso::nn
