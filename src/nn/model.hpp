#pragma once
// Sequential model container + losses.

#include "src/nn/layer.hpp"

#include <memory>
#include <vector>

namespace compso::nn {

/// A sequential stack of layers.
class Model {
 public:
  Model() = default;

  Model& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  Tensor forward(const Tensor& x);
  /// Backward from the loss gradient w.r.t. the model output; each
  /// layer's input gradient is handed to the layer below by move.
  void backward(Tensor grad_out);

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) noexcept { return *layers_[i]; }
  const Layer& layer(std::size_t i) const noexcept { return *layers_[i]; }

  /// Indices of layers with trainable parameters.
  std::vector<std::size_t> trainable_layers() const;
  /// Total trainable parameter count.
  std::size_t parameter_count() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Softmax cross-entropy over logits (batch, classes). Returns mean loss;
/// writes d(loss)/d(logits) into `grad` (allocated to logits' shape).
double softmax_cross_entropy(const Tensor& logits,
                             const std::vector<int>& labels, Tensor& grad);

/// Span-extraction loss over logits (batch, 2·positions): the first
/// `positions` columns are the start head, the rest the end head. Returns
/// the mean of the two heads' softmax cross-entropies; grad as above.
double span_cross_entropy(const Tensor& logits, const std::vector<int>& start,
                          const std::vector<int>& end, Tensor& grad);

/// Classification accuracy of logits vs labels.
double accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace compso::nn
