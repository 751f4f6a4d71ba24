#include "src/nn/layer.hpp"

#include "src/tensor/matrix_ops.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace compso::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               tensor::Rng& rng, std::string name)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      weight_grad_({out_features, in_features}),
      bias_grad_({out_features}) {
  // Kaiming-uniform-ish init.
  const float bound = std::sqrt(6.0F / static_cast<float>(in_features));
  rng.fill_uniform(weight_.span(), -bound, bound);
  bias_.fill(0.0F);
}

Tensor Linear::forward(const Tensor& x) {
  if (x.rank() != 2 || x.cols() != in_) {
    throw std::invalid_argument("Linear::forward: bad input shape");
  }
  // Augmented input for KFAC's A factor: [x | 1], the only copy of x the
  // layer keeps (backward reads x as its first in_ columns). Reuses the
  // previous step's allocation when the batch shape is unchanged (every
  // element is overwritten below).
  tensor::ensure_shape2(input_aug_, x.rows(), in_ + 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < in_; ++c) input_aug_.at(r, c) = x.at(r, c);
    input_aug_.at(r, in_) = 1.0F;
  }
  Tensor y;
  tensor::gemm_nt(x, weight_, y);  // (batch, out)
  for (std::size_t r = 0; r < y.rows(); ++r) {
    for (std::size_t c = 0; c < out_; ++c) y.at(r, c) += bias_[c];
  }
  return y;
}

Tensor Linear::backward(Tensor grad_out, bool input_grad) {
  if (grad_out.rank() != 2 || grad_out.cols() != out_ ||
      input_aug_.rank() != 2 || grad_out.rows() != input_aug_.rows()) {
    throw std::invalid_argument("Linear::backward: bad gradient shape");
  }
  grad_out_ = std::move(grad_out);
  // dW = grad_out^T x ; db = sum_rows(grad_out) ; dx = grad_out W.
  const tensor::MatrixView x(input_aug_.data(), input_aug_.rows(), in_,
                             in_ + 1);
  tensor::gemm_tn(grad_out_, x, weight_grad_);
  bias_grad_.fill(0.0F);
  for (std::size_t r = 0; r < grad_out_.rows(); ++r) {
    for (std::size_t c = 0; c < out_; ++c) {
      bias_grad_[c] += grad_out_.at(r, c);
    }
  }
  Tensor grad_in;
  if (input_grad) tensor::gemm(grad_out_, weight_, grad_in);
  return grad_in;
}

Tensor Relu::forward(const Tensor& x) {
  // Both outputs are sized, not copied: every element is written below.
  if (mask_.shape() != x.shape()) mask_ = Tensor(x.shape());
  Tensor y(x.shape());
  // Selects, not a branch: the sign of an activation is a coin flip.
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = x[i] < 0.0F ? 0.0F : x[i];
    mask_[i] = x[i] > 0.0F ? 1.0F : 0.0F;
  }
  return y;
}

Tensor Relu::backward(Tensor grad_out, bool input_grad) {
  if (grad_out.size() != mask_.size()) {
    throw std::invalid_argument("Relu::backward: shape mismatch");
  }
  if (!input_grad) return {};
  for (std::size_t i = 0; i < grad_out.size(); ++i) grad_out[i] *= mask_[i];
  return grad_out;
}

Tensor Tanh::forward(const Tensor& x) {
  out_ = x;
  for (auto& v : out_.span()) v = std::tanh(v);
  return out_;
}

Tensor Tanh::backward(Tensor grad_out, bool input_grad) {
  if (grad_out.size() != out_.size()) {
    throw std::invalid_argument("Tanh::backward: shape mismatch");
  }
  if (!input_grad) return {};
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_out[i] *= 1.0F - out_[i] * out_[i];
  }
  return grad_out;
}

}  // namespace compso::nn
