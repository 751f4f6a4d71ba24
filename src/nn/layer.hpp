#pragma once
// Minimal NN layer abstraction with the two hooks KFAC needs (paper Eq. 1):
// each trainable layer exposes its last input activations a_{l-1} and its
// last output-gradient g_l, from which the Kronecker factors A = a a^T and
// G = g g^T are accumulated.

#include "src/tensor/rng.hpp"
#include "src/tensor/tensor.hpp"

#include <memory>
#include <string>
#include <string_view>

namespace compso::nn {

using tensor::Tensor;

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Forward pass; `x` is (batch, in_features).
  virtual Tensor forward(const Tensor& x) = 0;

  /// Backward pass; `grad_out` is (batch, out_features), handed over so a
  /// layer can keep it or reuse its storage; stores parameter gradients
  /// internally and returns the (batch, in_features) input gradient, or
  /// an empty tensor when `input_grad` is false (the first layer's, which
  /// nothing reads).
  virtual Tensor backward(Tensor grad_out, bool input_grad = true) = 0;

  /// True for layers with trainable parameters (KFAC targets these).
  virtual bool has_params() const noexcept { return false; }

  /// Parameter / gradient access (only when has_params()).
  virtual Tensor* weight() noexcept { return nullptr; }
  virtual Tensor* bias() noexcept { return nullptr; }
  virtual Tensor* weight_grad() noexcept { return nullptr; }
  virtual Tensor* bias_grad() noexcept { return nullptr; }

  /// KFAC hooks: activations into this layer (with the bias-homogeneous
  /// column appended) and gradients out of it, captured last step.
  virtual const Tensor* kfac_input() const noexcept { return nullptr; }
  virtual const Tensor* kfac_grad_output() const noexcept { return nullptr; }
};

/// Fully-connected layer: y = x W^T + b. Weight is (out, in).
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, tensor::Rng& rng,
         std::string name = "linear");

  std::string_view name() const noexcept override { return name_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(Tensor grad_out, bool input_grad = true) override;
  bool has_params() const noexcept override { return true; }
  Tensor* weight() noexcept override { return &weight_; }
  Tensor* bias() noexcept override { return &bias_; }
  Tensor* weight_grad() noexcept override { return &weight_grad_; }
  Tensor* bias_grad() noexcept override { return &bias_grad_; }
  const Tensor* kfac_input() const noexcept override { return &input_aug_; }
  const Tensor* kfac_grad_output() const noexcept override {
    return &grad_out_;
  }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::string name_;
  std::size_t in_, out_;
  Tensor weight_;       // (out, in)
  Tensor bias_;         // (out)
  Tensor weight_grad_;  // (out, in)
  Tensor bias_grad_;    // (out)
  Tensor input_aug_;    // (batch, in+1) last forward input [x | 1] (KFAC)
  Tensor grad_out_;     // (batch, out) last backward grad
};

/// ReLU activation: y = x < 0 ? 0 : x, so -0.0 and NaN pass through as
/// they come; the backward mask is x > 0 (DESIGN.md §11.6).
class Relu final : public Layer {
 public:
  std::string_view name() const noexcept override { return "relu"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(Tensor grad_out, bool input_grad = true) override;

 private:
  Tensor mask_;
};

/// Tanh activation.
class Tanh final : public Layer {
 public:
  std::string_view name() const noexcept override { return "tanh"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(Tensor grad_out, bool input_grad = true) override;

 private:
  Tensor out_;
};

}  // namespace compso::nn
