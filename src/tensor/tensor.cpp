#include "src/tensor/tensor.hpp"

#include <numeric>
#include <stdexcept>

namespace compso::tensor {

std::size_t shape_size(std::span<const std::size_t> shape) noexcept {
  std::size_t n = 1;
  for (auto d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::atomic<std::uint64_t> Tensor::allocations_{0};

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0F) {
  allocations_.fetch_add(1, std::memory_order_relaxed);
}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_size(shape_)) {
    throw std::invalid_argument("Tensor: data size does not match shape");
  }
  allocations_.fetch_add(1, std::memory_order_relaxed);
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

void Tensor::reshape(std::vector<std::size_t> shape) {
  if (shape_size(shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshape: size mismatch");
  }
  shape_ = std::move(shape);
}

Tensor& Tensor::operator+=(const Tensor& other) {
  if (other.size() != size()) {
    throw std::invalid_argument("Tensor::operator+=: size mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor& Tensor::axpby(float alpha, float beta, const Tensor& other) {
  if (other.size() != size()) {
    throw std::invalid_argument("Tensor::axpby: size mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] = alpha * data_[i] + beta * other.data_[i];
  }
  return *this;
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace compso::tensor
