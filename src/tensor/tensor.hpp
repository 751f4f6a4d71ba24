#pragma once
// Minimal dense FP32 tensor used throughout the library.
//
// Deliberately simple: row-major contiguous storage, shapes up to rank 4.
// All heavy math lives in matrix_ops / eigen; Tensor is a container with
// element-wise conveniences.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace compso::tensor {

/// Row-major dense FP32 tensor.
class Tensor {
 public:
  Tensor() = default;
  /// Construct zero-filled with the given shape.
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape)
      : Tensor(std::vector<std::size_t>(shape)) {}

  /// Construct from existing data (size must match product of shape).
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  static Tensor zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape));
  }
  static Tensor full(std::vector<std::size_t> shape, float value);

  const std::vector<std::size_t>& shape() const noexcept { return shape_; }
  std::size_t rank() const noexcept { return shape_.size(); }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Number of rows / cols (valid for rank-2 tensors).
  std::size_t rows() const noexcept {
    assert(rank() == 2);
    return shape_[0];
  }
  std::size_t cols() const noexcept {
    assert(rank() == 2);
    return shape_[1];
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> span() noexcept { return {data_.data(), data_.size()}; }
  std::span<const float> span() const noexcept {
    return {data_.data(), data_.size()};
  }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }

  /// 2-D accessors.
  float& at(std::size_t r, std::size_t c) noexcept {
    assert(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }
  float at(std::size_t r, std::size_t c) const noexcept {
    assert(rank() == 2 && r < shape_[0] && c < shape_[1]);
    return data_[r * shape_[1] + c];
  }

  /// Reshape in place (total size must be preserved).
  void reshape(std::vector<std::size_t> shape);

  /// Element-wise in-place operations.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator*=(float s);
  /// this = alpha * this + beta * other  (same shapes).
  Tensor& axpby(float alpha, float beta, const Tensor& other);
  void fill(float value) noexcept;

  /// Process-wide count of shape-constructing allocations (the explicit
  /// shape / shape+data constructors, including zeros/full/eye). Tests
  /// diff this across steps to assert steady-state code paths reuse
  /// their workspaces instead of re-materialising zero tensors.
  static std::uint64_t allocation_count() noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<std::uint64_t> allocations_;

  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Product of a shape vector.
std::size_t shape_size(std::span<const std::size_t> shape) noexcept;

}  // namespace compso::tensor
