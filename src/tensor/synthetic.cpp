#include "src/tensor/synthetic.hpp"

namespace compso::tensor {

std::vector<float> synthetic_gradient(std::size_t n, const GradientProfile& p,
                                      Rng& rng) {
  std::vector<float> out(n);
  for (auto& v : out) {
    const float u = rng.uniform();
    if (u < p.near_zero_fraction) {
      v = rng.laplace(p.near_zero_scale);
    } else {
      v = rng.laplace(p.body_scale);
    }
    if (rng.uniform() < p.outlier_fraction) v *= p.outlier_multiplier;
  }
  return out;
}

}  // namespace compso::tensor
