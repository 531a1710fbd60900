// Basic layers: Linear, LayerNorm, GELU.
#pragma once

#include <memory>

#include "nn/module.hpp"

namespace turbda::nn {

/// y = x W + b with x (N, in), W (in, out).
class Linear final : public Module {
 public:
  Linear(std::size_t in, std::size_t out, rng::Rng& rng, std::string name = "linear");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

  Param weight;  ///< (in, out)
  Param bias;    ///< (out)

 private:
  std::size_t in_, out_;
  Tensor x_;  // cached input
};

/// Per-row layer normalization over the feature dimension with learnable
/// gain/bias ("normalization layers before and after the attention
/// mechanism", paper Fig. 2).
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::size_t features, std::string name = "ln", double eps = 1e-5);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

  Param gain;  ///< (features)
  Param bias;  ///< (features)

 private:
  std::size_t c_;
  double eps_;
  Tensor xhat_;                // cached normalized input
  std::vector<double> inv_sd_; // cached 1/sigma per row
};

/// GELU activation (tanh approximation, as in standard ViT MLPs).
class Gelu final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor x_;
};

}  // namespace turbda::nn
