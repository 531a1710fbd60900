// Multi-head self-attention (paper Fig. 2): the compute-intensive GEMM core
// of the ViT surrogate whose kernel shapes drive the Fig. 6 sizing study.
#pragma once

#include <memory>

#include "nn/layers.hpp"

namespace turbda::nn {

class MultiHeadSelfAttention final : public Module {
 public:
  /// `tokens` is the fixed sequence length T; forward infers the batch from
  /// rows / T. embed must be divisible by heads.
  MultiHeadSelfAttention(std::size_t embed, std::size_t heads, std::size_t tokens, rng::Rng* rng,
                         const std::string& name = "attn");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

 private:
  std::size_t c_, h_, t_, dh_;
  double scale_;
  Linear wq_, wk_, wv_, wo_;

  // Cached activations for backward.
  Tensor q_, k_, v_;   // (B*T, C)
  Tensor attn_;        // (B*heads, T, T) softmax probabilities
  Tensor concat_;      // (B*T, C) pre-projection
};

}  // namespace turbda::nn
