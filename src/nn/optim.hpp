// Optimization: AdamW, gradient clipping and a warmup-cosine LR schedule —
// the standard recipe for ViT training (paper §III-B).
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace turbda::nn {

struct AdamWConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

class AdamW {
 public:
  AdamW(std::vector<Param*> params, AdamWConfig cfg);

  /// One update from the accumulated gradients; does not zero them.
  void step();

  void zero_grad();

  void set_lr(double lr) { cfg_.lr = lr; }
  [[nodiscard]] double lr() const { return cfg_.lr; }

 private:
  std::vector<Param*> params_;
  AdamWConfig cfg_;
  std::vector<std::vector<double>> m_, v_;
  long t_ = 0;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
double clip_grad_norm(const std::vector<Param*>& params, double max_norm);

/// Linear warmup followed by cosine decay to zero.
[[nodiscard]] double warmup_cosine_lr(double base_lr, long step, long warmup_steps,
                                      long total_steps);

/// Mean-squared-error loss over all elements; writes d(loss)/d(pred) into
/// `grad` (same shape as pred).
double mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad);

}  // namespace turbda::nn
