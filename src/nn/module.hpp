// Module base for the from-scratch neural-network stack behind the ViT
// surrogate (paper §III-B). Modules cache forward activations and implement
// hand-derived backward passes; parameters are exposed through a flat list
// so optimizers never inspect module types.
#pragma once

#include <string>
#include <vector>

#include "rng/rng.hpp"
#include "tensor/tensor.hpp"

namespace turbda::nn {

using tensor::Tensor;

/// A learnable tensor with its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n) : name(std::move(n)) {}

  void reset_shape(std::initializer_list<std::size_t> shape) {
    value.reset(shape);
    grad.reset(shape);
  }

  void zero_grad() { grad.fill(0.0); }

  [[nodiscard]] std::size_t size() const { return value.size(); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// x: (rows, features) row-major; returns activations of the same rows.
  virtual Tensor forward(const Tensor& x) = 0;

  /// grad w.r.t. output -> grad w.r.t. input; accumulates parameter grads.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Append pointers to all learnable parameters (stable order).
  virtual void collect_params(std::vector<Param*>& /*out*/) {}

  /// Train/eval switch (dropout & droppath act only in training).
  virtual void set_training(bool training) { training_ = training; }

  [[nodiscard]] bool training() const { return training_; }

 protected:
  bool training_ = true;
};

/// Truncated-normal-ish init used for all weight matrices (std scaled by
/// fan-in, values clipped at 2 std) — the standard ViT initialization.
inline void init_trunc_normal(Tensor& w, double std_dev, rng::Rng& rng) {
  for (double& v : w.flat()) {
    double g = rng.gaussian();
    while (std::abs(g) > 2.0) g = rng.gaussian();
    v = g * std_dev;
  }
}

}  // namespace turbda::nn
