// SQG-ViT: the vision-transformer surrogate of the forecast model
// (paper §III-B, Fig. 2). A standard pre-norm ViT backbone:
//
//   field -> PatchEmbed -> +pos -> [LN -> MHSA -> +res, LN -> MLP -> +res]*L
//         -> LN -> head -> field increment;  prediction = input + increment.
//
// It has no dropout or stochastic depth, so a forward pass is a pure
// function of the weights and the input, and training and forecasting run
// the same layers. The architecture knobs (embed dim, heads, MLP ratio,
// depth, patch) are those swept in the Fig. 6 kernel-sizing study and fixed
// in Table II.
#pragma once

#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layers.hpp"

namespace turbda::nn {

struct VitConfig {
  std::size_t image = 64;    ///< input side length (64/128/256 in Table II)
  std::size_t patch = 8;     ///< patch side (Table II uses 4)
  std::size_t channels = 2;  ///< SQG has two boundary levels
  std::size_t embed_dim = 64;
  std::size_t depth = 2;
  std::size_t heads = 4;
  double mlp_ratio = 4.0;
  std::uint64_t seed = 1;

  [[nodiscard]] std::size_t tokens() const { return (image / patch) * (image / patch); }
  [[nodiscard]] std::size_t patch_dim() const { return patch * patch * channels; }
  [[nodiscard]] std::size_t state_dim() const { return image * image * channels; }
  [[nodiscard]] std::size_t mlp_hidden() const {
    return static_cast<std::size_t>(mlp_ratio * static_cast<double>(embed_dim));
  }

  /// Exact learnable-parameter count (used to verify Table II: 157M / 1.2B /
  /// 2.5B) without instantiating the network.
  [[nodiscard]] std::size_t param_count() const;
};

/// MLP: Linear -> GELU -> Linear (paper Fig. 2; its width ratio dominates
/// the parameter count).
class Mlp final : public Module {
 public:
  Mlp(std::size_t embed, std::size_t hidden, rng::Rng* rng, const std::string& name);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

 private:
  Linear fc1_, fc2_;
  Gelu act_;
};

/// Pre-norm transformer block: x + MHSA(LN(x)), then y + MLP(LN(y)).
class TransformerBlock final : public Module {
 public:
  TransformerBlock(const VitConfig& cfg, rng::Rng* rng, const std::string& name);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

 private:
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  Mlp mlp_;
};

/// Patchify: (B, state_dim) -> (B*T, patch_dim) and its inverse. The state
/// layout matches SqgModel: level-major, row-major n x n per level.
class PatchEmbed final : public Module {
 public:
  PatchEmbed(const VitConfig& cfg, rng::Rng* rng);

  Tensor forward(const Tensor& x) override;  // (B, D_state) -> (B*T, E)
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

  /// Gathers patches without projecting: (B, D_state) -> (B*T, patch_dim).
  [[nodiscard]] Tensor patchify(const Tensor& x) const;

  /// Inverse gather: (B*T, patch_dim) -> (B, D_state).
  [[nodiscard]] Tensor unpatchify(const Tensor& p, std::size_t batch) const;

 private:
  VitConfig cfg_;
  Linear proj_;
  std::vector<std::size_t> gather_;  // token-major index map into the state
  Tensor patches_;                   // cached for backward
};

class ViT final : public Module {
 public:
  explicit ViT(const VitConfig& cfg);

  /// x: (B, state_dim) batch of flattened fields; returns the predicted
  /// next states (input + learned increment).
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;

  [[nodiscard]] const VitConfig& config() const { return cfg_; }

  /// All parameters in registration order.
  [[nodiscard]] std::vector<Param*> parameters();

  [[nodiscard]] std::size_t num_params();

  /// Flat (de)serialization for checkpoints.
  [[nodiscard]] std::vector<double> state_vector();
  void load_state_vector(std::span<const double> state);

 private:
  VitConfig cfg_;
  rng::Rng rng_;
  PatchEmbed embed_;
  Param pos_;  ///< learned positional embedding (T, E)
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  LayerNorm final_ln_;
  Linear head_;
  std::size_t batch_ = 0;  // batch of the last forward (for backward)
};

}  // namespace turbda::nn
