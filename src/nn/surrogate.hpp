// ViT surrogate as a ForecastModel, plus offline pretraining and the
// paper's *online* adaptation loop (§III-B: "online training of the ViT
// surrogate using observational data", realized here by fine-tuning on the
// analysis states the filter produces each cycle).
#pragma once

#include <deque>
#include <memory>

#include "models/forecast_model.hpp"
#include "nn/optim.hpp"
#include "nn/vit.hpp"

namespace turbda::nn {

/// Per-variable affine normalization fitted on climatology; ViTs train on
/// standardized fields.
class FieldScaler {
 public:
  FieldScaler() = default;

  /// Fit a single global mean/std over a sample of states.
  void fit(const Tensor& states);

  void normalize(std::span<double> state) const;
  void denormalize(std::span<double> state) const;

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double std_dev() const { return std_; }

 private:
  double mean_ = 0.0;
  double std_ = 1.0;
};

/// Wraps a ViT as the forecast model f_k of Eq. (1): one forward pass per
/// assimilation window, in normalized space.
class SurrogateForecast final : public models::ForecastModel {
 public:
  SurrogateForecast(std::shared_ptr<ViT> vit, FieldScaler scaler);

  [[nodiscard]] std::size_t dim() const override { return vit_->config().state_dim(); }
  void forecast(std::span<double> state) override;
  [[nodiscard]] std::string name() const override { return "vit-surrogate"; }

  [[nodiscard]] ViT& vit() { return *vit_; }
  [[nodiscard]] const FieldScaler& scaler() const { return scaler_; }

 private:
  std::shared_ptr<ViT> vit_;
  FieldScaler scaler_;
};

struct TrainStats {
  double loss = 0.0;
  double grad_norm = 0.0;
};

/// Offline supervised training on (state_k, state_{k+1}) pairs generated
/// from the reference dynamics.
class SurrogateTrainer {
 public:
  SurrogateTrainer(std::shared_ptr<ViT> vit, const FieldScaler& scaler, AdamWConfig opt_cfg,
                   double clip_norm = 1.0);

  /// One optimization step on a batch of (x, y) state pairs (raw units; the
  /// trainer normalizes internally). Returns loss in normalized units.
  TrainStats train_batch(const Tensor& x, const Tensor& y);

  /// Full training loop over a dataset of pairs with warmup-cosine schedule.
  std::vector<double> fit(const Tensor& xs, const Tensor& ys, int epochs, std::size_t batch_size,
                          double base_lr, rng::Rng& rng);

  [[nodiscard]] AdamW& optimizer() { return opt_; }

 private:
  std::shared_ptr<ViT> vit_;
  FieldScaler scaler_;
  AdamW opt_;
  double clip_norm_;
};

/// The real-time adaptation loop: keeps a rolling replay buffer of analysis
/// transitions (x_{k-1}^a -> x_k^a) and fine-tunes the surrogate a few steps
/// every assimilation cycle, which is the workload the paper scales on
/// Frontier.
class OnlineTrainer {
 public:
  OnlineTrainer(std::shared_ptr<ViT> vit, const FieldScaler& scaler, AdamWConfig opt_cfg,
                std::size_t buffer_capacity = 64, int steps_per_cycle = 2);

  /// Feed one transition observed by the DA system; runs the configured
  /// number of fine-tuning steps once at least one pair is buffered.
  TrainStats observe_transition(std::span<const double> prev_analysis,
                                std::span<const double> next_analysis, rng::Rng& rng);

  [[nodiscard]] std::size_t buffered() const { return pairs_.size(); }

 private:
  std::shared_ptr<ViT> vit_;
  FieldScaler scaler_;
  AdamW opt_;
  std::size_t capacity_;
  int steps_;
  std::deque<std::pair<std::vector<double>, std::vector<double>>> pairs_;
};

}  // namespace turbda::nn
