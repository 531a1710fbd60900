#include "nn/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace turbda::nn {

// ------------------------------------------------------------ FieldScaler ---

void FieldScaler::fit(const Tensor& states) {
  TURBDA_REQUIRE(states.rank() == 2 && states.size() > 0, "FieldScaler: need (N, D) samples");
  double s = 0.0, s2 = 0.0;
  for (double v : states.flat()) {
    s += v;
    s2 += v * v;
  }
  const double n = static_cast<double>(states.size());
  mean_ = s / n;
  const double var = std::max(1e-30, s2 / n - mean_ * mean_);
  std_ = std::sqrt(var);
}

void FieldScaler::normalize(std::span<double> state) const {
  for (double& v : state) v = (v - mean_) / std_;
}

void FieldScaler::denormalize(std::span<double> state) const {
  for (double& v : state) v = v * std_ + mean_;
}

// ------------------------------------------------------ SurrogateForecast ---

SurrogateForecast::SurrogateForecast(std::shared_ptr<ViT> vit, FieldScaler scaler)
    : vit_(std::move(vit)), scaler_(scaler) {}

void SurrogateForecast::forecast(std::span<double> state) {
  TURBDA_REQUIRE(state.size() == dim(), "SurrogateForecast: state size mismatch");
  Tensor x({1, dim()});
  std::copy(state.begin(), state.end(), x.flat().begin());
  scaler_.normalize(x.flat());
  const Tensor y = vit_->forward(x);
  std::copy(y.flat().begin(), y.flat().end(), state.begin());
  scaler_.denormalize(state);
}

// ------------------------------------------------------- SurrogateTrainer ---

SurrogateTrainer::SurrogateTrainer(std::shared_ptr<ViT> vit, const FieldScaler& scaler,
                                   AdamWConfig opt_cfg, double clip_norm)
    : vit_(std::move(vit)), scaler_(scaler), opt_(vit_->parameters(), opt_cfg),
      clip_norm_(clip_norm) {}

TrainStats SurrogateTrainer::train_batch(const Tensor& x, const Tensor& y) {
  Tensor xn = x, yn = y;
  scaler_.normalize(xn.flat());
  scaler_.normalize(yn.flat());
  opt_.zero_grad();
  const Tensor pred = vit_->forward(xn);
  Tensor grad;
  TrainStats st;
  st.loss = mse_loss(pred, yn, grad);
  vit_->backward(grad);
  st.grad_norm = clip_grad_norm(vit_->parameters(), clip_norm_);
  opt_.step();
  return st;
}

std::vector<double> SurrogateTrainer::fit(const Tensor& xs, const Tensor& ys, int epochs,
                                          std::size_t batch_size, double base_lr, rng::Rng& rng) {
  TURBDA_REQUIRE(xs.rank() == 2 && ys.rank() == 2 && xs.extent(0) == ys.extent(0),
                 "fit: paired (N, D) datasets required");
  const std::size_t n = xs.extent(0), d = xs.extent(1);
  const std::size_t nb = (n + batch_size - 1) / batch_size;
  const long total_steps = static_cast<long>(nb) * epochs;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  std::vector<double> epoch_losses;
  long step = 0;
  for (int e = 0; e < epochs; ++e) {
    rng.shuffle(std::span<std::size_t>(order));
    double sum_loss = 0.0;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t lo = b * batch_size;
      const std::size_t hi = std::min(n, lo + batch_size);
      Tensor xb({hi - lo, d}), yb({hi - lo, d});
      for (std::size_t i = lo; i < hi; ++i) {
        std::copy(xs.row(order[i]).begin(), xs.row(order[i]).end(), xb.row(i - lo).begin());
        std::copy(ys.row(order[i]).begin(), ys.row(order[i]).end(), yb.row(i - lo).begin());
      }
      opt_.set_lr(warmup_cosine_lr(base_lr, step, total_steps / 20, total_steps));
      sum_loss += train_batch(xb, yb).loss * static_cast<double>(hi - lo);
      ++step;
    }
    epoch_losses.push_back(sum_loss / static_cast<double>(n));
  }
  return epoch_losses;
}

// ---------------------------------------------------------- OnlineTrainer ---

OnlineTrainer::OnlineTrainer(std::shared_ptr<ViT> vit, const FieldScaler& scaler,
                             AdamWConfig opt_cfg, std::size_t buffer_capacity,
                             int steps_per_cycle)
    : trainer_(std::move(vit), scaler, opt_cfg), capacity_(buffer_capacity),
      steps_(steps_per_cycle) {
  TURBDA_REQUIRE(capacity_ >= 1 && steps_ >= 0, "bad online-trainer configuration");
}

TrainStats OnlineTrainer::observe_transition(std::span<const double> prev_analysis,
                                             std::span<const double> next_analysis,
                                             rng::Rng& rng) {
  pairs_.emplace_back(std::vector<double>(prev_analysis.begin(), prev_analysis.end()),
                      std::vector<double>(next_analysis.begin(), next_analysis.end()));
  if (pairs_.size() > capacity_) pairs_.pop_front();

  TrainStats last{};
  const std::size_t d = prev_analysis.size();
  const std::size_t batch = std::min<std::size_t>(8, pairs_.size());
  for (int s = 0; s < steps_; ++s) {
    Tensor xb({batch, d}), yb({batch, d});
    for (std::size_t i = 0; i < batch; ++i) {
      const auto& pr = pairs_[rng.uniform_int(pairs_.size())];
      std::copy(pr.first.begin(), pr.first.end(), xb.row(i).begin());
      std::copy(pr.second.begin(), pr.second.end(), yb.row(i).begin());
    }
    last = trainer_.train_batch(xb, yb);
  }
  return last;
}

}  // namespace turbda::nn
