#include "nn/optim.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/math_utils.hpp"

namespace turbda::nn {

AdamW::AdamW(std::vector<Param*> params, AdamWConfig cfg)
    : params_(std::move(params)), cfg_(cfg) {
  TURBDA_REQUIRE(!params_.empty(), "AdamW needs parameters");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->size(), 0.0);
    v_.emplace_back(p->size(), 0.0);
  }
}

void AdamW::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param& p = *params_[i];
    auto w = p.value.flat();
    const auto g = p.grad.flat();
    auto& m = m_[i];
    auto& v = v_[i];
    for (std::size_t j = 0; j < w.size(); ++j) {
      m[j] = cfg_.beta1 * m[j] + (1.0 - cfg_.beta1) * g[j];
      v[j] = cfg_.beta2 * v[j] + (1.0 - cfg_.beta2) * g[j] * g[j];
      const double mhat = m[j] / bc1;
      const double vhat = v[j] / bc2;
      // Decoupled weight decay (AdamW).
      w[j] -= cfg_.lr * (mhat / (std::sqrt(vhat) + cfg_.eps) + cfg_.weight_decay * w[j]);
    }
  }
}

void AdamW::zero_grad() {
  for (Param* p : params_) p->zero_grad();
}

double clip_grad_norm(const std::vector<Param*>& params, double max_norm) {
  double sq = 0.0;
  for (const Param* p : params)
    for (double g : p->grad.flat()) sq += g * g;
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (Param* p : params)
      for (double& g : p->grad.flat()) g *= scale;
  }
  return norm;
}

double warmup_cosine_lr(double base_lr, long step, long warmup_steps, long total_steps) {
  TURBDA_REQUIRE(total_steps > 0, "total_steps must be positive");
  if (warmup_steps > 0 && step < warmup_steps)
    return base_lr * static_cast<double>(step + 1) / static_cast<double>(warmup_steps);
  const double progress = static_cast<double>(step - warmup_steps) /
                          static_cast<double>(std::max<long>(1, total_steps - warmup_steps));
  return 0.5 * base_lr * (1.0 + std::cos(kPi * std::min(1.0, progress)));
}

double mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad) {
  TURBDA_REQUIRE(pred.size() == target.size(), "mse_loss: shape mismatch");
  grad.reset(pred.shape());
  const auto pf = pred.flat();
  const auto tf = target.flat();
  auto gf = grad.flat();
  double loss = 0.0;
  const double inv = 1.0 / static_cast<double>(pf.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    const double d = pf[i] - tf[i];
    loss += d * d;
    gf[i] = 2.0 * d * inv;
  }
  return loss * inv;
}

}  // namespace turbda::nn
