// The paper's imperfect-model scenario (§IV-A-b):
//
//   "random model errors drawn from an uncorrelated Gaussian distribution
//    ... white in time, but comprised of four stochastic processes
//    characterized by a different probability of occurrence and amplitude —
//    20%, 15%, 10% and 5% chance of realization with amplitudes equal to
//    20%, 30%, 40% and 50% of the average SQG model values."
//
// Each time the process fires for component c, iid Gaussian noise with
// standard deviation amplitude[c] * reference_scale is added to the state,
// where reference_scale is the time-average RMS magnitude of the model state
// ("average SQG model values").
#pragma once

#include <array>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace turbda::models {

struct ModelErrorConfig {
  std::array<double, 4> probabilities{0.20, 0.15, 0.10, 0.05};
  std::array<double, 4> amplitudes{0.20, 0.30, 0.40, 0.50};
  /// "average SQG model values" — RMS state magnitude the amplitudes are
  /// relative to. Must be set from a long model integration.
  double reference_scale = 1.0;
};

class ModelErrorProcess {
 public:
  explicit ModelErrorProcess(ModelErrorConfig cfg) : cfg_(cfg) {}

  /// Draws one window's error realization. The runner adds the same draw to
  /// every ensemble member (a systematic model bias per window): the
  /// ensemble spread cannot see such errors, which is what breaks
  /// covariance-based filters in the paper's Fig. 4.
  [[nodiscard]] std::vector<double> sample(std::size_t dim, rng::Rng& rng) const {
    std::vector<double> err(dim, 0.0);
    for (std::size_t c = 0; c < cfg_.probabilities.size(); ++c) {
      if (!rng.bernoulli(cfg_.probabilities[c])) continue;
      const double sd = cfg_.amplitudes[c] * cfg_.reference_scale;
      for (double& x : err) x += rng.gaussian(0.0, sd);
    }
    return err;
  }

  /// Expected per-window error variance (sum of p_c * sd_c^2) — useful for
  /// verifying the injector statistically and for sizing filter inflation.
  [[nodiscard]] double expected_variance() const {
    double v = 0.0;
    for (std::size_t c = 0; c < cfg_.probabilities.size(); ++c) {
      const double sd = cfg_.amplitudes[c] * cfg_.reference_scale;
      v += cfg_.probabilities[c] * sd * sd;
    }
    return v;
  }

  [[nodiscard]] const ModelErrorConfig& config() const { return cfg_; }

 private:
  ModelErrorConfig cfg_;
};

}  // namespace turbda::models
