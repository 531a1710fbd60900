// Unit-scaling adapter: runs an inner model whose state lives in different
// physical units.
//
// The SQG solver evolves theta = d(psi)/dz [m/s]; observational practice
// (and the paper's "R = I") works in Kelvin. The conversion is
// theta_K = theta * (theta0 * f / g), so the DA stack assimilates
// Kelvin-equivalent states while the dynamics run in solver units.
#pragma once

#include "models/forecast_model.hpp"

namespace turbda::models {

class ScaledForecast final : public ForecastModel {
 public:
  /// `outer_per_inner`: outer-state units per inner-model unit. For the SQG
  /// Kelvin conversion pass theta0 * f / g (e.g. 300 * 1e-4 / 9.81).
  ScaledForecast(ForecastModel& inner, double outer_per_inner)
      : inner_(inner), scale_(outer_per_inner) {}

  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }

  void forecast(std::span<double> state) override {
    for (double& v : state) v /= scale_;
    inner_.forecast(state);
    for (double& v : state) v *= scale_;
  }

  [[nodiscard]] std::string name() const override { return inner_.name() + "-scaled"; }

  /// The wrapper itself touches only the caller's state slice.
  [[nodiscard]] bool concurrent_safe() const override { return inner_.concurrent_safe(); }

 private:
  ForecastModel& inner_;
  double scale_;
};

/// Kelvin-per-(m/s) conversion for the SQG state: theta_K = theta * theta0*f/g.
[[nodiscard]] inline double sqg_kelvin_scale(double theta0 = 300.0, double f = 1.0e-4,
                                             double g = 9.81) {
  return theta0 * f / g;
}

}  // namespace turbda::models
