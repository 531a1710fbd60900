// Forecast-model interface (Eq. 1 of the paper): X_k = f_{k-1}(X_{k-1}).
//
// The DA framework is model-agnostic ("this forecast model could be either
// physics-based like the SQG, or an AI-based foundation model"); every
// dynamical core and the ViT surrogate implement this interface so filters
// and the cycling driver never know which one they are driving.
#pragma once

#include <span>
#include <string>

namespace turbda::models {

class ForecastModel {
 public:
  virtual ~ForecastModel() = default;

  /// Number of state variables.
  [[nodiscard]] virtual std::size_t dim() const = 0;

  /// Advance `state` in place over one assimilation window.
  virtual void forecast(std::span<double> state) = 0;

  /// Advance `count` states stored contiguously (count x dim(), row-major —
  /// the Ensemble member layout) in place over one assimilation window.
  /// The cycling drivers hand each worker thread a member *block* through
  /// this entry point. The default is that member loop; an override (e.g. a
  /// timing or fault-injection wrapper) must stay bitwise identical to it.
  virtual void forecast_batch(std::span<double> states, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) forecast(states.subspan(i * dim(), dim()));
  }

  /// True when forecast()/forecast_batch() may be called concurrently from
  /// several threads on disjoint states (no shared mutable scratch). The
  /// OSSE driver fans the ensemble member loop out over the thread pool only
  /// for models that opt in; the default is the conservative serial
  /// contract.
  [[nodiscard]] virtual bool concurrent_safe() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace turbda::models
