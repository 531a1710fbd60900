// OSSE — Observing System Simulation Experiment harness (paper §IV-A-b):
// a nature ("truth") run generates synthetic observations every window;
// an ensemble driven by a (possibly imperfect, possibly surrogate) forecast
// model assimilates them; RMSE/spread are logged per cycle. This is the
// machinery behind Figs. 4 and 5.
//
// Since the streaming subsystem landed this is a thin facade: run() wires a
// zero-latency stream::SyntheticStream into a stream::RealtimeRunner on the
// serial schedule, which reproduces the historical in-line OSSE loop
// bitwise (see test_stream.cpp). Latency/dropout/overlap knobs live on the
// RealtimeRunner directly.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "da/filter.hpp"
#include "models/forecast_model.hpp"
#include "models/model_error.hpp"

namespace turbda::da {

struct CycleMetrics {
  int cycle = 0;
  double time_hours = 0.0;
  double rmse_prior = 0.0;
  double rmse_post = 0.0;
  double spread_prior = 0.0;
  double spread_post = 0.0;
};

struct OsseConfig {
  std::size_t n_members = 20;   ///< paper: "ensemble size for both DA algorithms is 20"
  int cycles = 60;              ///< paper's full run: 300 (t in [0,3600] h, 12 h windows)
  double window_hours = 12.0;   ///< used for the time axis in metrics
  double init_spread = 1.0;     ///< initial member perturbation stddev
  std::uint64_t seed = 42;
  bool inject_model_error = false;  ///< the paper's imperfect-model scenario
  /// When true, every member receives the *same* error realization per
  /// window (a systematic model bias invisible to the ensemble spread —
  /// the failure mode that degrades LETKF in Fig. 4); when false, each
  /// member draws independently.
  bool model_error_shared = true;
  /// Worker threads for the member-forecast fan-out: 0 = all pool workers
  /// (default), 1 = serial. Only honored when the forecast model reports
  /// concurrent_safe(). Each worker owns a contiguous member *block* and
  /// advances it through ForecastModel::forecast_batch (the member loop);
  /// members are disjoint and per-member model-error noise comes from
  /// counter-based substreams, so results are bitwise identical for any
  /// thread count and block partition.
  std::size_t n_forecast_threads = 0;
};

/// Hook invoked after each analysis with (cycle index, analysis-mean state);
/// used for online surrogate training and snapshot capture.
using CycleHook = std::function<void(int, std::span<const double>)>;

class OsseRunner {
 public:
  /// `filter == nullptr` produces a free run (no assimilation) — the paper's
  /// "SQG only" / "ViT only" configurations.
  OsseRunner(OsseConfig cfg, models::ForecastModel& truth_model,
             models::ForecastModel& forecast_model, const ObservationOperator& h,
             const DiagonalR& r, Filter* filter,
             const models::ModelErrorProcess* model_error = nullptr);

  /// Runs the experiment from the given initial truth. The ensemble starts
  /// as truth + N(0, init_spread^2) unless `initial_ensemble` is supplied
  /// (the paper draws initial members from a long model integration).
  std::vector<CycleMetrics> run(std::span<const double> truth0,
                                const Ensemble* initial_ensemble = nullptr);

  void set_post_analysis_hook(CycleHook hook) { hook_ = std::move(hook); }

  /// Final states for snapshot comparison (Fig. 5).
  [[nodiscard]] const std::vector<double>& final_truth() const { return truth_; }
  [[nodiscard]] const Ensemble& ensemble() const;

 private:
  OsseConfig cfg_;
  models::ForecastModel& truth_model_;
  models::ForecastModel& forecast_model_;
  const ObservationOperator& h_;
  const DiagonalR& r_;
  Filter* filter_;
  const models::ModelErrorProcess* model_error_;
  CycleHook hook_;
  std::vector<double> truth_;
  std::optional<Ensemble> ens_;
};

}  // namespace turbda::da
