// Pre-analysis observation quality control.
//
// Real observing networks deliver garbage alongside signal: non-finite
// values from failed sensors, magnitudes far outside the climatological
// range, values inconsistent with any plausible background. QC runs once
// per batch before the filter sees it and produces (a) a per-observation
// accept mask threaded into the analysis through AnalysisOptions::obs_mask
// (a masked observation carries zero weight in R^{-1} — exact excision) and
// (b) an age-dependent R inflation factor so a stale batch is trusted less
// instead of being discarded outright.
//
// QC also *rewrites* every rejected value in place to the obs-space
// ensemble mean. The filters pin masked innovations to zero so the value is
// never used, but keeping the vector finite means no NaN/Inf can leak into
// any downstream arithmetic regardless of masking bugs elsewhere.
//
// Everything here is computed serially from the ensemble and the batch —
// decisions are bitwise identical for any thread count.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "da/ensemble.hpp"
#include "da/observation.hpp"

namespace turbda::da {

/// Ceiling of every age-dependent R inflation: QC's stale_r_inflation and
/// the runner's deep-late clamp.
inline constexpr double kMaxRScale = 16.0;

struct QcConfig {
  /// Off passes every value. On, non-finite values (NaN/Inf) are always
  /// rejected, then the gates below apply.
  bool enabled = false;

  /// Climatological range gate: values outside [clim_min, clim_max] are
  /// rejected. Defaults pass everything finite.
  double clim_min = -HUGE_VAL;
  double clim_max = HUGE_VAL;

  /// Background-departure gate: reject observation o when
  ///   |y_o - mean(h(x))_o| > bg_sigma * sqrt(R_oo + var(h(x))_o).
  /// 0 disables. Typical operational values are 3-5.
  double bg_sigma = 0.0;

  /// Age-dependent observation-error inflation: a batch assimilated
  /// `age` cycles after its valid time gets r_scale = 1 + age * this,
  /// clamped to kMaxRScale. 0 keeps r_scale = 1. Replaces the hard
  /// staleness discard: late information still helps, just less.
  double stale_r_inflation = 0.0;
};

/// What one QC pass decided, for the per-cycle metrics row.
struct QcReport {
  std::size_t checked = 0;
  std::size_t rejected_nonfinite = 0;
  std::size_t rejected_range = 0;
  std::size_t rejected_departure = 0;
  double r_scale = 1.0;  ///< age-dependent R inflation for this batch

  [[nodiscard]] std::size_t rejected_total() const {
    return rejected_nonfinite + rejected_range + rejected_departure;
  }
};

/// Runs QC on one observation batch against the current forecast ensemble.
/// `y` is modified in place (rejected values are rewritten to the obs-space
/// ensemble mean); `mask` is resized to y.size() with 1 = assimilate,
/// 0 = rejected. `age_cycles` is how many cycles past its valid time the
/// batch is being assimilated (0 = on time).
QcReport apply_quality_control(const QcConfig& cfg, std::span<double> y,
                               const ObservationOperator& h, const DiagonalR& r,
                               const Ensemble& ensemble, std::size_t age_cycles,
                               std::vector<std::uint8_t>& mask);

}  // namespace turbda::da
