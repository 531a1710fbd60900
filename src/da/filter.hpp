// Common analysis-step interface implemented by EnSF, LETKF and ETKF.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/status.hpp"
#include "da/ensemble.hpp"
#include "da/observation.hpp"

namespace turbda::da {

/// Per-analysis knobs the quality-control layer threads into a filter
/// without rebuilding the observation operator or R (both may be cached —
/// LETKF keys its local-obs plan on them).
struct AnalysisOptions {
  /// Uniform observation-error variance inflation: every R diagonal entry is
  /// treated as r_scale * var. The streaming runner uses this for
  /// age-dependent inflation of stale batches (a batch k cycles old is
  /// trusted less, not discarded). Must be >= 1.
  double r_scale = 1.0;

  /// Per-observation accept mask (1 = assimilate, 0 = excised by QC). Empty
  /// means "use every observation". A masked observation contributes nothing
  /// to the analysis — exactly equivalent to removing its row, implemented
  /// as a zero weight in R^{-1} so cached network plans stay valid. A masked
  /// value is never read, so it may be NaN or ±inf; an unmasked one may not
  /// (check_observations_finite).
  std::span<const std::uint8_t> obs_mask;
};

/// Refuses an unmasked non-finite observation before a filter touches any
/// state: kInvalidArgument naming the first index o whose value is NaN or
/// ±inf and that opts.obs_mask does not excise, else ok. Such a value would
/// reach the analysis arithmetic and leave NaN in the ensemble, so refusing
/// it lets the runner keep the forecast instead. A masked value is never
/// read. `filter` prefixes the message.
[[nodiscard]] inline Status check_observations_finite(const char* filter,
                                                      std::span<const double> y,
                                                      const AnalysisOptions& opts) {
  for (std::size_t o = 0; o < y.size(); ++o)
    if ((opts.obs_mask.empty() || opts.obs_mask[o] != 0) && !std::isfinite(y[o]))
      return Status(StatusCode::kInvalidArgument, std::string(filter) + ": unmasked observation " +
                                                      std::to_string(o) + " is not finite");
  return Status::Ok();
}

/// What actually happened inside one analysis call — the counters the
/// degradation policy and the metrics CSV report.
struct AnalysisStats {
  std::size_t obs_total = 0;         ///< observation vector length
  std::size_t obs_masked = 0;        ///< excluded by AnalysisOptions::obs_mask
  std::size_t solver_failures = 0;   ///< local solves that did not converge
  std::size_t fallback_columns = 0;  ///< state columns that kept the forecast
};

class Filter {
 public:
  virtual ~Filter() = default;

  /// Optional pre-computation hook for a known observation network: filters
  /// that cache network-dependent state (e.g. LETKF's local-observation
  /// plan) build it here instead of inside the first analyze() call.
  /// Callers may skip it entirely and may pass a different network to
  /// analyze() afterwards — implementations must validate and rebuild, so
  /// prepare() is purely a scheduling hint (e.g. before a streaming run's
  /// deadline clock starts). Default: no-op.
  virtual void prepare(const ObservationOperator& h, const DiagonalR& r) {
    (void)h;
    (void)r;
  }

  /// Transforms the forecast (prior) ensemble into the analysis (posterior)
  /// ensemble given observations y with error model R: try_analyze() with
  /// default options, a failure thrown as turbda::Error naming the filter.
  virtual void analyze(Ensemble& ensemble, std::span<const double> y,
                       const ObservationOperator& h, const DiagonalR& r) {
    const Status s = try_analyze(ensemble, y, h, r);
    TURBDA_REQUIRE(s.ok(), name() << " analysis failed — " << s.to_string());
  }

  /// The one analysis entry point, used by the streaming runner: honours QC
  /// options and reports failure as a Status instead of an exception, so the
  /// driver can degrade (forecast-only cycle) rather than abort the run.
  /// Contract: when the returned Status is not ok, the implementation either
  /// left the ensemble untouched or the caller must restore it from its own
  /// backup — EnSF/ETKF/LETKF all guarantee the former for their
  /// recoverable failures, and return a turbda::Error raised inside the
  /// analysis as kFailed.
  virtual Status try_analyze(Ensemble& ensemble, std::span<const double> y,
                             const ObservationOperator& h, const DiagonalR& r,
                             const AnalysisOptions& opts = {},
                             AnalysisStats* stats = nullptr) = 0;

  /// Checkpoint support: append any cross-cycle mutable state to `out`
  /// (EnSF's cycle counter; stateless filters append nothing). Returns false
  /// when the filter cannot be checkpointed.
  virtual bool save_state(std::vector<std::uint8_t>& out) const {
    (void)out;
    return true;
  }

  /// Restores state written by save_state(). `in` holds exactly the bytes
  /// this filter appended. Returns false on malformed input.
  virtual bool restore_state(std::span<const std::uint8_t> in) { return in.empty(); }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace turbda::da
