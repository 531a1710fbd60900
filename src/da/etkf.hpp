// Global ETKF (Ensemble Transform Kalman Filter, Bishop et al. 2001) —
// LETKF without localization, solved once in global ensemble space.
// Included as the ablation point that demonstrates *why* LETKF localizes:
// with small ensembles in high dimensions the global transform collapses.
#pragma once

#include "da/filter.hpp"

namespace turbda::da {

struct EtkfConfig {
  double rtps = 0.0;            ///< relaxation-to-prior-spread factor
};

class ETKF final : public Filter {
 public:
  explicit ETKF(EtkfConfig cfg);

  void analyze(Ensemble& ensemble, std::span<const double> y, const ObservationOperator& h,
               const DiagonalR& r) override;

  /// Recoverable entry point: supports QC masks (masked observations carry
  /// zero weight in R^{-1} — exact excision) and uniform R inflation; a
  /// non-convergent transform eigensolve returns kNonConvergent with the
  /// ensemble untouched (the transform is computed before any member is
  /// written).
  Status try_analyze(Ensemble& ensemble, std::span<const double> y,
                     const ObservationOperator& h, const DiagonalR& r,
                     const AnalysisOptions& opts = {}, AnalysisStats* stats = nullptr) override;

  [[nodiscard]] std::string name() const override { return "ETKF"; }

 private:
  Status analyze_impl(Ensemble& ensemble, std::span<const double> y,
                      const ObservationOperator& h, const DiagonalR& r,
                      const AnalysisOptions& opts, AnalysisStats* stats);

  EtkfConfig cfg_;
};

}  // namespace turbda::da
