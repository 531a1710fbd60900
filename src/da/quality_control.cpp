#include "da/quality_control.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace turbda::da {

QcReport apply_quality_control(const QcConfig& cfg, std::span<double> y,
                               const ObservationOperator& h, const DiagonalR& r,
                               const Ensemble& ensemble, std::size_t age_cycles,
                               std::vector<std::uint8_t>& mask) {
  const std::size_t p = y.size();
  TURBDA_REQUIRE(h.obs_dim() == p && r.dim() == p, "QC: obs dim mismatch");
  QcReport rep;
  rep.checked = p;
  mask.assign(p, 1);
  if (cfg.enabled && cfg.stale_r_inflation > 0.0 && age_cycles > 0) {
    rep.r_scale =
        std::min(1.0 + static_cast<double>(age_cycles) * cfg.stale_r_inflation, kMaxRScale);
  }
  if (!cfg.enabled) return rep;

  // Obs-space ensemble mean and variance (serial over members — QC decisions
  // must not depend on thread count).
  const std::size_t m = ensemble.size();
  std::vector<double> hx(p), mean(p, 0.0), sumsq(p, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    h.apply(ensemble.member(k), hx);
    for (std::size_t o = 0; o < p; ++o) {
      mean[o] += hx[o];
      sumsq[o] += hx[o] * hx[o];
    }
  }
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t o = 0; o < p; ++o) {
    mean[o] *= inv_m;
    // Population variance is enough for a gate; clamp the cancellation
    // residue so the sqrt below never sees a tiny negative.
    sumsq[o] = std::max(sumsq[o] * inv_m - mean[o] * mean[o], 0.0);
  }

  for (std::size_t o = 0; o < p; ++o) {
    bool reject = false;
    if (!std::isfinite(y[o])) {
      ++rep.rejected_nonfinite;
      reject = true;
    } else if (y[o] < cfg.clim_min || y[o] > cfg.clim_max) {
      ++rep.rejected_range;
      reject = true;
    } else if (cfg.bg_sigma > 0.0) {
      const double tol = cfg.bg_sigma * std::sqrt(r.variance(o) + sumsq[o]);
      if (std::abs(y[o] - mean[o]) > tol) {
        ++rep.rejected_departure;
        reject = true;
      }
    }
    if (reject) {
      mask[o] = 0;
      y[o] = mean[o];  // finite placeholder; the filter never uses it
    }
  }
  return rep;
}

}  // namespace turbda::da
