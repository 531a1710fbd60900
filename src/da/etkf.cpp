#include "da/etkf.hpp"

#include <cmath>

#include "common/check.hpp"
#include "telemetry/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/linalg.hpp"

namespace turbda::da {

using tensor::Tensor;

ETKF::ETKF(EtkfConfig cfg) : cfg_(cfg) {
  TURBDA_REQUIRE(cfg_.rtps >= 0.0 && cfg_.rtps < 1.0, "RTPS factor must be in [0,1)");
}

void ETKF::analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                   const DiagonalR& r) {
  const Status s = analyze_impl(ens, y, h, r, AnalysisOptions{}, nullptr);
  TURBDA_REQUIRE(s.ok(), "ETKF analysis failed — " << s.to_string());
}

Status ETKF::try_analyze(Ensemble& ens, std::span<const double> y, const ObservationOperator& h,
                         const DiagonalR& r, const AnalysisOptions& opts, AnalysisStats* stats) {
  try {
    return analyze_impl(ens, y, h, r, opts, stats);
  } catch (const Error& e) {
    return Status(StatusCode::kFailed, e.what());
  }
}

Status ETKF::analyze_impl(Ensemble& ens, std::span<const double> y,
                          const ObservationOperator& h, const DiagonalR& r,
                          const AnalysisOptions& opts, AnalysisStats* stats) {
  TURBDA_SPAN("etkf.analyze");
  const std::size_t m = ens.size();
  const std::size_t d = ens.dim();
  const std::size_t p = h.obs_dim();
  TURBDA_REQUIRE(y.size() == p && r.dim() == p, "ETKF: obs dim mismatch");
  TURBDA_REQUIRE(opts.r_scale >= 1.0, "ETKF: r_scale must be >= 1");
  TURBDA_REQUIRE(opts.obs_mask.empty() || opts.obs_mask.size() == p,
                 "ETKF: obs_mask size mismatch");
  const std::uint8_t* mask = opts.obs_mask.empty() ? nullptr : opts.obs_mask.data();
  if (Status s = check_observations_finite("ETKF", y, opts); !s.ok()) return s;
  if (stats != nullptr) {
    *stats = AnalysisStats{.obs_total = p};
    if (mask != nullptr)
      for (std::size_t o = 0; o < p; ++o) stats->obs_masked += mask[o] ? 0 : 1;
  }

  const auto xbar = ens.mean();
  const auto prior_sd = ens.stddev();
  Tensor xb({m, d});
  for (std::size_t k = 0; k < m; ++k) {
    const auto row = ens.member(k);
    for (std::size_t i = 0; i < d; ++i) xb(k, i) = row[i] - xbar[i];
  }

  // Obs-space perturbations Yb (m x p) and innovation.
  Tensor yb({m, p});
  {
    std::vector<double> buf(p);
    for (std::size_t k = 0; k < m; ++k) {
      h.apply(ens.member(k), buf);
      std::copy(buf.begin(), buf.end(), yb.row(k).begin());
    }
  }
  std::vector<double> ybar(p, 0.0);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t o = 0; o < p; ++o) ybar[o] += yb(k, o);
  for (double& v : ybar) v /= static_cast<double>(m);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t o = 0; o < p; ++o) yb(k, o) -= ybar[o];

  // Innovation with masked entries pinned to zero: a QC-excised observation
  // must contribute nothing even when its raw value is non-finite.
  std::vector<double> innov(p);
  for (std::size_t o = 0; o < p; ++o)
    innov[o] = (mask != nullptr && mask[o] == 0) ? 0.0 : y[o] - ybar[o];

  // C = Yb R^{-1} (rows k): c(k,o) = yb(k,o) / (r_scale * r_o); a masked
  // observation gets weight 0, which excises it from A and wbar exactly.
  Tensor c({m, p});
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t o = 0; o < p; ++o)
      c(k, o) = (mask != nullptr && mask[o] == 0)
                    ? 0.0
                    : yb(k, o) / (r.variance(o) * opts.r_scale);

  // A = (m-1) I + C Yb^T (m x m).
  Tensor a = tensor::matmul_nt(c, yb);
  for (std::size_t k = 0; k < m; ++k) a(k, k) += static_cast<double>(m - 1);

  // The eigensolve happens before any member is written: on failure the
  // ensemble is untouched and the caller can fall back to the forecast.
  Tensor v;
  std::vector<double> w;
  tensor::EighInfo info;
  try {
    tensor::jacobi_eigh(a, v, w, /*max_sweeps=*/50, &info);
  } catch (const Error&) {
    if (stats != nullptr) stats->solver_failures = 1;
    return Status(StatusCode::kNonConvergent,
                  "ETKF transform eigensolve did not converge (sweeps=" +
                      std::to_string(info.sweeps) + ")");
  }

  // wbar = A^{-1} C innov.
  std::vector<double> cd(m, 0.0), wbar(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    double s = 0.0;
    for (std::size_t o = 0; o < p; ++o) s += c(k, o) * innov[o];
    cd[k] = s;
  }
  for (std::size_t a_i = 0; a_i < m; ++a_i) {
    double s = 0.0;
    for (std::size_t k = 0; k < m; ++k) s += v(k, a_i) * cd[k];
    wbar[a_i] = s / w[a_i];
  }

  // T(k, i) = wbar_k + sqrt(m-1) [V diag(1/sqrt(w)) V^T]_{k,i}.
  const double sqm1 = std::sqrt(static_cast<double>(m - 1));
  Tensor t({m, m});
  for (std::size_t k = 0; k < m; ++k) {
    double wb = 0.0;
    for (std::size_t a_i = 0; a_i < m; ++a_i) wb += v(k, a_i) * wbar[a_i];
    for (std::size_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (std::size_t a_i = 0; a_i < m; ++a_i)
        s += v(k, a_i) * v(i, a_i) / std::sqrt(w[a_i]);
      t(k, i) = wb + sqm1 * s;
    }
  }

  // xa_i = xbar + sum_k T(k,i) Xb_k  ->  Xa = T^T Xb (+ xbar).
  Tensor xa = tensor::matmul_tn(t, xb);
  for (std::size_t i = 0; i < m; ++i) {
    auto row = xa.row(i);
    for (std::size_t g = 0; g < d; ++g) row[g] += xbar[g];
  }
  ens.data() = std::move(xa);

  if (cfg_.rtps > 0.0) {
    const auto post_sd = ens.stddev();
    const auto mu = ens.mean();
    for (std::size_t i = 0; i < d; ++i) {
      if (post_sd[i] <= 1e-12) continue;
      const double scale = 1.0 + cfg_.rtps * (prior_sd[i] - post_sd[i]) / post_sd[i];
      for (std::size_t k = 0; k < m; ++k) {
        auto row = ens.member(k);
        row[i] = mu[i] + (row[i] - mu[i]) * scale;
      }
    }
  }
  return Status::Ok();
}

}  // namespace turbda::da
