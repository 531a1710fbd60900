#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "da/ensf.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "da/localization.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"
#include "tensor/gemm.hpp"
#include "tensor/linalg.hpp"

namespace turbda::da {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;
using turbda::rng::Rng;

// ------------------------------------------------------------- utilities ---

TEST(Ensemble, MeanAndSpread) {
  Ensemble e(2, 3);
  e.member(0)[0] = 1.0;
  e.member(1)[0] = 3.0;
  const auto mu = e.mean();
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  const auto sd = e.stddev();
  EXPECT_NEAR(sd[0], std::sqrt(2.0), 1e-12);  // unbiased: var = 2
  EXPECT_DOUBLE_EQ(sd[1], 0.0);
}

TEST(Ensemble, InitPerturbed) {
  Ensemble e(50, 10);
  std::vector<double> base(10, 7.0);
  Rng rng(1);
  e.init_perturbed(base, 0.5, rng);
  const auto mu = e.mean();
  for (double v : mu) EXPECT_NEAR(v, 7.0, 0.5);
  EXPECT_NEAR(e.mean_spread(), 0.5, 0.12);
}

TEST(Metrics, RmseDefinitions) {
  std::vector<double> a{1.0, 2.0}, b{0.0, 0.0};
  EXPECT_NEAR(rmse(a, b), std::sqrt(2.5), 1e-12);
}

// ------------------------------------------------------------ observation ---

TEST(Observation, IdentityApplyAdjoint) {
  IdentityObs h(4);
  std::vector<double> x{1, 2, 3, 4}, y(4), out(4);
  h.apply(x, y);
  EXPECT_EQ(y, x);
  h.adjoint(x, y, out);
  EXPECT_EQ(out, x);
}

TEST(Observation, IdentityGridLocations) {
  IdentityObs h(2 * 3 * 2, 2, 3, 2);
  const auto locs = h.locations();
  ASSERT_TRUE(locs.has_value());
  ASSERT_EQ(locs->size(), 12u);
  EXPECT_EQ((*locs)[0].ix, 0);
  EXPECT_EQ((*locs)[11].ix, 1);
  EXPECT_EQ((*locs)[11].iy, 2);
  EXPECT_EQ((*locs)[11].level, 1);
}

TEST(Observation, SubsampleStrided) {
  auto h = SubsampleObs::strided(10, 3);
  EXPECT_EQ(h.obs_dim(), 4u);  // 0, 3, 6, 9
  std::vector<double> x{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, y(4);
  h.apply(x, y);
  EXPECT_EQ(y, (std::vector<double>{0, 3, 6, 9}));
  std::vector<double> r{1, 1, 1, 1}, out(10);
  h.adjoint(x, r, out);
  EXPECT_DOUBLE_EQ(out[3], 1.0);
  EXPECT_DOUBLE_EQ(out[4], 0.0);
}

TEST(Observation, ArctanAdjointMatchesFiniteDifference) {
  ArctanObs h(3);
  std::vector<double> x{0.5, -1.2, 2.0};
  std::vector<double> r{1.0, -0.5, 2.0}, out(3);
  h.adjoint(x, r, out);
  // <J u, r> == <u, J^T r> for u = e_i.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    auto xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    std::vector<double> yp(3), ym(3);
    h.apply(xp, yp);
    h.apply(xm, ym);
    double jr = 0.0;
    for (std::size_t o = 0; o < 3; ++o) jr += (yp[o] - ym[o]) / (2 * eps) * r[o];
    EXPECT_NEAR(out[i], jr, 1e-8);
  }
}

TEST(Observation, DiagonalRPerturbAndInverse) {
  DiagonalR r(std::vector<double>{4.0, 9.0});
  std::vector<double> v{1.0, 1.0}, out(2);
  r.apply_inverse(v, out);
  EXPECT_DOUBLE_EQ(out[0], 0.25);
  EXPECT_DOUBLE_EQ(out[1], 1.0 / 9.0);

  Rng rng(2);
  double s2_0 = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    std::vector<double> y{0.0, 0.0};
    r.perturb(y, rng);
    s2_0 += y[0] * y[0];
  }
  EXPECT_NEAR(s2_0 / n, 4.0, 0.3);
  EXPECT_THROW(DiagonalR bad(2, -1.0), Error);
}

TEST(Localization, GaspariCohnShape) {
  EXPECT_DOUBLE_EQ(gaspari_cohn(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gaspari_cohn(2.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(gaspari_cohn(5.0, 1.0), 0.0);
  // Monotone decreasing on [0, 2c].
  double prev = 1.0;
  for (double d = 0.1; d < 2.0; d += 0.1) {
    const double g = gaspari_cohn(d, 1.0);
    EXPECT_LT(g, prev);
    EXPECT_GE(g, 0.0);
    prev = g;
  }
  // Continuity at the piece boundary x = 1.
  EXPECT_NEAR(gaspari_cohn(1.0 - 1e-9, 1.0), gaspari_cohn(1.0 + 1e-9, 1.0), 1e-6);
}

TEST(Localization, PeriodicDistance) {
  EXPECT_DOUBLE_EQ(periodic_distance(0.0, 9.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(periodic_distance(2.0, 5.0, 10.0), 3.0);
}

// ---------------------------------------------------------------- filters ---

/// Unbiased sample covariance (d x d) of an ensemble.
tensor::Tensor sample_covariance(const Ensemble& ens) {
  const std::size_t m = ens.size(), d = ens.dim();
  const auto xbar = ens.mean();
  tensor::Tensor xb({m, d});
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t i = 0; i < d; ++i) xb(k, i) = ens.member(k)[i] - xbar[i];
  tensor::Tensor c = tensor::matmul_tn(xb, xb);
  c *= 1.0 / static_cast<double>(m - 1);
  return c;
}

struct KalmanPosterior {
  std::vector<double> mean;
  tensor::Tensor cov;
};

/// Builds the reference Kalman analysis from the prior's *sample* covariance
/// so square-root filters can be verified through independent algebra. H
/// picks the state entries `idx` (y[o] observes x[idx[o]]) and R is diagonal
/// with variances `r_var`:
///   mean_a = xbar + Pb H^T (H Pb H^T + R)^{-1} (y - H xbar)
///   Pa     = Pb - Pb H^T (H Pb H^T + R)^{-1} H Pb
KalmanPosterior kalman_posterior(const Ensemble& ens, std::span<const double> y,
                                 std::span<const std::size_t> idx,
                                 std::span<const double> r_var) {
  const std::size_t d = ens.dim();
  const std::size_t q = idx.size();
  const auto xbar = ens.mean();
  const tensor::Tensor pb = sample_covariance(ens);
  tensor::Tensor s({q, q});  // S = H Pb H^T + R
  for (std::size_t a = 0; a < q; ++a) {
    for (std::size_t b = 0; b < q; ++b) s(a, b) = pb(idx[a], idx[b]);
    s(a, a) += r_var[a];
  }
  std::vector<double> innov(q);
  for (std::size_t a = 0; a < q; ++a) innov[a] = y[a] - xbar[idx[a]];
  const auto z = tensor::spd_solve(s, innov);
  // S^{-1} H Pb, one column of H Pb at a time.
  tensor::Tensor shpb({q, d});
  std::vector<double> col(q);
  for (std::size_t j = 0; j < d; ++j) {
    for (std::size_t a = 0; a < q; ++a) col[a] = pb(idx[a], j);
    const auto sc = tensor::spd_solve(s, col);
    for (std::size_t a = 0; a < q; ++a) shpb(a, j) = sc[a];
  }
  KalmanPosterior out{std::vector<double>(d), tensor::Tensor({d, d})};
  for (std::size_t i = 0; i < d; ++i) {
    double acc = xbar[i];
    for (std::size_t a = 0; a < q; ++a) acc += pb(i, idx[a]) * z[a];
    out.mean[i] = acc;
    for (std::size_t j = 0; j < d; ++j) {
      double pa = pb(i, j);
      for (std::size_t a = 0; a < q; ++a) pa -= pb(i, idx[a]) * shpb(a, j);
      out.cov(i, j) = pa;
    }
  }
  return out;
}

/// Every state index, 0 .. d-1: the indices an IdentityObs observes.
std::vector<std::size_t> all_indices(std::size_t d) {
  std::vector<std::size_t> idx(d);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

Ensemble make_gaussian_ensemble(std::size_t m, std::size_t d, Rng& rng, double mean = 0.0,
                                double sd = 1.0) {
  Ensemble ens(m, d);
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t i = 0; i < d; ++i) ens.member(k)[i] = rng.gaussian(mean, sd);
  return ens;
}

/// The refusal every filter's try_analyze makes for an unmasked NaN (index
/// 7) or +inf (index 8) observation on a 5x5x2 identity network: status
/// kInvalidArgument naming the first such index, the ensemble bytes
/// untouched, and analyze() throwing. With both values masked, the analysis
/// is ok and finite.
void expect_refuses_unmasked_non_finite(Filter& filter) {
  Rng rng(33);
  const std::size_t m = 10, nx = 5, ny = 5, nlev = 2, d = nx * ny * nlev;
  const Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(d);
  rng.fill_gaussian(y, 0.0, 1.0);
  y[7] = std::numeric_limits<double>::quiet_NaN();
  y[8] = std::numeric_limits<double>::infinity();
  const IdentityObs h(d, nx, ny, nlev);
  const DiagonalR r(d, 1.0);
  std::vector<std::uint8_t> without_7(d, 1), without_7_8(d, 1);
  without_7[7] = 0;
  without_7_8[7] = without_7_8[8] = 0;
  AnalysisOptions mask_7, mask_both;
  mask_7.obs_mask = without_7;
  mask_both.obs_mask = without_7_8;
  Ensemble work(m, d);
  work.data() = prior.data();
  for (const auto& [opts, index] :
       {std::pair{AnalysisOptions{}, "observation 7 "}, std::pair{mask_7, "observation 8 "}}) {
    const Status s = filter.try_analyze(work, y, h, r, opts);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << filter.name() << ": " << s.to_string();
    EXPECT_NE(s.message().find(index), std::string::npos) << s.to_string();
    EXPECT_EQ(0, std::memcmp(work.data().data(), prior.data().data(), m * d * sizeof(double)))
        << filter.name();
  }
  EXPECT_THROW(filter.analyze(work, y, h, r), Error) << filter.name();
  EXPECT_EQ(0, std::memcmp(work.data().data(), prior.data().data(), m * d * sizeof(double)));

  ASSERT_TRUE(filter.try_analyze(work, y, h, r, mask_both).ok()) << filter.name();
  for (const double v : work.data().flat()) ASSERT_TRUE(std::isfinite(v)) << filter.name();
}

TEST(Etkf, MatchesKalmanMeanForLinearGaussian) {
  Rng rng(3);
  const std::size_t m = 40, d = 6;
  Ensemble ens = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(d, 1.5);
  IdentityObs h(d);
  DiagonalR r(d, 1.0);
  const auto want = kalman_posterior(ens, y, all_indices(d), std::vector<double>(d, 1.0)).mean;
  ETKF filter(EtkfConfig{});
  filter.analyze(ens, y, h, r);
  const auto got = ens.mean();
  for (std::size_t i = 0; i < d; ++i) EXPECT_NEAR(got[i], want[i], 1e-8);
}

TEST(Etkf, PosteriorSpreadShrinks) {
  Rng rng(4);
  Ensemble ens = make_gaussian_ensemble(30, 5, rng);
  const double spread0 = ens.mean_spread();
  std::vector<double> y(5, 0.0);
  IdentityObs h(5);
  DiagonalR r(5, 1.0);
  ETKF filter(EtkfConfig{});
  filter.analyze(ens, y, h, r);
  EXPECT_LT(ens.mean_spread(), spread0);
  // With R = I and Pb ~ I, posterior variance ~ 1/2 prior.
  EXPECT_NEAR(ens.mean_spread(), spread0 / std::sqrt(2.0), 0.2 * spread0);
}

TEST(Etkf, RefusesUnmaskedNonFiniteObservations) {
  ETKF filter(EtkfConfig{});
  expect_refuses_unmasked_non_finite(filter);
}

TEST(Letkf, RefusesUnmaskedNonFiniteObservations) {
  LetkfConfig cfg;
  cfg.nx = 5;
  cfg.ny = 5;
  cfg.n_levels = 2;
  cfg.domain_m = 5.0;
  cfg.cutoff_m = 2.0;
  LETKF filter(cfg);
  expect_refuses_unmasked_non_finite(filter);
}

TEST(Letkf, MatchesEtkfWithHugeLocalizationRadius) {
  Rng rng(5);
  const std::size_t nx = 4, ny = 4, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 30;
  Ensemble a = make_gaussian_ensemble(m, d, rng);
  Ensemble b(m, d);
  b.data() = a.data();

  std::vector<double> y(d);
  Rng yrng(6);
  yrng.fill_gaussian(y, 0.5, 1.0);
  IdentityObs h(d, nx, ny, nlev);
  DiagonalR r(d, 1.0);

  EtkfConfig ecfg;
  ETKF etkf(ecfg);
  etkf.analyze(a, y, h, r);

  LetkfConfig lcfg;
  lcfg.nx = nx;
  lcfg.ny = ny;
  lcfg.n_levels = nlev;
  lcfg.domain_m = 1.0;        // tiny domain
  lcfg.cutoff_m = 1e9;        // localization effectively off
  lcfg.rossby_radius_m = 0.0; // no vertical decay
  lcfg.rtps = 0.0;
  LETKF letkf(lcfg);
  letkf.analyze(b, y, h, r);

  const auto ma = a.mean();
  const auto mb = b.mean();
  for (std::size_t i = 0; i < d; ++i) EXPECT_NEAR(mb[i], ma[i], 1e-6);
}

TEST(Letkf, MatchesKalmanPosteriorWithoutLocalization) {
  // Localization off (cutoff >> domain, no vertical decay), no RTPS: every
  // column's local problem is the global one, so the posterior ensemble must
  // carry both the Kalman mean and the full Kalman covariance
  // Pa = Pb - Pb H^T (H Pb H^T + R)^{-1} H Pb of the prior sample
  // covariance. The cutoff gives the coarse grid stride 4, one node per
  // level, and every other column blends copies of the same weights, which
  // returns them up to rounding. Three inputs, m = 30 members:
  //  - the identity network with R = I: p = 32 >= m, the m x m path;
  //  - a stride-2 network with non-uniform R: p = 8 < m, the rank-p path;
  //  - the same network with two observations QC-masked and r_scale = 1.5,
  //    which the closed form matches by dropping the masked observations
  //    and scaling R.
  Rng rng(25);
  const std::size_t nx = 4, ny = 4, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 30;
  const Ensemble prior = make_gaussian_ensemble(m, d, rng);

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 1.0;
  cfg.cutoff_m = 1e9;
  cfg.rossby_radius_m = 0.0;
  cfg.rtps = 0.0;
  cfg.collect_timings = true;

  // Analyzes a copy of the prior and compares it with the closed form over
  // the unmasked observations, with variances r_scale * r_var.
  const auto check = [&](const char* name, const ObservationOperator& h,
                         std::span<const std::size_t> idx, const std::vector<double>& r_var,
                         const std::vector<std::uint8_t>& mask, double r_scale, bool rank_p) {
    SCOPED_TRACE(name);
    const std::size_t p = idx.size();
    std::vector<double> y(p);
    Rng yrng(26);
    yrng.fill_gaussian(y, 0.5, 1.0);
    std::vector<std::size_t> kept_idx;
    std::vector<double> kept_y, kept_r;
    for (std::size_t o = 0; o < p; ++o) {
      if (!mask.empty() && mask[o] == 0) continue;
      kept_idx.push_back(idx[o]);
      kept_y.push_back(y[o]);
      kept_r.push_back(r_scale * r_var[o]);
    }
    Ensemble ens(m, d);
    ens.data() = prior.data();
    const KalmanPosterior want = kalman_posterior(ens, kept_y, kept_idx, kept_r);

    LETKF letkf(cfg);
    AnalysisOptions opts;
    opts.r_scale = r_scale;
    opts.obs_mask = mask;
    ASSERT_TRUE(letkf.try_analyze(ens, y, h, DiagonalR(r_var), opts).ok());
    // The counters count solved columns, the coarse-grid nodes.
    const std::size_t s = letkf_coarse_stride(cfg);
    const std::size_t nodes = nlev * (nx / s) * (ny / s);
    EXPECT_EQ(letkf.timings().groups, nodes);
    EXPECT_EQ(letkf.timings().rank_p_columns, rank_p ? nodes : 0u);

    const auto mean = ens.mean();
    const tensor::Tensor cov = sample_covariance(ens);
    for (std::size_t i = 0; i < d; ++i) {
      EXPECT_NEAR(mean[i], want.mean[i], 1e-6) << "mean " << i;
      for (std::size_t j = 0; j < d; ++j)
        EXPECT_NEAR(cov(i, j), want.cov(i, j), 1e-6) << "cov(" << i << ", " << j << ")";
    }
  };

  const IdentityObs identity(d, nx, ny, nlev);
  check("identity, R = I", identity, all_indices(d), std::vector<double>(d, 1.0), {}, 1.0,
        false);

  const SubsampleObs strided = SubsampleObs::strided_grid(nx, ny, nlev, 2);
  const std::size_t p = strided.obs_dim();
  std::vector<double> r_var(p);
  for (std::size_t o = 0; o < p; ++o) r_var[o] = 0.5 + 0.25 * static_cast<double>(o);
  check("stride 2, non-uniform R", strided, strided.indices(), r_var, {}, 1.0, true);

  std::vector<std::uint8_t> mask(p, 1);
  mask[1] = 0;
  mask[6] = 0;
  check("stride 2, QC mask and r_scale", strided, strided.indices(), r_var, mask, 1.5, true);
}

TEST(Letkf, DistantObservationsDoNotUpdate) {
  // One observation in a corner; analysis beyond the cutoff must equal the
  // forecast exactly. The observed columns have p = 1 < m, so they take the
  // rank-p path with a 1 x 1 eigensolve.
  Rng rng(7);
  const std::size_t nx = 16, ny = 16;
  const std::size_t d = nx * ny;
  Ensemble ens = make_gaussian_ensemble(12, d, rng);
  const auto prior = ens.data();

  std::vector<std::size_t> idx{0};  // observe cell (0,0) of level 0
  std::vector<ObsLocation> locs{{0, 0, 0}};
  SubsampleObs h(d, idx, locs);
  DiagonalR r(1, 1.0);
  std::vector<double> y{5.0};

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = 1;
  cfg.domain_m = 16.0;  // dx = 1
  cfg.cutoff_m = 3.0;   // support = 3 cells
  cfg.rtps = 0.0;
  LETKF letkf(cfg);
  letkf.analyze(ens, y, h, r);

  // Observed cell moved toward the observation...
  EXPECT_GT(ens.mean()[0], prior(0, 0) - 1e-12);
  // ...but the far corner (8, 8) is untouched for every member (up to the
  // mean/perturbation recombination round-off of the no-obs fast path).
  const std::size_t far = 8 * nx + 8;
  for (std::size_t k = 0; k < ens.size(); ++k)
    EXPECT_NEAR(ens.member(k)[far], prior(k, far), 1e-12);
}

TEST(Letkf, RtpsRestoresSpread) {
  Rng rng(8);
  const std::size_t nx = 8, ny = 8;
  const std::size_t d = nx * ny;
  Ensemble e1 = make_gaussian_ensemble(15, d, rng);
  Ensemble e2(15, d);
  e2.data() = e1.data();
  std::vector<double> y(d, 0.0);
  IdentityObs h(d, nx, ny, 1);
  DiagonalR r(d, 1.0);

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = 1;
  cfg.domain_m = 8.0;
  cfg.cutoff_m = 4.0;
  cfg.rtps = 0.0;
  LETKF noRtps(cfg);
  noRtps.analyze(e1, y, h, r);

  cfg.rtps = 0.9;
  LETKF withRtps(cfg);
  withRtps.analyze(e2, y, h, r);

  EXPECT_GT(e2.mean_spread(), e1.mean_spread());
}

TEST(Letkf, CachedPlanMatchesFreshFilterAcrossCycles) {
  // A static observation network: one filter reusing its prepared plan over
  // several cycles must produce bitwise the same analyses as a fresh filter
  // (fresh plan) built every cycle.
  Rng rng(11);
  const std::size_t nx = 12, ny = 10, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 8;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;
  cfg.rtps = 0.3;
  IdentityObs h(d, nx, ny, nlev);
  DiagonalR r(d, 0.8);

  Ensemble cached = make_gaussian_ensemble(m, d, rng);
  Ensemble fresh(m, d);
  fresh.data() = cached.data();

  LETKF keeper(cfg);
  EXPECT_FALSE(keeper.has_plan());
  keeper.prepare(h, r);
  EXPECT_TRUE(keeper.has_plan());

  Rng yrng(12);
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<double> y(d);
    yrng.fill_gaussian(y, 0.0, 1.0);
    keeper.analyze(cached, y, h, r);
    LETKF once(cfg);
    once.analyze(fresh, y, h, r);
    EXPECT_EQ(0, std::memcmp(cached.data().flat().data(), fresh.data().flat().data(),
                             m * d * sizeof(double)))
        << "cycle " << cycle;
  }
}

TEST(Letkf, PlanInvalidatedOnNetworkChange) {
  // A filter whose plan was warmed on a different network (or different R)
  // must rebuild and match a fresh filter that only ever saw the final one.
  Rng rng(13);
  const std::size_t nx = 12, ny = 12, nlev = 2;
  const std::size_t d = nx * ny * nlev;
  const std::size_t m = 8;

  LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = nlev;
  cfg.domain_m = 4.0e6;
  cfg.cutoff_m = 1.5e6;

  IdentityObs h_dense(d, nx, ny, nlev);
  DiagonalR r_dense(d, 1.0);
  SubsampleObs h_sparse = SubsampleObs::strided_grid(nx, ny, nlev, 3);
  const std::size_t p = h_sparse.obs_dim();
  DiagonalR r_sparse(p, 0.5);

  Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y_dense(d), y_sparse(p);
  Rng yrng(14);
  yrng.fill_gaussian(y_dense, 0.0, 1.0);
  yrng.fill_gaussian(y_sparse, 0.0, 1.0);

  // Warm on the dense network, then analyze the sparse one.
  Ensemble a(m, d), b(m, d);
  a.data() = prior.data();
  LETKF reused(cfg);
  reused.analyze(a, y_dense, h_dense, r_dense);
  a.data() = prior.data();
  reused.analyze(a, y_sparse, h_sparse, r_sparse);

  b.data() = prior.data();
  LETKF only_sparse(cfg);
  only_sparse.analyze(b, y_sparse, h_sparse, r_sparse);
  EXPECT_EQ(0, std::memcmp(a.data().flat().data(), b.data().flat().data(),
                           m * d * sizeof(double)));

  // Same network, different R variances: also a different plan.
  DiagonalR r_scaled(p, 2.0);
  a.data() = prior.data();
  reused.analyze(a, y_sparse, h_sparse, r_scaled);
  b.data() = prior.data();
  LETKF only_scaled(cfg);
  only_scaled.analyze(b, y_sparse, h_sparse, r_scaled);
  EXPECT_EQ(0, std::memcmp(a.data().flat().data(), b.data().flat().data(),
                           m * d * sizeof(double)));
}

std::vector<simd::SimdLevel> available_simd_levels() {
  std::vector<simd::SimdLevel> out;
  for (simd::SimdLevel lv :
       {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma})
    if (simd::simd_level_available(lv)) out.push_back(lv);
  return out;
}

/// A strided sparse network on an odd 11x11x2 grid: local problem sizes vary
/// across columns, so worker chunks end their size runs in partial lane
/// batches, padded with copies of their last column. How the columns are
/// chunked, and so which batches are partial, changes with the thread count.
/// With 8 members the sizes straddle m: columns with 6 or 7 local
/// observations take the rank-p path, the rest (8 to 11) the m x m path.
struct StridedNetworkCase {
  static constexpr std::size_t kN = 11, kLev = 2, kDim = kN * kN * kLev, kMembers = 8;
  LetkfConfig cfg;
  SubsampleObs h = SubsampleObs::strided_grid(kN, kN, kLev, 3);
  DiagonalR r{h.obs_dim(), 0.5};
  Ensemble prior{kMembers, kDim};
  std::vector<double> y = std::vector<double>(h.obs_dim());

  explicit StridedNetworkCase(std::uint64_t seed) {
    cfg.nx = kN;
    cfg.ny = kN;
    cfg.n_levels = kLev;
    cfg.domain_m = 4.0e6;
    cfg.cutoff_m = 1.5e6;
    Rng rng(seed);
    prior.data() = make_gaussian_ensemble(kMembers, kDim, rng).data();
    Rng yrng(seed + 1);
    yrng.fill_gaussian(y, 0.0, 1.0);
  }

  [[nodiscard]] bool same_bits(const Ensemble& a, const Ensemble& b) const {
    return 0 == std::memcmp(a.data().flat().data(), b.data().flat().data(),
                            kMembers * kDim * sizeof(double));
  }
};

TEST(Letkf, PaddedLaneBatchesBitwiseAcrossThreadsAndLevels) {
  // Full and padded partial batches both run, through both the rank-p and
  // the m x m paths, and the analysis is bitwise identical at 1, 2 and 3
  // threads at every dispatch level; Scalar and AVX2 agree bitwise.
  StridedNetworkCase c(21);
  c.cfg.collect_timings = true;
  const simd::SimdLevel orig = simd::active_simd_level();
  Ensemble scalar_ref(c.kMembers, c.kDim);
  for (const simd::SimdLevel lv : available_simd_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    Ensemble ref(c.kMembers, c.kDim);
    for (const std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      c.cfg.n_threads = nt;
      LETKF letkf(c.cfg);
      Ensemble work(c.kMembers, c.kDim);
      work.data() = c.prior.data();
      letkf.analyze(work, c.y, c.h, c.r);
      // Every column is observed, so every column goes through the
      // eigensolve and scalar_columns counts only padded-batch columns.
      // Some columns have fewer local observations than members, so both
      // the rank-p and the m x m paths run.
      const LetkfTimings& t = letkf.timings();
      EXPECT_EQ(t.groups, t.columns);
      EXPECT_GT(t.rank_p_columns, 0u) << "threads=" << nt;
      EXPECT_LT(t.rank_p_columns, t.groups) << "threads=" << nt;
      EXPECT_EQ(t.batched_columns + t.scalar_columns, t.columns);
      EXPECT_GT(t.batched_columns, 0u) << "threads=" << nt;
      EXPECT_GT(t.scalar_columns, 0u) << "threads=" << nt;
      if (nt == 1) ref.data() = work.data();
      EXPECT_TRUE(c.same_bits(ref, work)) << simd::simd_level_name(lv) << " threads=" << nt;
    }
    if (lv == simd::SimdLevel::Scalar) scalar_ref.data() = ref.data();
    if (lv == simd::SimdLevel::Avx2) {
      EXPECT_TRUE(c.same_bits(scalar_ref, ref)) << "Avx2 vs Scalar";
    }
  }
  simd::force_simd_level(orig);
}

TEST(Letkf, SweepStarvationFallbackIsThreadInvariant) {
  // One Jacobi sweep cannot converge these local problems, so full and
  // padded batches hold exhausted lanes. With fallback on, the same columns
  // keep their forecast at 1 and 3 threads and the failure stats agree;
  // with fallback off the analysis fails as a whole, ensemble untouched.
  StridedNetworkCase c(23);
  c.cfg.eigh_max_sweeps = 1;
  c.cfg.eigh_fallback = true;
  Ensemble ref(c.kMembers, c.kDim);
  AnalysisStats ref_stats;
  for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
    c.cfg.n_threads = nt;
    LETKF letkf(c.cfg);
    Ensemble work(c.kMembers, c.kDim);
    work.data() = c.prior.data();
    AnalysisStats st;
    ASSERT_TRUE(letkf.try_analyze(work, c.y, c.h, c.r, {}, &st).ok());
    EXPECT_GT(st.solver_failures, 0u);
    if (nt == 1) {
      ref.data() = work.data();
      ref_stats = st;
    }
    EXPECT_TRUE(c.same_bits(ref, work)) << "threads=" << nt;
    EXPECT_EQ(st.solver_failures, ref_stats.solver_failures) << "threads=" << nt;
    EXPECT_EQ(st.fallback_columns, ref_stats.fallback_columns) << "threads=" << nt;
  }

  c.cfg.eigh_fallback = false;
  for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
    c.cfg.n_threads = nt;
    LETKF letkf(c.cfg);
    Ensemble work(c.kMembers, c.kDim);
    work.data() = c.prior.data();
    const Status s = letkf.try_analyze(work, c.y, c.h, c.r);
    EXPECT_EQ(s.code(), StatusCode::kNonConvergent) << "threads=" << nt;
    EXPECT_TRUE(c.same_bits(c.prior, work)) << "threads=" << nt;
  }
}

/// A 42x42x2 grid (dx = 1) whose 12-cell cutoff gives the coarse stride 2:
/// 21 nodes per node row and 21 node rows per level, so the last interval of
/// every row and column blends node 20 with node 0, node rows end in partial
/// lane batches, and at 3 threads chunk edges fall inside a level. The
/// network observes every third point of the band x < 12 on both levels,
/// with non-uniform R: columns near the band's edges have fewer local
/// observations than members (the rank-p path), those inside it more (the
/// m x m path), and columns far enough from it none, so some nodes give the
/// identity transform. One more observation at (26, 21) on level 0 is the
/// only one some nodes see (a 1 x 1 solve, converged after any sweep budget).
struct CoarseGridCase {
  static constexpr std::size_t kN = 42, kLev = 2, kDim = kN * kN * kLev, kMembers = 10;
  static constexpr std::size_t kStride = 2, kNodes = kN / kStride;
  LetkfConfig cfg;
  std::vector<ObsLocation> locs;
  std::vector<std::size_t> idx;
  std::vector<double> r_var;
  Ensemble prior{kMembers, kDim};
  std::vector<double> y;

  explicit CoarseGridCase(std::uint64_t seed) {
    cfg.nx = kN;
    cfg.ny = kN;
    cfg.n_levels = kLev;
    cfg.domain_m = static_cast<double>(kN);
    cfg.cutoff_m = 12.0;
    cfg.rossby_radius_m = 3.0;
    cfg.rtps = 0.0;
    for (std::size_t l = 0; l < kLev; ++l)
      for (std::size_t j = 0; j < kN; j += 3)
        for (std::size_t i = 0; i < 12; i += 3) {
          locs.push_back({static_cast<int>(i), static_cast<int>(j), static_cast<int>(l)});
          idx.push_back((l * kN + j) * kN + i);
          r_var.push_back(0.5 + 0.01 * static_cast<double>(r_var.size()));
        }
    locs.push_back({26, 21, 0});
    idx.push_back(21 * kN + 26);
    r_var.push_back(0.4);
    Rng rng(seed);
    prior.data() = make_gaussian_ensemble(kMembers, kDim, rng).data();
    y.resize(idx.size());
    Rng yrng(seed + 1);
    yrng.fill_gaussian(y, 0.0, 1.0);
  }

  [[nodiscard]] SubsampleObs h() const { return SubsampleObs(kDim, idx, locs); }
  [[nodiscard]] DiagonalR r() const { return DiagonalR(r_var); }

  /// Localization weight of observation o at column g, as the plan keeps it
  /// (0 below min_weight): Gaspari–Cohn over the periodic distance, the
  /// level offset entering as dlev * rossby_radius_m.
  [[nodiscard]] double rho(std::size_t g, std::size_t o) const {
    const std::size_t lev = g / (kN * kN), j = g / kN % kN, i = g % kN;
    const double dx = periodic_distance(static_cast<double>(i), locs[o].ix, cfg.domain_m);
    const double dy = periodic_distance(static_cast<double>(j), locs[o].iy, cfg.domain_m);
    const double dlev = static_cast<double>(locs[o].level) - static_cast<double>(lev);
    const double dist = std::hypot(std::hypot(dx, dy), dlev * cfg.rossby_radius_m);
    const double w = gaspari_cohn(dist, 0.5 * cfg.cutoff_m);
    return w < cfg.min_weight ? 0.0 : w;
  }
  [[nodiscard]] bool observed(std::size_t g) const {
    for (std::size_t o = 0; o < idx.size(); ++o)
      if (rho(g, o) > 0.0) return true;
    return false;
  }

  /// Closed-form mean weights of column g's local analysis:
  /// wbar = (a I + Yb^T Rloc^-1 Yb)^-1 Yb^T Rloc^-1 d, a = m - 1,
  /// Rloc = R / rho; 0 without local observations.
  [[nodiscard]] std::vector<double> wbar(std::size_t g) const {
    const std::size_t m = kMembers;
    tensor::Tensor a({m, m});
    std::vector<double> rhs(m, 0.0), yb(m);
    for (std::size_t k = 0; k < m; ++k) a(k, k) = static_cast<double>(m - 1);
    for (std::size_t o = 0; o < idx.size(); ++o) {
      const double w = rho(g, o) / r_var[o];
      if (w == 0.0) continue;
      double ybar = 0.0;
      for (std::size_t k = 0; k < m; ++k) ybar += prior.member(k)[idx[o]];
      ybar /= static_cast<double>(m);
      for (std::size_t k = 0; k < m; ++k) yb[k] = prior.member(k)[idx[o]] - ybar;
      for (std::size_t k = 0; k < m; ++k) {
        rhs[k] += w * yb[k] * (y[o] - ybar);
        for (std::size_t q = 0; q < m; ++q) a(k, q) += w * yb[k] * yb[q];
      }
    }
    return tensor::spd_solve(a, rhs);
  }

  /// Bilinear stencil of column g: (node column, weight) for every node
  /// whose weight is not zero, periodic in x and y.
  [[nodiscard]] std::vector<std::pair<std::size_t, double>> stencil(std::size_t g) const {
    const std::size_t lev = g / (kN * kN), j = g / kN % kN, i = g % kN;
    const std::size_t i0 = i / kStride, j0 = j / kStride;
    const double fx = static_cast<double>(i % kStride) / kStride;
    const double fy = static_cast<double>(j % kStride) / kStride;
    std::vector<std::pair<std::size_t, double>> out;
    for (const auto& [ni, wx] : {std::pair{i0, 1.0 - fx}, std::pair{(i0 + 1) % kNodes, fx}})
      for (const auto& [nj, wy] : {std::pair{j0, 1.0 - fy}, std::pair{(j0 + 1) % kNodes, fy}})
        if (wx * wy != 0.0)
          out.emplace_back((lev * kN + nj * kStride) * kN + ni * kStride, wx * wy);
    return out;
  }

  /// The bits a column keeps when it keeps the forecast:
  /// xbar + (x_k - xbar), with xbar = prior.mean() (member order).
  [[nodiscard]] bool kept_forecast(const Ensemble& post, std::size_t g,
                                   const std::vector<double>& xbar) const {
    for (std::size_t k = 0; k < kMembers; ++k) {
      const double want = xbar[g] + (prior.member(k)[g] - xbar[g]);
      if (std::memcmp(&want, &post.member(k)[g], sizeof(double)) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] static bool same_bits(const Ensemble& a, const Ensemble& b) {
    return 0 == std::memcmp(a.data().flat().data(), b.data().flat().data(),
                            kMembers * kDim * sizeof(double));
  }
};

TEST(Letkf, CoarseGridNodesAndBlendMatchClosedForm) {
  // RTPS off, so the analysis mean is xbar + Xb wbar at every column: the
  // closed-form wbar at a node, and the bilinear blend of its stencil
  // nodes' closed-form wbar between nodes (every W has W 1 = 1, so the
  // blended perturbation weights leave the mean alone). Columns without
  // local observations keep the forecast.
  CoarseGridCase c(31);
  ASSERT_EQ(letkf_coarse_stride(c.cfg), CoarseGridCase::kStride);
  c.cfg.collect_timings = true;
  LETKF letkf(c.cfg);
  Ensemble post(c.kMembers, c.kDim);
  post.data() = c.prior.data();
  letkf.analyze(post, c.y, c.h(), c.r());
  const LetkfTimings& t = letkf.timings();
  EXPECT_GT(t.rank_p_columns, 0u);
  EXPECT_LT(t.rank_p_columns, t.groups);
  EXPECT_LT(t.groups, c.kLev * c.kNodes * c.kNodes);  // some nodes see no observation

  const std::vector<double> xbar = c.prior.mean();
  const std::vector<double> mean = post.mean();
  std::vector<std::vector<double>> node_wbar(c.kDim);
  std::size_t nodes = 0, between = 0, unobserved = 0, identity_in_blend = 0;
  for (std::size_t g = 0; g < c.kDim; ++g) {
    const auto st = c.stencil(g);
    const bool node = st.size() == 1;
    if (!c.observed(g)) {
      EXPECT_NEAR(mean[g], xbar[g], 1e-12) << "column " << g;
      ++unobserved;
      continue;
    }
    std::vector<double> w(c.kMembers, 0.0);
    for (const auto& [q, wq] : st) {
      if (node_wbar[q].empty()) node_wbar[q] = c.wbar(q);
      if (!c.observed(q)) ++identity_in_blend;
      for (std::size_t k = 0; k < c.kMembers; ++k) w[k] += wq * node_wbar[q][k];
    }
    double want = xbar[g];
    for (std::size_t k = 0; k < c.kMembers; ++k)
      want += (c.prior.member(k)[g] - xbar[g]) * w[k];
    EXPECT_NEAR(mean[g], want, 1e-10) << (node ? "node " : "column ") << g;
    ++(node ? nodes : between);
  }
  EXPECT_GT(nodes, 0u);
  EXPECT_GT(between, 0u);
  EXPECT_GT(unobserved, 0u);
  EXPECT_GT(identity_in_blend, 0u);
}

TEST(Letkf, CoarseGridBitwiseAcrossThreadsAndLevels) {
  // 21 nodes per row: padded partial batches, the wrap block, and at 3
  // threads chunk edges inside a level (whose node rows both chunks solve).
  // With RTPS on, the analysis and the node counters are identical at 1, 2
  // and 3 threads at every dispatch level, and Scalar and AVX2 agree.
  CoarseGridCase c(37);
  c.cfg.rtps = 0.3;
  c.cfg.collect_timings = true;
  const SubsampleObs h = c.h();
  const DiagonalR r = c.r();
  const simd::SimdLevel orig = simd::active_simd_level();
  Ensemble scalar_ref(c.kMembers, c.kDim);
  for (const simd::SimdLevel lv : available_simd_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    Ensemble ref(c.kMembers, c.kDim);
    LetkfTimings ref_t;
    for (const std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      c.cfg.n_threads = nt;
      LETKF letkf(c.cfg);
      Ensemble work(c.kMembers, c.kDim);
      work.data() = c.prior.data();
      letkf.analyze(work, c.y, h, r);
      const LetkfTimings& t = letkf.timings();
      EXPECT_EQ(t.columns, c.kDim);
      EXPECT_EQ(t.batched_columns + t.scalar_columns, c.kLev * c.kNodes * c.kNodes);
      EXPECT_GT(t.batched_columns, 0u);
      EXPECT_GT(t.scalar_columns, 0u);
      if (nt == 1) {
        ref.data() = work.data();
        ref_t = t;
      }
      EXPECT_TRUE(c.same_bits(ref, work)) << simd::simd_level_name(lv) << " threads=" << nt;
      EXPECT_EQ(t.groups, ref_t.groups) << "threads=" << nt;
      EXPECT_EQ(t.batched_columns, ref_t.batched_columns) << "threads=" << nt;
      EXPECT_EQ(t.rank_p_columns, ref_t.rank_p_columns) << "threads=" << nt;
    }
    if (lv == simd::SimdLevel::Scalar) scalar_ref.data() = ref.data();
    if (lv == simd::SimdLevel::Avx2) {
      EXPECT_TRUE(c.same_bits(scalar_ref, ref)) << "Avx2 vs Scalar";
    }
  }
  simd::force_simd_level(orig);
}

TEST(Letkf, ReusedWorkTensorsGiveFreshBits) {
  // The d x m prior-perturbation and analysis tensors persist across
  // analyses. A filter whose tensors are NaN-filled after a first analysis
  // gives the same bits on its second as a fresh filter, at stride 2
  // (cutoff 12) and stride 1 (cutoff 3): every element is written before it
  // is read.
  for (const double cutoff : {12.0, 3.0}) {
    CoarseGridCase c(43);
    c.cfg.cutoff_m = cutoff;
    c.cfg.rtps = 0.3;
    EXPECT_EQ(letkf_coarse_stride(c.cfg), cutoff > 10.0 ? 2u : 1u);
    const SubsampleObs h = c.h();
    const DiagonalR r = c.r();
    LETKF fresh(c.cfg), reused(c.cfg);
    Ensemble a(c.kMembers, c.kDim), b(c.kMembers, c.kDim);
    b.data() = c.prior.data();
    reused.analyze(b, c.y, h, r);
    reused.poison_work(std::numeric_limits<double>::quiet_NaN());
    a.data() = c.prior.data();
    b.data() = c.prior.data();
    fresh.analyze(a, c.y, h, r);
    reused.analyze(b, c.y, h, r);
    EXPECT_TRUE(c.same_bits(a, b)) << "cutoff " << cutoff;
  }
}

TEST(Letkf, CoarseGridUnobservedColumnsKeepForecast) {
  // One observation at (0, 0) of a 32x32 grid with a 12-cell cutoff
  // (stride 2): a column without local observations keeps the forecast bit
  // for bit even when a node of its stencil is observed.
  Rng rng(41);
  const std::size_t n = 32, d = n * n, m = 12;
  Ensemble ens = make_gaussian_ensemble(m, d, rng);
  const Ensemble prior = ens;
  const SubsampleObs h(d, {0}, {{0, 0, 0}});
  const DiagonalR r(1, 1.0);
  const std::vector<double> y{3.0};
  LetkfConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.n_levels = 1;
  cfg.domain_m = static_cast<double>(n);
  cfg.cutoff_m = 12.0;
  cfg.rtps = 0.0;
  ASSERT_EQ(letkf_coarse_stride(cfg), 2u);
  LETKF letkf(cfg);
  letkf.analyze(ens, y, h, r);

  const auto observed = [&](std::size_t g) {
    const double dx = periodic_distance(static_cast<double>(g % n), 0.0, cfg.domain_m);
    const double dy = periodic_distance(static_cast<double>(g / n), 0.0, cfg.domain_m);
    return gaspari_cohn(std::hypot(dx, dy), 0.5 * cfg.cutoff_m) >= cfg.min_weight;
  };
  // Whether a node of column g's stencil (nonzero bilinear weight) is
  // observed.
  const auto stencil_observed = [&](std::size_t g) {
    const std::size_t i = g % n, j = g / n;
    for (const std::size_t ni : {i / 2 * 2, (i / 2 * 2 + (i % 2) * 2) % n})
      for (const std::size_t nj : {j / 2 * 2, (j / 2 * 2 + (j % 2) * 2) % n})
        if (observed(nj * n + ni)) return true;
    return false;
  };
  const std::vector<double> xbar = prior.mean();
  std::size_t kept = 0, kept_next_to_observed_node = 0;
  for (std::size_t g = 0; g < d; ++g) {
    if (observed(g)) continue;
    for (std::size_t k = 0; k < m; ++k) {
      const double want = xbar[g] + (prior.member(k)[g] - xbar[g]);
      ASSERT_EQ(0, std::memcmp(&want, &ens.member(k)[g], sizeof(double))) << "column " << g;
    }
    ++kept;
    if (stencil_observed(g)) ++kept_next_to_observed_node;
  }
  EXPECT_GT(kept, 0u);
  EXPECT_GT(kept_next_to_observed_node, 0u);
  EXPECT_GT(ens.mean()[0], prior.mean()[0]);  // the observed cell moved toward y = 3
}

TEST(Letkf, CoarseGridFallbackIsThreadInvariant) {
  // One Jacobi sweep leaves the larger local problems unconverged. With
  // fallback on, a failed node and every observed column whose blend would
  // read it keep the forecast, the rest are analyzed, and the bits and the
  // stats are the same at 1, 2 and 3 threads; solver_failures counts the
  // failed nodes and fallback_columns every observed column that kept the
  // forecast. With fallback off the analysis fails as a whole, ensemble
  // untouched.
  CoarseGridCase c(43);
  c.cfg.eigh_max_sweeps = 1;
  const SubsampleObs h = c.h();
  const DiagonalR r = c.r();
  Ensemble ref(c.kMembers, c.kDim);
  AnalysisStats ref_stats;
  for (const std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    c.cfg.n_threads = nt;
    LETKF letkf(c.cfg);
    Ensemble work(c.kMembers, c.kDim);
    work.data() = c.prior.data();
    AnalysisStats st;
    ASSERT_TRUE(letkf.try_analyze(work, c.y, h, r, {}, &st).ok());
    if (nt == 1) {
      ref.data() = work.data();
      ref_stats = st;
    }
    EXPECT_TRUE(c.same_bits(ref, work)) << "threads=" << nt;
    EXPECT_EQ(st.solver_failures, ref_stats.solver_failures) << "threads=" << nt;
    EXPECT_EQ(st.fallback_columns, ref_stats.fallback_columns) << "threads=" << nt;
  }

  const std::vector<double> xbar = c.prior.mean();
  std::vector<std::uint8_t> failed_node(c.kDim, 0);
  std::size_t failed_nodes = 0;
  for (std::size_t g = 0; g < c.kDim; ++g)
    if (c.stencil(g).size() == 1 && c.observed(g) && c.kept_forecast(ref, g, xbar)) {
      failed_node[g] = 1;
      ++failed_nodes;
    }
  std::size_t kept = 0, analyzed = 0, kept_between = 0;
  for (std::size_t g = 0; g < c.kDim; ++g) {
    if (!c.observed(g)) continue;
    bool touches_failed = false;
    for (const auto& [q, wq] : c.stencil(g)) touches_failed = touches_failed || failed_node[q];
    const bool keeps = c.kept_forecast(ref, g, xbar);
    EXPECT_EQ(keeps, touches_failed) << "column " << g;
    ++(keeps ? kept : analyzed);
    if (keeps && c.stencil(g).size() > 1) ++kept_between;
  }
  EXPECT_GT(failed_nodes, 0u);
  EXPECT_GT(kept_between, 0u);
  EXPECT_GT(analyzed, 0u);
  EXPECT_EQ(ref_stats.solver_failures, failed_nodes);
  EXPECT_EQ(ref_stats.fallback_columns, kept);

  c.cfg.eigh_fallback = false;
  for (const std::size_t nt : {std::size_t{1}, std::size_t{3}}) {
    c.cfg.n_threads = nt;
    LETKF letkf(c.cfg);
    Ensemble work(c.kMembers, c.kDim);
    work.data() = c.prior.data();
    const Status s = letkf.try_analyze(work, c.y, h, r);
    EXPECT_EQ(s.code(), StatusCode::kNonConvergent) << "threads=" << nt;
    EXPECT_TRUE(c.same_bits(c.prior, work)) << "threads=" << nt;
  }
}

TEST(Ensf, RecoversPosteriorForScalarGaussian) {
  // Prior N(0,1) (large ensemble), obs y = 2 with R = 1: posterior is
  // N(1, 1/2). EnSF is a sampling approximation — verify mean and variance
  // within Monte-Carlo tolerance.
  Rng rng(9);
  const std::size_t m = 300, d = 1;
  Ensemble ens = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y{2.0};
  IdentityObs h(d);
  DiagonalR r(d, 1.0);
  EnsfConfig cfg;
  cfg.euler_steps = 200;
  cfg.relax_spread = 0.0;  // raw posterior, no spread regularization
  EnSF filter(cfg);
  filter.analyze(ens, y, h, r);
  const auto mu = ens.mean();
  const auto sd = ens.stddev();
  EXPECT_NEAR(mu[0], 1.0, 0.2);
  EXPECT_NEAR(sd[0] * sd[0], 0.5, 0.25);
}

/// An EnSF analysis scored against the closed-form linear-Gaussian
/// posterior: H = I, prior N(0, I), R = 0.25 I. Per component the Kalman
/// posterior is then N(0.8 y, 0.2).
struct KalmanScore {
  double mean_err;   ///< RMS over components of (analysis mean - 0.8 y), in posterior SDs
  double var_ratio;  ///< ensemble variance averaged over components, over 0.2
};

/// Average score over `trials` seeded problems of dimension d with
/// `members` members: truth ~ N(0, I), y = truth + N(0, R), prior members
/// ~ N(0, I).
KalmanScore ensf_vs_kalman(EnsfConfig cfg, std::size_t d, std::size_t members, int trials) {
  constexpr double kR = 0.25, kGain = 1.0 / (1.0 + kR), kPostVar = 1.0 - kGain;
  const IdentityObs h(d);
  const DiagonalR r(d, kR);
  KalmanScore sum{0.0, 0.0};
  for (int t = 0; t < trials; ++t) {
    Rng rng(4100 + static_cast<std::uint64_t>(t));
    std::vector<double> y(d);
    for (double& v : y) v = rng.gaussian() + std::sqrt(kR) * rng.gaussian();
    Ensemble ens = make_gaussian_ensemble(members, d, rng);
    cfg.seed = 900 + static_cast<std::uint64_t>(t);
    EnSF filter(cfg);
    filter.analyze(ens, y, h, r);
    const auto mu = ens.mean();
    const auto sd = ens.stddev();
    double err_sq = 0.0, var = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double e = mu[i] - kGain * y[i];
      err_sq += e * e;
      var += sd[i] * sd[i];
    }
    sum.mean_err += std::sqrt(err_sq / static_cast<double>(d) / kPostVar);
    sum.var_ratio += var / static_cast<double>(d) / kPostVar;
  }
  return {sum.mean_err / trials, sum.var_ratio / trials};
}

TEST(Ensf, LinearGaussianOracleLocksTodaysCurves) {
  // EnSF against the Kalman posterior, 4 trials each, on three curves: in
  // dimension (d = 64 and 1024, 20 members) and in ensemble size (d = 256,
  // M = 20, 80 and 320). Raw EnSF barely contracts (an analysis that kept
  // the prior mean would score ~2.06), stabilized() has a ~0.36 SD bias
  // floor and the variance of an R/16 posterior, kappa 0.6 at strength 1
  // lands near the Kalman variance. Raw EnSF does not converge in M: from
  // 20 to 320 members the error falls only from 1.89 to 1.68 SDs, and the
  // variance stays ~4x Kalman's. stabilized() has already converged at
  // M = 20, to its R/16 posterior rather than Kalman's.
  // Centres are the measured scores; tolerances are three standard
  // deviations of the 4-trial average over 12 independent seed sets. A
  // change that only moves last bits stays inside; one that leaves a band
  // changed the filter's statistics.
  EnsfConfig raw;  // Eqs. 11-17: likelihood strength 1, kappa 0
  raw.relax_spread = 0.0;
  EnsfConfig stab = EnsfConfig::stabilized();  // before its RTPS
  stab.relax_spread = 0.0;
  EnsfConfig smooth;  // likelihood strength 1, kappa 0.6
  smooth.kernel_bandwidth = 0.6;
  smooth.relax_spread = 0.0;
  struct Band {
    const char* name;
    const EnsfConfig& cfg;
    std::size_t d, members;
    double err, err_tol, var, var_tol;
  };
  for (const Band& b : {Band{"raw", raw, 64, 20, 1.844, 0.31, 3.38, 1.49},
                        Band{"raw", raw, 1024, 20, 1.957, 0.074, 4.266, 0.154},
                        Band{"stabilized", stab, 64, 20, 0.378, 0.043, 0.0656, 0.0117},
                        Band{"stabilized", stab, 1024, 20, 0.350, 0.047, 0.0607, 0.029},
                        Band{"kappa 0.6", smooth, 64, 20, 0.550, 0.18, 1.096, 0.32},
                        Band{"kappa 0.6", smooth, 1024, 20, 0.444, 0.022, 1.302, 0.028},
                        Band{"raw", raw, 256, 20, 1.892, 0.13, 3.88, 0.40},
                        Band{"raw", raw, 256, 80, 1.784, 0.16, 3.98, 0.60},
                        Band{"raw", raw, 256, 320, 1.677, 0.14, 4.000, 0.24},
                        Band{"stabilized", stab, 256, 20, 0.355, 0.030, 0.0599, 0.0151},
                        Band{"stabilized", stab, 256, 80, 0.362, 0.041, 0.0583, 0.0230},
                        Band{"stabilized", stab, 256, 320, 0.376, 0.053, 0.0547, 0.0229}}) {
    const KalmanScore s = ensf_vs_kalman(b.cfg, b.d, b.members, 4);
    SCOPED_TRACE(testing::Message() << b.name << ", d = " << b.d << ", M = " << b.members);
    EXPECT_NEAR(s.mean_err, b.err, b.err_tol);
    EXPECT_NEAR(s.var_ratio, b.var, b.var_tol);
  }
}

TEST(Ensf, MovesTowardObservationsInHighDim) {
  Rng rng(10);
  const std::size_t m = 20, d = 200;
  Ensemble ens = make_gaussian_ensemble(m, d, rng, 0.0, 1.0);
  std::vector<double> truth(d, 2.0);
  IdentityObs h(d);
  DiagonalR r(d, 0.25);
  const double rmse0 = rmse_vs_truth(ens, truth);
  EnSF filter(EnsfConfig::stabilized());
  std::vector<double> y = truth;  // perfect obs (error folded into R)
  filter.analyze(ens, y, h, r);
  EXPECT_LT(rmse_vs_truth(ens, truth), 0.5 * rmse0);
}

TEST(Ensf, KernelSmoothingImprovesSmallEnsembleContraction) {
  // The raw Eq.-16 score with 20 isolated members in 200 dimensions barely
  // contracts (particle-degeneracy-like pinning); the kernel-smoothed score
  // restores the pull toward observations. This is the key ablation finding
  // documented in the README's "EnSF analysis" section.
  Rng rng(20);
  const std::size_t m = 20, d = 200;
  Ensemble raw = make_gaussian_ensemble(m, d, rng, 0.0, 1.0);
  Ensemble smooth(m, d);
  smooth.data() = raw.data();
  std::vector<double> truth(d, 2.0);
  IdentityObs h(d);
  DiagonalR r(d, 1.0);
  const double rmse0 = rmse_vs_truth(raw, truth);

  EnsfConfig raw_cfg;  // faithful defaults
  EnSF f_raw(raw_cfg);
  f_raw.analyze(raw, truth, h, r);

  EnSF f_smooth(EnsfConfig::stabilized());
  f_smooth.analyze(smooth, truth, h, r);

  const double e_raw = rmse_vs_truth(raw, truth);
  const double e_smooth = rmse_vs_truth(smooth, truth);
  EXPECT_LT(e_smooth, 0.6 * e_raw);
  EXPECT_LT(e_smooth, 0.5 * rmse0);
}

TEST(Ensf, ReproducibleGivenSeed) {
  Rng rng(11);
  Ensemble e1 = make_gaussian_ensemble(10, 5, rng);
  Ensemble e2(10, 5);
  e2.data() = e1.data();
  std::vector<double> y(5, 1.0);
  IdentityObs h(5);
  DiagonalR r(5, 1.0);
  EnsfConfig cfg;
  cfg.seed = 777;
  EnSF f1(cfg), f2(cfg);
  f1.analyze(e1, y, h, r);
  f2.analyze(e2, y, h, r);
  for (std::size_t k = 0; k < 10; ++k)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_DOUBLE_EQ(e1.member(k)[i], e2.member(k)[i]);
}

TEST(Ensf, RelaxSpreadMatchesPrior) {
  Rng rng(12);
  Ensemble ens = make_gaussian_ensemble(40, 8, rng);
  const auto prior_sd = ens.stddev();
  std::vector<double> y(8, 0.5);
  IdentityObs h(8);
  DiagonalR r(8, 1.0);
  EnsfConfig cfg;
  cfg.relax_spread = 1.0;  // full relaxation to prior spread
  EnSF filter(cfg);
  filter.analyze(ens, y, h, r);
  const auto post_sd = ens.stddev();
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(post_sd[i], prior_sd[i], 1e-9);
}

TEST(Ensf, MinibatchScoreStillAssimilates) {
  Rng rng(13);
  Ensemble ens = make_gaussian_ensemble(40, 50, rng);
  std::vector<double> truth(50, 1.5);
  IdentityObs h(50);
  DiagonalR r(50, 0.25);
  const double rmse0 = rmse_vs_truth(ens, truth);
  EnsfConfig cfg = EnsfConfig::stabilized();
  cfg.minibatch = 10;  // J < M (Eq. 15)
  EnSF filter(cfg);
  filter.analyze(ens, truth, h, r);
  EXPECT_LT(rmse_vs_truth(ens, truth), 0.6 * rmse0);
}

TEST(Ensf, HandlesNonlinearArctanObs) {
  Rng rng(14);
  const std::size_t d = 40;
  Ensemble ens = make_gaussian_ensemble(40, d, rng, 0.0, 1.0);
  std::vector<double> truth(d);
  rng.fill_gaussian(truth, 0.0, 1.0);
  ArctanObs h(d);
  DiagonalR r(d, 0.01);
  std::vector<double> y(d);
  h.apply(truth, y);
  const double rmse0 = rmse_vs_truth(ens, truth);
  EnsfConfig cfg;
  cfg.euler_steps = 120;
  EnSF filter(cfg);
  filter.analyze(ens, y, h, r);
  EXPECT_LT(rmse_vs_truth(ens, truth), rmse0);
}

/// The EnSF analysis on the plain per-step schedule: each Euler step draws
/// its minibatch at the top of the step, runs the score GEMM, the softmax and
/// the weighted mean over all samples at once, then each sample's
/// likelihood, noise and update through the same dispatched kernels, with
/// the RTPS pass at the end. `cycle` keys the analysis stream: the filter's
/// cycle counter after the call (1 for a fresh filter's first analysis).
void ensf_per_step_reference(Ensemble& ens, std::span<const double> y,
                             const ObservationOperator& h, const DiagonalR& r,
                             const AnalysisOptions& opts, const EnsfConfig& cfg,
                             std::uint64_t cycle) {
  const std::size_t big_m = ens.size(), d = ens.dim(), p = h.obs_dim();
  Rng rng(cfg.seed, cycle);
  std::vector<Rng> sample_rng;
  for (std::size_t j = 0; j < big_m; ++j) sample_rng.push_back(rng.substream(j));
  const tensor::Tensor forecast = ens.data();
  const std::vector<double> prior_sd = ens.stddev();
  double spread_sq = 0.0;
  for (double v : prior_sd) spread_sq += v * v;
  spread_sq /= static_cast<double>(d);
  const double kappa_sq = cfg.kernel_bandwidth * cfg.kernel_bandwidth * spread_sq;
  std::vector<double> xsq(big_m, 0.0);
  for (std::size_t j = 0; j < big_m; ++j)
    for (double v : forecast.row(j)) xsq[j] += v * v;

  tensor::Tensor z({big_m, d});
  for (std::size_t m = 0; m < big_m; ++m) sample_rng[m].fill_gaussian_lanes(z.row(m));
  const std::size_t batch =
      cfg.minibatch > 0 ? std::min<std::size_t>(big_m, cfg.minibatch) : big_m;
  std::vector<std::size_t> batch_idx(big_m);
  std::iota(batch_idx.begin(), batch_idx.end(), std::size_t{0});
  tensor::Tensor xb({batch, d});
  std::vector<double> xbsq(batch);
  const auto& dk = simd::active_kernels();
  std::vector<double> hx(p), resid(p), rinv_resid(p), grad(d), noise(d);
  const double dt = 1.0 / cfg.euler_steps;
  for (int step = 0; step < cfg.euler_steps; ++step) {
    const double t = 1.0 - step * dt;
    const double alpha = 1.0 - (1.0 - cfg.eps_alpha) * t;
    const double beta_sq = t + alpha * alpha * kappa_sq;
    const double b_t = -(1.0 - cfg.eps_alpha) / alpha;
    const double sigma_sq = 1.0 - 2.0 * b_t * t;
    const double damping = (1.0 - t) * cfg.likelihood_strength;

    const tensor::Tensor* x = &forecast;
    const std::vector<double>* x_sq = &xsq;
    if (batch < big_m) {
      rng.shuffle(std::span<std::size_t>(batch_idx));
      for (std::size_t j = 0; j < batch; ++j) {
        const auto src = forecast.row(batch_idx[j]);
        std::copy(src.begin(), src.end(), xb.row(j).begin());
        xbsq[j] = xsq[batch_idx[j]];
      }
      x = &xb;
      x_sq = &xbsq;
    }
    tensor::Tensor w = tensor::matmul_nt(z, *x, 1);
    for (std::size_t m = 0; m < big_m; ++m) {
      auto row = w.row(m);
      double mx = -1e300;
      for (std::size_t j = 0; j < batch; ++j) {
        row[j] = (2.0 * alpha * row[j] - alpha * alpha * (*x_sq)[j]) / (2.0 * beta_sq);
        mx = std::max(mx, row[j]);
      }
      double denom = 0.0;
      for (std::size_t j = 0; j < batch; ++j) {
        row[j] = std::exp(row[j] - mx);
        denom += row[j];
      }
      const double inv = 1.0 / denom;
      for (std::size_t j = 0; j < batch; ++j) row[j] *= inv;
    }
    const tensor::Tensor wx = tensor::matmul(w, *x, 1);

    const double noise_sd = std::sqrt(std::max(sigma_sq, 0.0) * dt);
    const double c0 = 1.0 - (b_t + sigma_sq / beta_sq) * dt;
    const double c1 = sigma_sq * alpha * dt / beta_sq;
    const double cl = sigma_sq * damping * dt;
    for (std::size_t m = 0; m < big_m; ++m) {
      auto zm = z.row(m);
      h.apply(zm, hx);
      for (std::size_t i = 0; i < p; ++i)
        resid[i] = (!opts.obs_mask.empty() && opts.obs_mask[i] == 0) ? 0.0 : y[i] - hx[i];
      r.apply_inverse(resid, rinv_resid);
      if (opts.r_scale != 1.0)
        dk.scale(rinv_resid.data(), rinv_resid.data(), p, 1.0 / opts.r_scale);
      h.adjoint(zm, rinv_resid, grad);
      sample_rng[m].fill_gaussian_lanes(noise);
      double* zp = zm.data();
      dk.scale(zp, zp, d, c0);
      dk.axpy(zp, wx.row(m).data(), d, c1);
      dk.clamped_axpy(zp, grad.data(), d, cl, cfg.max_like_step);
      dk.axpy(zp, noise.data(), d, noise_sd);
    }
  }
  ens.data() = std::move(z);

  if (cfg.relax_spread > 0.0) {
    const auto post_sd = ens.stddev();
    const auto mu = ens.mean();
    for (std::size_t i = 0; i < d; ++i) {
      if (post_sd[i] <= 1e-12) continue;
      const double target =
          (1.0 - cfg.relax_spread) * post_sd[i] + cfg.relax_spread * prior_sd[i];
      const double scale = target / post_sd[i];
      for (std::size_t m = 0; m < big_m; ++m) {
        auto row = ens.member(m);
        row[i] = mu[i] + (row[i] - mu[i]) * scale;
      }
    }
  }
}

TEST(Ensf, MatchesPerStepReference) {
  // The filter integrates each sample block through every Euler step in one
  // fan-out. It must equal the per-step schedule bit for bit at 1, 2 and 3
  // threads (M = 17 makes the blocks unequal) on four inputs: the full
  // batch, a minibatch (the shuffles continue across steps), a QC mask with
  // r_scale, and two consecutive cycles (the cycle counter keys the stream).
  // It does so at every SIMD level, including avx2fma, where the update
  // kernels fuse. The reference forms its score products with
  // tensor::matmul_nt and tensor::matmul, which run on the same matmul_rows
  // kernel as the filter, so this test checks the schedule; MatmulRows.* in
  // test_tensor check the kernel against a naive sum.
  Rng rng(31);
  const std::size_t m = 17, d = 300;
  std::vector<double> truth(d);
  rng.fill_gaussian(truth, 0.0, 2.0);
  Ensemble prior(m, d);
  prior.init_perturbed(truth, 1.5, rng);
  std::vector<double> y(d), r_var(d);
  for (std::size_t i = 0; i < d; ++i) {
    y[i] = truth[i] + rng.gaussian();
    r_var[i] = 0.5 + 0.01 * static_cast<double>(i % 50);
  }
  const IdentityObs h(d);
  const DiagonalR r(r_var);
  // QC input: every 7th observation excised, its raw value non-finite so any
  // read of it would poison the analysis.
  std::vector<std::uint8_t> mask(d, 1);
  std::vector<double> y_qc = y;
  for (std::size_t i = 0; i < d; i += 7) {
    mask[i] = 0;
    y_qc[i] = std::numeric_limits<double>::quiet_NaN();
  }

  struct Input {
    const char* name;
    int minibatch;
    bool qc;
    std::uint64_t cycles;
  };
  const simd::SimdLevel orig = simd::active_simd_level();
  for (const simd::SimdLevel lv : available_simd_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    const char* level = simd::simd_level_name(lv);
    for (const Input& in : {Input{"full batch", 0, false, 1}, Input{"minibatch 6", 6, false, 1},
                            Input{"QC mask, r_scale 1.5", 0, true, 1},
                            Input{"two cycles", 0, false, 2}}) {
      EnsfConfig cfg = EnsfConfig::stabilized();
      cfg.euler_steps = 50;
      cfg.minibatch = in.minibatch;
      AnalysisOptions opts;
      if (in.qc) {
        opts.obs_mask = mask;
        opts.r_scale = 1.5;
      }
      const std::span<const double> yv = in.qc ? y_qc : y;
      Ensemble want(m, d);
      want.data() = prior.data();
      for (std::uint64_t c = 1; c <= in.cycles; ++c)
        ensf_per_step_reference(want, yv, h, r, opts, cfg, c);

      for (const std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        cfg.n_threads = nt;
        EnSF filter(cfg);
        Ensemble got(m, d);
        got.data() = prior.data();
        for (std::uint64_t c = 1; c <= in.cycles; ++c)
          ASSERT_TRUE(filter.try_analyze(got, yv, h, r, opts).ok()) << level << ", " << in.name;
#if defined(__FMA__)
        // An FMA-enabled -march (TURBDA_NATIVE) lets the compiler fuse
        // multiply-adds differently in this translation unit than in the
        // library's, so there the schedules agree to a few ulps (~1e-14 here).
        for (std::size_t i = 0; i < m * d; ++i)
          ASSERT_NEAR(got.data().data()[i], want.data().data()[i], 1e-12)
              << level << ", " << in.name << ", threads=" << nt << ", element " << i;
#else
        EXPECT_EQ(0, std::memcmp(got.data().data(), want.data().data(), m * d * sizeof(double)))
            << level << ", " << in.name << ", threads=" << nt;
#endif
        const EnsfTimings& tm = filter.timings();
        EXPECT_EQ(tm.analyses, in.cycles);
        EXPECT_GT(tm.noise_ms, 0.0);
        EXPECT_GT(tm.total_ms, 0.0);
      }
    }
  }
  simd::force_simd_level(orig);
}

TEST(Ensf, AnalysisAllocationsDoNotGrowWithEulerSteps) {
  // Sample blocks allocate their scratch once per analysis and nothing per
  // Euler step, so a warmed analysis makes as many heap allocations at 64
  // Euler steps as at 8, with and without a minibatch, serial and on three
  // threads (three sample blocks, two of them queued on the pool). The
  // pool's task ring keeps its capacity once grown, so one call after the
  // warm-up is counted.
  Rng rng(32);
  const std::size_t m = 12, d = 512;
  const Ensemble prior = make_gaussian_ensemble(m, d, rng);
  const std::vector<double> y(d, 0.5);
  const IdentityObs h(d);
  const DiagonalR r(d, 1.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}})
    for (const int minibatch : {0, 5}) {
      std::uint64_t allocs[2] = {0, 0};
      const int steps[2] = {8, 64};
      for (int s = 0; s < 2; ++s) {
        EnsfConfig cfg = EnsfConfig::stabilized();
        cfg.euler_steps = steps[s];
        cfg.minibatch = minibatch;
        cfg.n_threads = threads;
        EnSF filter(cfg);
        Ensemble work(m, d);
        work.data() = prior.data();
        filter.analyze(work, y, h, r);  // warm-up: first-use setup (SIMD dispatch, the pool)
        work.data() = prior.data();
        const std::uint64_t before = g_new_calls.load();
        filter.analyze(work, y, h, r);
        allocs[s] = g_new_calls.load() - before;
      }
      EXPECT_EQ(allocs[0], allocs[1]) << threads << " threads, minibatch " << minibatch << ": "
                                      << allocs[0] << " allocations at 8 steps, " << allocs[1]
                                      << " at 64";
    }
}

TEST(Ensf, RefusesUnmaskedNonFiniteObservations) {
  // An unmasked NaN or +inf observation makes the residual non-finite, and
  // the likelihood clamp would turn it into a silent +/-max_like_step pull
  // every Euler step. The analysis refuses it, naming the first such index,
  // and leaves the ensemble and the cycle counter untouched, so the runner
  // keeps the forecast. Masked, the same values are never read.
  Rng rng(33);
  const std::size_t m = 10, d = 50;
  const Ensemble prior = make_gaussian_ensemble(m, d, rng);
  std::vector<double> y(d);
  rng.fill_gaussian(y, 0.0, 1.0);
  y[7] = std::numeric_limits<double>::quiet_NaN();
  y[8] = std::numeric_limits<double>::infinity();
  const IdentityObs h(d);
  const DiagonalR r(d, 1.0);
  std::vector<std::uint8_t> without_7(d, 1), without_7_8(d, 1);
  without_7[7] = 0;
  without_7_8[7] = without_7_8[8] = 0;
  AnalysisOptions mask_7, mask_both;
  mask_7.obs_mask = without_7;
  mask_both.obs_mask = without_7_8;
  for (const EnsfConfig& cfg : {EnsfConfig{}, EnsfConfig::stabilized()}) {
    EnSF filter(cfg);
    Ensemble work(m, d);
    work.data() = prior.data();
    for (const auto& [opts, index] :
         {std::pair{AnalysisOptions{}, "observation 7 "}, std::pair{mask_7, "observation 8 "}}) {
      const Status s = filter.try_analyze(work, y, h, r, opts);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.to_string();
      EXPECT_NE(s.message().find(index), std::string::npos) << s.to_string();
      EXPECT_EQ(0, std::memcmp(work.data().data(), prior.data().data(), m * d * sizeof(double)));
      EXPECT_EQ(filter.cycles_done(), 0u);
    }
    EXPECT_THROW(filter.analyze(work, y, h, r), Error);
    EXPECT_EQ(filter.cycles_done(), 0u);

    ASSERT_TRUE(filter.try_analyze(work, y, h, r, mask_both).ok());
    EXPECT_EQ(filter.cycles_done(), 1u);
    for (const double v : work.data().flat()) ASSERT_TRUE(std::isfinite(v));
  }
}

// ------------------------------------------------------------------ OSSE ---

TEST(Osse, FreeRunHasEqualPriorAndPost) {
  Lorenz96Config mc;
  mc.dim = 40;
  Lorenz96 truth_model(mc), fcst_model(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);
  stream::RealtimeConfig cfg;
  cfg.cycles = 5;
  cfg.n_members = 5;
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.1;
  stream::SyntheticStream obs({.seed = cfg.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner runner(cfg, obs, fcst_model, /*filter=*/nullptr);
  const auto metrics = runner.run(truth0);
  ASSERT_EQ(metrics.size(), 5u);
  for (const auto& m : metrics) {
    EXPECT_DOUBLE_EQ(m.rmse_prior, m.rmse_post);
    EXPECT_DOUBLE_EQ(m.spread_prior, m.spread_post);
  }
}

TEST(Osse, FreeRunIsPureEnsembleForecast) {
  // The paper's "SQG only" configuration: filter == nullptr must reduce the
  // runner to independent member integrations — no observation influence, no
  // hidden perturbations — while still driving hooks and retaining truth.
  Lorenz96Config mc;
  mc.dim = 20;
  mc.steps_per_window = 5;
  Lorenz96 truth_model(mc), fcst_model(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);

  stream::RealtimeConfig cfg;
  cfg.cycles = 4;
  cfg.n_members = 4;
  cfg.seed = 17;

  std::vector<double> truth0(mc.dim, 8.0);
  truth0[3] += 0.05;
  Ensemble init(cfg.n_members, mc.dim);
  Rng rng(3);
  for (std::size_t m = 0; m < cfg.n_members; ++m) {
    auto row = init.member(m);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] = truth0[i] + rng.gaussian(0.0, 0.5);
  }

  stream::SyntheticStream obs({.seed = cfg.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner runner(cfg, obs, fcst_model, /*filter=*/nullptr);
  int hook_calls = 0;
  runner.set_post_analysis_hook([&](int cycle, std::span<const double> mean) {
    EXPECT_EQ(cycle, hook_calls);
    EXPECT_EQ(mean.size(), static_cast<std::size_t>(mc.dim));
    ++hook_calls;
  });
  const auto metrics = runner.run(truth0, &init);

  ASSERT_EQ(metrics.size(), static_cast<std::size_t>(cfg.cycles));
  EXPECT_EQ(hook_calls, cfg.cycles);

  // Each member must equal its own direct model integration, bitwise.
  Lorenz96 direct(mc);
  for (std::size_t m = 0; m < cfg.n_members; ++m) {
    std::vector<double> state(init.member(m).begin(), init.member(m).end());
    for (int k = 0; k < cfg.cycles; ++k) direct.forecast(state);
    const auto got = runner.ensemble().member(m);
    EXPECT_EQ(0, std::memcmp(got.data(), state.data(), state.size() * sizeof(double)))
        << "member " << m;
  }

  // And the retained truth is the direct truth integration, bitwise.
  std::vector<double> truth = truth0;
  for (int k = 0; k < cfg.cycles; ++k) direct.forecast(truth);
  ASSERT_EQ(obs.latest_truth().size(), truth.size());
  EXPECT_EQ(0, std::memcmp(obs.latest_truth().data(), truth.data(),
                           truth.size() * sizeof(double)));
}

TEST(Osse, EnsfBeatsFreeRunOnLorenz96) {
  Lorenz96Config mc;
  mc.dim = 40;
  mc.steps_per_window = 10;  // 0.1 time units between obs
  Lorenz96 truth_model(mc), fcst_a(mc), fcst_b(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);

  // Spin the truth onto the attractor.
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  Lorenz96 spin(mc);
  for (int i = 0; i < 500; ++i) spin.step(truth0);

  stream::RealtimeConfig cfg;
  cfg.cycles = 30;
  cfg.n_members = 20;
  cfg.init_spread = 1.0;
  cfg.seed = 99;

  EnSF filter(EnsfConfig::stabilized());
  stream::SyntheticStream da_obs({.seed = cfg.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner da_run(cfg, da_obs, fcst_a, &filter);
  const auto da_metrics = da_run.run(truth0);

  stream::SyntheticStream free_obs({.seed = cfg.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner free_run(cfg, free_obs, fcst_b, nullptr);
  const auto free_metrics = free_run.run(truth0);

  // Average analysis RMSE over the last 10 cycles.
  double da_err = 0.0, free_err = 0.0;
  for (int k = 20; k < 30; ++k) {
    da_err += da_metrics[static_cast<std::size_t>(k)].rmse_post;
    free_err += free_metrics[static_cast<std::size_t>(k)].rmse_post;
  }
  EXPECT_LT(da_err, 0.4 * free_err);
  // And the filter tracks near the observation-noise floor.
  EXPECT_LT(da_err / 10.0, 1.4);
}

TEST(Osse, ModelErrorInjectionDegradesForecasts) {
  Lorenz96Config mc;
  mc.dim = 40;
  Lorenz96 truth_model(mc), fcst_a(mc), fcst_b(mc);
  IdentityObs h(mc.dim);
  DiagonalR r(mc.dim, 1.0);
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[5] += 0.02;
  Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);

  models::ModelErrorConfig mec;
  mec.reference_scale = 3.0;
  models::ModelErrorProcess me(mec);

  stream::RealtimeConfig cfg;
  cfg.cycles = 10;
  cfg.n_members = 10;
  cfg.seed = 5;

  stream::SyntheticStream clean_obs({.seed = cfg.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner clean(cfg, clean_obs, fcst_a, nullptr);
  const auto m_clean = clean.run(truth0);

  cfg.inject_model_error = true;
  stream::SyntheticStream noisy_obs({.seed = cfg.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner noisy(cfg, noisy_obs, fcst_b, nullptr, &me);
  const auto m_noisy = noisy.run(truth0);

  double e_clean = 0.0, e_noisy = 0.0;
  for (int k = 0; k < 5; ++k) {
    e_clean += m_clean[static_cast<std::size_t>(k)].rmse_prior;
    e_noisy += m_noisy[static_cast<std::size_t>(k)].rmse_prior;
  }
  EXPECT_GT(e_noisy, e_clean);
}

}  // namespace
}  // namespace turbda::da
