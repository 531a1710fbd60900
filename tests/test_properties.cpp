// Cross-module property sweeps (TEST_P): invariants that must hold across
// grid sizes, ensemble sizes and filter configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "da/ensf.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"

namespace turbda {
namespace {

using turbda::rng::Rng;

// --- SQG invariants across grid sizes ---------------------------------------

class SqgGridP : public ::testing::TestWithParam<int> {};

TEST_P(SqgGridP, SpectralRoundTripAndRealness) {
  sqg::SqgConfig cfg;
  cfg.n = static_cast<std::size_t>(GetParam());
  sqg::SqgModel model(cfg);
  Rng rng(31 + cfg.n);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, static_cast<int>(cfg.n) / 4);
  std::vector<sqg::Cplx> spec(model.spec_dim());
  model.to_spectral(theta, spec);
  std::vector<double> back(model.dim());
  model.to_grid(spec, back);
  // to_spectral and to_grid run in float; worst measured 8.8e-7 on these
  // unit-rms fields (n = 16, 32, 64).
  double err = 0.0;
  for (std::size_t i = 0; i < theta.size(); ++i) err = std::max(err, std::abs(back[i] - theta[i]));
  EXPECT_LE(err, 2e-6);
}

TEST_P(SqgGridP, EadyGrowthRateIsGridIndependent) {
  // The linear growth rate depends on physical parameters only, never on
  // resolution.
  sqg::SqgConfig a, b;
  a.n = static_cast<std::size_t>(GetParam());
  b.n = 2 * a.n;
  sqg::SqgModel ma(a), mb(b);
  for (int m = 1; m <= 6; ++m)
    ASSERT_DOUBLE_EQ(ma.eady_growth_rate(m), mb.eady_growth_rate(m));
}

TEST_P(SqgGridP, EnergyDecaysWithoutShear) {
  sqg::SqgConfig cfg;
  cfg.n = static_cast<std::size_t>(GetParam());
  cfg.U = 0.0;
  cfg.t_diab = 86400.0;
  cfg.r_ekman = 100.0;
  cfg.diff_efold = 3600.0;
  sqg::SqgModel model(cfg);
  Rng rng(37 + cfg.n);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 4);
  const double e0 = model.total_ke(theta);
  model.advance(theta, 86400.0);
  ASSERT_LT(model.total_ke(theta), e0);
}

INSTANTIATE_TEST_SUITE_P(Grids, SqgGridP, ::testing::Values(16, 32, 64));

// --- Filter invariants across ensemble sizes --------------------------------

struct FilterCase {
  int members;
  double obs_var;
};

class FilterSweepP : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FilterSweepP, EtkfNeverIncreasesErrorOnLinearGaussian) {
  const auto [members, obs_var] = GetParam();
  Rng rng(41 + static_cast<std::uint64_t>(members));
  const std::size_t d = 12;
  da::Ensemble ens(static_cast<std::size_t>(members), d);
  std::vector<double> truth(d, 0.7);
  for (std::size_t m = 0; m < ens.size(); ++m)
    for (std::size_t i = 0; i < d; ++i) ens.member(m)[i] = truth[i] + rng.gaussian();
  da::IdentityObs h(d);
  da::DiagonalR r(d, obs_var);
  std::vector<double> y = truth;  // unperturbed obs
  const double before = da::rmse_vs_truth(ens, truth);
  da::ETKF filter(da::EtkfConfig{});
  filter.analyze(ens, y, h, r);
  ASSERT_LT(da::rmse_vs_truth(ens, truth), before * 1.05);
}

TEST_P(FilterSweepP, EnsfAnalysisKeepsEnsembleFinite) {
  const auto [members, obs_var] = GetParam();
  Rng rng(43 + static_cast<std::uint64_t>(members));
  const std::size_t d = 30;
  da::Ensemble ens(static_cast<std::size_t>(members), d);
  for (std::size_t m = 0; m < ens.size(); ++m) rng.fill_gaussian(ens.member(m));
  da::IdentityObs h(d);
  da::DiagonalR r(d, obs_var);
  std::vector<double> y(d, 1.0);
  da::EnSF filter(da::EnsfConfig::stabilized());
  filter.analyze(ens, y, h, r);
  for (std::size_t m = 0; m < ens.size(); ++m)
    for (double v : ens.member(m)) ASSERT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Cases, FilterSweepP,
                         ::testing::Combine(::testing::Values(5, 20, 50),
                                            ::testing::Values(0.25, 1.0, 4.0)));

// --- LETKF localization sweep ------------------------------------------------

class LetkfCutoffP : public ::testing::TestWithParam<double> {};

TEST_P(LetkfCutoffP, AnalysisStaysFiniteAndReducesGlobalError) {
  const double cutoff = GetParam();
  Rng rng(47);
  const std::size_t nx = 8, ny = 8, d = nx * ny;
  da::Ensemble ens(15, d);
  std::vector<double> truth(d, 0.0);
  for (std::size_t m = 0; m < 15; ++m)
    for (std::size_t i = 0; i < d; ++i) ens.member(m)[i] = 1.0 + rng.gaussian();
  da::IdentityObs h(d, nx, ny, 1);
  da::DiagonalR r(d, 1.0);
  da::LetkfConfig cfg;
  cfg.nx = nx;
  cfg.ny = ny;
  cfg.n_levels = 1;
  cfg.domain_m = 8.0;
  cfg.cutoff_m = cutoff;
  cfg.rtps = 0.3;
  da::LETKF filter(cfg);
  const double before = da::rmse_vs_truth(ens, truth);
  filter.analyze(ens, truth, h, r);
  ASSERT_LT(da::rmse_vs_truth(ens, truth), before);
  for (std::size_t m = 0; m < 15; ++m)
    for (double v : ens.member(m)) ASSERT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, LetkfCutoffP, ::testing::Values(1.5, 3.0, 6.0, 100.0));

// --- Lorenz-96 dimension sweep (the Fig. 10 state-size axis) -----------------

class L96DimP : public ::testing::TestWithParam<int> {};

TEST_P(L96DimP, EnergyBoundAndReproducible) {
  models::Lorenz96Config cfg;
  cfg.dim = static_cast<std::size_t>(GetParam());
  models::Lorenz96 a(cfg), b(cfg);
  Rng rng(53);
  std::vector<double> x(cfg.dim);
  for (auto& v : x) v = cfg.forcing + 0.1 * rng.gaussian();
  auto y = x;
  for (int s = 0; s < 200; ++s) {
    a.step(x);
    b.step(y);
  }
  for (std::size_t i = 0; i < cfg.dim; ++i) {
    ASSERT_DOUBLE_EQ(x[i], y[i]);  // determinism
    ASSERT_LT(std::abs(x[i]), 50.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, L96DimP, ::testing::Values(8, 40, 256, 1024));

}  // namespace
}  // namespace turbda
