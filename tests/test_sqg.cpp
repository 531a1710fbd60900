#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/math_utils.hpp"
#include "models/scaled_forecast.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "sqg/sqg.hpp"

#include "alloc_counter.hpp"
#include "dft_reference.hpp"
#include "simd_level_guard.hpp"

namespace turbda::sqg {
namespace {

using turbda::rng::Rng;
using turbda::test::SimdLevelGuard;

SqgConfig inviscid_config(std::size_t n = 64) {
  SqgConfig cfg;
  cfg.n = n;
  cfg.t_diab = 0.0;       // no thermal relaxation
  cfg.r_ekman = 0.0;      // no Ekman damping
  cfg.diff_efold = 1e30;  // hyperdiffusion effectively off
  return cfg;
}

TEST(Sqg, ZeroStateStaysZero) {
  SqgModel model(inviscid_config(16));
  std::vector<double> theta(model.dim(), 0.0);
  model.step(theta, 10);
  for (double v : theta) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Sqg, SpectralGridRoundTrip) {
  SqgModel model(inviscid_config(32));
  Rng rng(5);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 8);
  std::vector<Cplx> spec(model.spec_dim());
  model.to_spectral(theta, spec);
  std::vector<double> back(model.dim());
  model.to_grid(spec, back);
  // to_spectral and to_grid run in float; worst measured 8.3e-7 on this
  // unit-rms field.
  double err = 0.0;
  for (std::size_t i = 0; i < theta.size(); ++i) err = std::max(err, std::abs(back[i] - theta[i]));
  EXPECT_LE(err, 1.5e-6);
}

TEST(Sqg, RandomInitHitsRequestedRms) {
  SqgModel model(inviscid_config(64));
  Rng rng(6);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 2.5, 4);
  const auto lvl0 = std::span<const double>(theta).first(model.n() * model.n());
  const auto lvl1 = std::span<const double>(theta).last(model.n() * model.n());
  EXPECT_NEAR(rms(lvl0), 2.5, 1e-9);
  EXPECT_NEAR(rms(lvl1), 2.5, 1e-9);
}

TEST(Sqg, InversionSatisfiesBoundaryRelation) {
  // For a bottom-only theta (theta1 = 0), psi0 = -theta0 / (kappa tanh(mu))
  // and psi1 = -theta0 / (kappa sinh(mu)) — check on a single mode.
  SqgConfig cfg = inviscid_config(32);
  SqgModel model(cfg);
  const std::size_t n = cfg.n, nh = n / 2 + 1, ns = n * nh;
  std::vector<Cplx> theta(model.spec_dim(), Cplx(0, 0)), psi(model.spec_dim());
  const long mx = 3, my = 2;  // half layout: row = my (>= 0 here), column = mx
  const std::size_t p = static_cast<std::size_t>(my) * nh + static_cast<std::size_t>(mx);
  theta[p] = Cplx(1.0, -0.5);  // level 0 only
  model.invert(theta, psi);

  const double k = kTwoPi * std::sqrt(static_cast<double>(mx * mx + my * my)) / cfg.L;
  const double kappa = std::sqrt(cfg.nsq) * k / cfg.f;
  const double mu = kappa * cfg.H;
  const Cplx want0 = -theta[p] / (kappa * std::tanh(mu));
  const Cplx want1 = -theta[p] / (kappa * std::sinh(mu));
  EXPECT_NEAR(psi[p].real(), want0.real(), 1e-9 * std::abs(want0));
  EXPECT_NEAR(psi[p].imag(), want0.imag(), 1e-9 * std::abs(want0));
  EXPECT_NEAR(psi[ns + p].real(), want1.real(), 1e-9 * std::abs(want1));
  EXPECT_NEAR(psi[ns + p].imag(), want1.imag(), 1e-9 * std::abs(want1));
}

TEST(Sqg, EadyGrowthRateMatchesTextbookFormula) {
  // sigma = k (U/mu) sqrt[(coth(mu/2) - mu/2)(mu/2 - tanh(mu/2))] for the
  // symmetric-shear Eady problem (e.g. Vallis 2017, §9.
  // Our eady_growth_rate builds the 2x2 stability matrix directly; the two
  // must agree for every unstable wavenumber.
  SqgConfig cfg = inviscid_config(64);
  SqgModel model(cfg);
  for (int m = 1; m <= 12; ++m) {
    const double k = kTwoPi * m / cfg.L;
    const double mu = std::sqrt(cfg.nsq) * k * cfg.H / cfg.f;
    const double half = 0.5 * mu;
    const double term1 = 1.0 / std::tanh(half) - half;
    const double term2 = half - std::tanh(half);
    const double want = (term1 > 0.0) ? k * (cfg.U / mu) * std::sqrt(term1 * term2) : 0.0;
    EXPECT_NEAR(model.eady_growth_rate(m), want, 1e-12 + 1e-9 * want) << "mode " << m;
  }
}

TEST(Sqg, ShortEadyWavesAreNeutral) {
  SqgConfig cfg = inviscid_config(64);
  SqgModel model(cfg);
  // Eady cutoff mu_c ~= 2.399; with these parameters modes m >= 8 are neutral.
  EXPECT_GT(model.eady_growth_rate(2), 0.0);
  EXPECT_DOUBLE_EQ(model.eady_growth_rate(10), 0.0);
}

TEST(Sqg, NonlinearSolverReproducesLinearEadyGrowth) {
  // Initialize a single zonal mode (ky = 0) at tiny amplitude; for such modes
  // the Jacobian vanishes identically, so the solver integrates the linear
  // Eady dynamics and its growth must match theory.
  SqgConfig cfg = inviscid_config(32);
  cfg.dt = 3600.0;
  SqgModel model(cfg);
  const int m = 2;
  const double sigma = model.eady_growth_rate(m);
  ASSERT_GT(sigma, 0.0);

  const std::size_t n = cfg.n, nn = n * n;
  std::vector<double> theta(model.dim());
  // Grid-space single mode on the bottom boundary.
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx)
      theta[jy * n + jx] = 1e-7 * std::cos(kTwoPi * m * static_cast<double>(jx) / n);

  // The IC projects onto growing and decaying normal modes equally; the
  // stability matrix is non-normal, so the apparent growth overshoots until
  // the decaying mode is gone. Spin up ~5 e-folds before measuring.
  const int spinup = 260, measure = 130;
  model.step(theta, spinup);
  const double r1 = rms(std::span<const double>(theta).first(nn));
  model.step(theta, measure);
  const double r2 = rms(std::span<const double>(theta).first(nn));
  const double got = std::log(r2 / r1) / (measure * cfg.dt);
  EXPECT_NEAR(got, sigma, 0.02 * sigma);
}

TEST(Sqg, ThermalRelaxationDampsWithoutShear) {
  SqgConfig cfg = inviscid_config(32);
  cfg.U = 0.0;               // no baroclinic energy source
  cfg.t_diab = 5.0 * 86400;  // 5-day relaxation
  SqgModel model(cfg);
  Rng rng(7);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 4);
  const double e0 = model.total_ke(theta);
  model.advance(theta, 5.0 * 86400);
  const double e1 = model.total_ke(theta);
  // After one relaxation time, KE should drop by roughly exp(-2) (psi ~ e^-t).
  EXPECT_LT(e1, 0.35 * e0);
  EXPECT_GT(e1, 0.01 * e0);
}

TEST(Sqg, HyperdiffusionKillsSmallScalesFirst) {
  SqgConfig cfg = inviscid_config(64);
  cfg.U = 0.0;
  cfg.diff_efold = 450.0;  // strong del^8 smoothing
  SqgModel model(cfg);
  Rng rng(8);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 21);  // broad-band IC up to the 2/3 cutoff
  auto spec_before = model.ke_spectrum(theta, 0);
  model.step(theta, 20);
  auto spec_after = model.ke_spectrum(theta, 0);
  // del^8 falloff: large scales barely touched, cutoff scales strongly damped.
  ASSERT_GT(spec_before[3], 0.0);
  ASSERT_GT(spec_before[21], 0.0);
  EXPECT_GT(spec_after[3] / spec_before[3], 0.8);
  EXPECT_LT(spec_after[21] / spec_before[21], 0.2);
}

TEST(Sqg, BaroclinicTurbulenceGrowsFromSmallPerturbations) {
  SqgConfig cfg = inviscid_config(64);
  cfg.diff_efold = 86400.0 / 3.0;  // keep hyperdiffusion for stability
  cfg.dt = 1800.0;
  SqgModel model(cfg);
  Rng rng(9);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1e-4, 4);
  const double e0 = model.total_ke(theta);
  model.advance(theta, 20.0 * 86400);
  const double e1 = model.total_ke(theta);
  EXPECT_GT(e1, 100.0 * e0);  // baroclinic instability extracts energy
  for (double v : theta) ASSERT_TRUE(std::isfinite(v));
}

TEST(Sqg, SpectrumBinsSumToTotalKe) {
  SqgModel model(inviscid_config(64));
  Rng rng(10);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 8);
  const auto s0 = model.ke_spectrum(theta, 0);
  const auto s1 = model.ke_spectrum(theta, 1);
  double sum = 0.0;
  for (double v : s0) sum += v;
  for (double v : s1) sum += v;
  EXPECT_NEAR(sum, model.total_ke(theta), 1e-9 * sum);
}

TEST(Sqg, CflScalesWithTimeStep) {
  SqgConfig cfg = inviscid_config(32);
  SqgModel model(cfg);
  Rng rng(11);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 4);
  const double c1 = model.cfl(theta);
  SqgConfig cfg2 = cfg;
  cfg2.dt = 2.0 * cfg.dt;
  SqgModel model2(cfg2);
  const double c2 = model2.cfl(theta);
  EXPECT_NEAR(c2, 2.0 * c1, 1e-9);
  EXPECT_GT(c1, 0.0);
}

TEST(Sqg, StepPreservesRealness) {
  SqgConfig cfg = inviscid_config(32);
  cfg.diff_efold = 86400.0;
  SqgModel model(cfg);
  Rng rng(12);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 4);
  model.step(theta, 50);
  for (double v : theta) ASSERT_TRUE(std::isfinite(v));
}

TEST(Sqg, AdvanceRoundsStepCountUp) {
  SqgConfig cfg = inviscid_config(16);
  SqgModel model(cfg);
  Rng rng(13);
  std::vector<double> a(model.dim());
  model.random_init(a, rng, 1.0, 3);
  auto b = a;
  model.advance(a, 2.5 * cfg.dt);  // should take 3 steps
  model.step(b, 3);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Sqg, ExplicitWorkspaceMatchesPerThreadDefault) {
  // An explicit SqgWorkspace (one per worker in the parallel ensemble loop)
  // must reproduce the convenience overloads bitwise, and reusing it across
  // calls must not leak state between integrations.
  SqgConfig cfg = inviscid_config(32);
  cfg.diff_efold = 86400.0;
  SqgModel model(cfg);
  Rng rng(21);
  std::vector<double> a(model.dim());
  model.random_init(a, rng, 1.0, 4);
  auto b = a;

  SqgWorkspace ws(cfg.n);
  model.step(a, 7);
  model.step(b, 7, ws);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;

  EXPECT_DOUBLE_EQ(model.total_ke(a), model.total_ke(b, ws));
  EXPECT_DOUBLE_EQ(model.cfl(a), model.cfl(b, ws));
  const auto s1 = model.ke_spectrum(a, 0);
  const auto s2 = model.ke_spectrum(b, 0, ws);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t k = 0; k < s1.size(); ++k) EXPECT_DOUBLE_EQ(s1[k], s2[k]);

  // A workspace sized for the wrong grid is resized transparently.
  SqgWorkspace small(8);
  auto c = b;
  model.step(c, 1, small);
  model.step(b, 1, ws);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(b[i], c[i]);
}

// --- half-spectrum vs full-spectrum path equivalence -------------------------

/// Dense complex n x n 2-D FFT over the double test oracle: every row, then
/// every column, each through a gathered copy. It shares no code with
/// Fft2D's half-spectrum pipeline.
struct DenseFft2D {
  explicit DenseFft2D(std::size_t n) : n(n), line(n), buf(n * n) {}

  void transform(std::span<Cplx> x, bool inverse) {
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(i * n), n, line.begin());
      line = test::dft(line, inverse);
      std::copy(line.begin(), line.end(), x.begin() + static_cast<std::ptrdiff_t>(i * n));
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) line[i] = x[i * n + j];
      line = test::dft(line, inverse);
      for (std::size_t i = 0; i < n; ++i) x[i * n + j] = line[i];
    }
  }

  void inverse(std::span<Cplx> x) { transform(x, /*inverse=*/true); }

  /// Real grid -> full n x n spectrum of x + 0i.
  void grid_to_spec(std::span<const double> grid, std::span<Cplx> spec) {
    for (std::size_t p = 0; p < n * n; ++p) spec[p] = Cplx(grid[p], 0.0);
    transform(spec, /*inverse=*/false);
  }

  /// Full spectrum -> real part of its complex inverse.
  void spec_to_grid(std::span<const Cplx> spec, std::span<double> grid) {
    std::copy(spec.begin(), spec.end(), buf.begin());
    inverse(buf);
    for (std::size_t p = 0; p < n * n; ++p) grid[p] = buf[p].real();
  }

  std::size_t n;
  std::vector<Cplx> line, buf;
};

// Reference implementation on the full Hermitian-redundant n x n spectrum,
// replicating the pre-half-spectrum solver path: dense complex transforms,
// five separate per-point passes and explicit dealias/Ekman branches, all in
// double. The production half-spectrum path computes the same dynamics
// through different arithmetic, its lane transforms in single precision, and
// must agree to float precision.
struct FullSpectrumReference {
  explicit FullSpectrumReference(const SqgConfig& c)
      : cfg(c), n(c.n), nn(n * n), fft(n), kx(nn), ky(nn), ksq(nn), inv_kappa(nn),
        inv_sinh(nn), inv_tanh(nn), hyperdiff(nn), dealias(nn), psi(2 * nn), work(nn), jac(nn),
        gu(nn), gv(nn), gtx(nn), gty(nn), gj(nn), k1(2 * nn), k2(2 * nn), k3(2 * nn), k4(2 * nn),
        stage(2 * nn), spec(2 * nn) {
    const double bigN = std::sqrt(cfg.nsq);
    const auto ni = static_cast<long>(n);
    const long kcut = ni / 3;
    double kmax_retained = 0.0;
    for (long jy = 0; jy < ni; ++jy) {
      const long my = (jy <= ni / 2) ? jy : jy - ni;
      for (long jx = 0; jx < ni; ++jx) {
        const long mx = (jx <= ni / 2) ? jx : jx - ni;
        const std::size_t p = static_cast<std::size_t>(jy) * n + static_cast<std::size_t>(jx);
        kx[p] = kTwoPi * static_cast<double>(mx) / cfg.L;
        ky[p] = kTwoPi * static_cast<double>(my) / cfg.L;
        ksq[p] = kx[p] * kx[p] + ky[p] * ky[p];
        dealias[p] = (std::labs(mx) <= kcut && std::labs(my) <= kcut) ? 1 : 0;
        if (dealias[p]) kmax_retained = std::max(kmax_retained, std::sqrt(ksq[p]));
        if (ksq[p] > 0.0) {
          const double kappa = bigN * std::sqrt(ksq[p]) / cfg.f;
          const double mu = kappa * cfg.H;
          inv_kappa[p] = 1.0 / kappa;
          inv_sinh[p] = (mu > 300.0) ? 0.0 : 1.0 / std::sinh(mu);
          inv_tanh[p] = 1.0 / std::tanh(mu);
        } else {
          inv_kappa[p] = inv_sinh[p] = inv_tanh[p] = 0.0;
        }
      }
    }
    for (std::size_t p = 0; p < nn; ++p) {
      const double kn = (kmax_retained > 0.0) ? std::sqrt(ksq[p]) / kmax_retained : 0.0;
      hyperdiff[p] = std::exp(-cfg.dt * std::pow(kn, cfg.diff_order) / cfg.diff_efold);
    }
    lambda = cfg.U / cfg.H;
    ubar[0] = cfg.symmetric_shear ? -0.5 * cfg.U : 0.0;
    ubar[1] = cfg.symmetric_shear ? +0.5 * cfg.U : cfg.U;
  }

  void to_spectral(std::span<const double> grid, std::span<Cplx> out) {
    for (int l = 0; l < 2; ++l)
      fft.grid_to_spec(grid.subspan(static_cast<std::size_t>(l) * nn, nn),
                       out.subspan(static_cast<std::size_t>(l) * nn, nn));
    for (std::size_t i = 0; i < 2 * nn; ++i)
      if (!dealias[i % nn]) out[i] = Cplx(0.0, 0.0);
  }

  void tendency(std::span<const Cplx> th_spec, std::span<Cplx> out) {
    const Cplx* t0 = th_spec.data();
    const Cplx* t1 = th_spec.data() + nn;
    for (std::size_t p = 0; p < nn; ++p) {
      psi[p] = inv_kappa[p] * (t1[p] * inv_sinh[p] - t0[p] * inv_tanh[p]);
      psi[nn + p] = inv_kappa[p] * (t1[p] * inv_tanh[p] - t0[p] * inv_sinh[p]);
    }
    const double inv_tdiab = (cfg.t_diab > 0.0) ? 1.0 / cfg.t_diab : 0.0;
    for (std::size_t l = 0; l < 2; ++l) {
      const Cplx* th = th_spec.data() + l * nn;
      const Cplx* ps = psi.data() + l * nn;
      Cplx* dth = out.data() + l * nn;
      const Cplx iu(0.0, 1.0);
      for (std::size_t p = 0; p < nn; ++p) work[p] = -ps[p] * Cplx(kx[p], ky[p]);
      fft.inverse(work);
      for (std::size_t p = 0; p < nn; ++p) {
        gu[p] = work[p].real();
        gv[p] = work[p].imag();
      }
      for (std::size_t p = 0; p < nn; ++p) work[p] = th[p] * Cplx(-ky[p], kx[p]);
      fft.inverse(work);
      for (std::size_t p = 0; p < nn; ++p) {
        gtx[p] = work[p].real();
        gty[p] = work[p].imag();
      }
      for (std::size_t p = 0; p < nn; ++p) gj[p] = gu[p] * gtx[p] + gv[p] * gty[p];
      fft.grid_to_spec(gj, jac);
      const double ub = ubar[l];
      for (std::size_t p = 0; p < nn; ++p) {
        Cplx t = dealias[p] ? -jac[p] : Cplx(0.0, 0.0);
        t -= iu * kx[p] * ub * th[p];
        t += lambda * iu * kx[p] * ps[p];
        t -= inv_tdiab * th[p];
        if (l == 0 && cfg.r_ekman != 0.0) t += cfg.r_ekman * ksq[p] * ps[p];
        dth[p] = t;
      }
    }
  }

  void step(std::span<double> grid, int nsteps) {
    to_spectral(grid, spec);
    const double dt = cfg.dt;
    for (int s = 0; s < nsteps; ++s) {
      tendency(spec, k1);
      for (std::size_t i = 0; i < 2 * nn; ++i) stage[i] = spec[i] + 0.5 * dt * k1[i];
      tendency(stage, k2);
      for (std::size_t i = 0; i < 2 * nn; ++i) stage[i] = spec[i] + 0.5 * dt * k2[i];
      tendency(stage, k3);
      for (std::size_t i = 0; i < 2 * nn; ++i) stage[i] = spec[i] + dt * k3[i];
      tendency(stage, k4);
      for (std::size_t i = 0; i < 2 * nn; ++i)
        spec[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
      for (std::size_t i = 0; i < 2 * nn; ++i) spec[i] *= hyperdiff[i % nn];
    }
    for (int l = 0; l < 2; ++l)
      fft.spec_to_grid(std::span<const Cplx>(spec).subspan(static_cast<std::size_t>(l) * nn, nn),
                       grid.subspan(static_cast<std::size_t>(l) * nn, nn));
  }

  SqgConfig cfg;
  std::size_t n, nn;
  DenseFft2D fft;
  std::vector<double> kx, ky, ksq, inv_kappa, inv_sinh, inv_tanh, hyperdiff;
  std::vector<std::uint8_t> dealias;
  std::vector<Cplx> psi, work, jac;
  std::vector<double> gu, gv, gtx, gty, gj;
  std::vector<Cplx> k1, k2, k3, k4, stage, spec;
  double ubar[2] = {0.0, 0.0};
  double lambda = 0.0;
};

TEST(Sqg, HalfSpectrumTendencyMatchesFullSpectrumReference) {
  SqgConfig cfg;  // default physics: shear + relaxation + hyperdiffusion
  cfg.n = 32;
  cfg.r_ekman = 10.0;  // exercise the level-0 Ekman term too
  SqgModel model(cfg);
  FullSpectrumReference ref(cfg);
  Rng rng(77);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 8);

  const std::size_t n = cfg.n, nn = n * n, nh = n / 2 + 1, ns = n * nh;
  std::vector<Cplx> hs(model.spec_dim()), hout(model.spec_dim());
  model.to_spectral(theta, hs);
  SqgWorkspace ws(n);
  model.tendency(hs, hout, ws);

  std::vector<Cplx> fs(2 * nn), fout(2 * nn);
  ref.to_spectral(theta, fs);
  ref.tendency(fs, fout);

  double scale = 0.0, err = 0.0;
  for (const auto& v : fout) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  for (std::size_t l = 0; l < 2; ++l)
    for (std::size_t jy = 0; jy < n; ++jy)
      for (std::size_t mx = 0; mx <= n / 2; ++mx) {
        const Cplx want = fout[l * nn + jy * n + mx];
        const Cplx got = hout[l * ns + jy * nh + mx];
        err = std::max(err, std::abs(got - want));
      }
  // The state's forward and the Jacobian transform run in float; worst
  // measured 1.2e-7.
  EXPECT_LE(err / scale, 5e-7);
}

TEST(Sqg, HalfSpectrumStepMatchesFullSpectrumReference) {
  SqgConfig cfg;
  cfg.n = 32;
  SqgModel model(cfg);
  FullSpectrumReference ref(cfg);
  Rng rng(78);
  std::vector<double> a(model.dim());
  model.random_init(a, rng, 1.0, 6);
  auto b = a;

  SqgWorkspace ws(cfg.n);
  model.step(a, 5, ws);
  ref.step(b, 5);

  double scale = 0.0, err = 0.0;
  for (double v : b) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) err = std::max(err, std::abs(a[i] - b[i]));
  // Five steps with float transforms; worst measured 2.1e-7.
  EXPECT_LE(err / scale, 5e-7);
}

// The single-precision forecast against the double reference over one
// 3 h window (12 steps of 900 s) at n = 64, from a state spun up for 10
// days into developed turbulence with the OSSE physics (2 K rms start,
// Ekman 200 m/s, 3 h hyperdiffusion): the largest grid difference, in
// Kelvin, stays below 5e-4 K (worst measured 1.8e-4 K, on a
// field whose largest |theta| is about 190 K).
TEST(Sqg, ThreeHourWindowMatchesDoubleReferenceInKelvin) {
  SqgConfig cfg;
  cfg.n = 64;
  cfg.r_ekman = 200.0;
  cfg.diff_efold = 3.0 * 3600.0;
  SqgModel model(cfg);
  const double kelvin = models::sqg_kelvin_scale(300.0, cfg.f);
  Rng rng(79);
  std::vector<double> spun(model.dim());
  model.random_init(spun, rng, 2.0 / kelvin, 4);
  model.advance(spun, 10.0 * 86400);
  auto a = spun, b = spun;
  model.step(a, 12);
  FullSpectrumReference ref(cfg);
  ref.step(b, 12);
  double err = 0.0, amp = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]) * kelvin);
    amp = std::max(amp, std::abs(b[i]) * kelvin);
  }
  EXPECT_LE(err, 5e-4) << "largest |theta| " << amp << " K";
}

// --- the dealiased square ----------------------------------------------------

constexpr simd::SimdLevel kLevels[] = {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2,
                                       simd::SimdLevel::Avx2Fma};

TEST(Sqg, TendencyWritesPositiveZeroOutsideTheSquareAtEveryLevel) {
  SqgConfig cfg;
  cfg.n = 32;
  SqgModel model(cfg);
  Rng rng(93);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 8);
  std::vector<Cplx> spec(model.spec_dim());
  model.to_spectral(theta, spec);
  const std::size_t n = cfg.n, nh = n / 2 + 1, ns = n * nh;
  const auto kcut = static_cast<long>(model.kcut());
  SimdLevelGuard guard;
  for (const simd::SimdLevel level : kLevels) {
    if (!simd::force_simd_level(level)) continue;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<Cplx> out(model.spec_dim(), Cplx(nan, nan));
    SqgWorkspace ws(n);
    model.tendency(spec, out, ws);
    std::size_t live = 0;
    for (std::size_t l = 0; l < 2; ++l)
      for (std::size_t i = 0; i < n; ++i) {
        const long my =
            (i <= n / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n);
        for (std::size_t j = 0; j < nh; ++j) {
          const Cplx v = out[l * ns + i * nh + j];
          if (std::labs(my) <= kcut && static_cast<long>(j) <= kcut) {
            ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
            live += v != Cplx(0.0, 0.0);
            continue;
          }
          ASSERT_TRUE(v.real() == 0.0 && !std::signbit(v.real()) && v.imag() == 0.0 &&
                      !std::signbit(v.imag()))
              << simd::simd_level_name(level) << " level " << l << " bin " << i << "," << j
              << " = " << v;
        }
      }
    EXPECT_GT(live, 0u) << simd::simd_level_name(level);
  }
}

TEST(Sqg, StepNeverReadsStaleWorkspaceBinsAtEveryLevel) {
  // step() writes and reads only the dealiased square of its scratch
  // spectra. A workspace whose every buffer holds NaN must therefore give
  // the same bytes as a fresh one: any sweep that read a bin nothing wrote
  // during the call would carry a NaN into the state.
  SimdLevelGuard guard;
  for (const std::size_t n : {std::size_t{32}, std::size_t{64}}) {
    SqgConfig cfg;
    cfg.n = n;
    cfg.r_ekman = 10.0;
    SqgModel model(cfg);
    Rng rng(94 + n);
    std::vector<double> theta(model.dim());
    model.random_init(theta, rng, 1.0, 8);
    for (const simd::SimdLevel level : kLevels) {
      if (!simd::force_simd_level(level)) continue;
      SqgWorkspace fresh(n), stale(n);
      stale.resize_diagnostics(n);
      const double nan = std::numeric_limits<double>::quiet_NaN();
      for (auto* v : {&stale.psi, &stale.jac, &stale.k1, &stale.k2, &stale.k3, &stale.k4,
                      &stale.stage, &stale.spec, &stale.spec2, &stale.psi2, &stale.wutil})
        std::fill(v->begin(), v->end(), Cplx(nan, nan));
      std::fill(stale.lanes.begin(), stale.lanes.end(), nan);
      std::fill(stale.gutil.begin(), stale.gutil.end(), nan);
      std::vector<double> a = theta, b = theta;
      model.step(a, 3, fresh);
      model.step(b, 3, stale);
      for (const double v : b) ASSERT_TRUE(std::isfinite(v)) << simd::simd_level_name(level);
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
          << simd::simd_level_name(level) << " n=" << n;
    }
  }
}

TEST(Sqg, StepPerformsNoPerStepHeapAllocations) {
  SqgConfig cfg = inviscid_config(32);
  SqgModel model(cfg);
  Rng rng(91);
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 1.0, 4);
  SqgWorkspace ws(cfg.n);
  model.step(theta, 2, ws);  // warm-up: grows the per-thread FFT scratch once
  const std::uint64_t before = g_new_calls.load();
  model.step(theta, 5, ws);
  const std::uint64_t allocs = g_new_calls.load() - before;
  EXPECT_EQ(allocs, 0u) << "step() performed " << allocs << " heap allocations";
}

TEST(Sqg, ForecastBlockPerformsNoPerWindowHeapAllocations) {
  // The cycling runners advance each worker's member block through
  // ForecastModel::forecast_batch. After one warm-up window has grown the
  // per-thread workspace and FFT scratch, a block forecast allocates nothing.
  SqgConfig cfg = inviscid_config(32);
  auto model = std::make_shared<const SqgModel>(cfg);
  SqgForecast fc(model, 3 * cfg.dt);
  Rng rng(92);
  const std::size_t M = 5, d = model->dim();
  std::vector<double> theta(d);
  model->random_init(theta, rng, 1.0, 4);
  std::vector<double> block(M * d);
  for (std::size_t m = 0; m < M; ++m)
    for (std::size_t i = 0; i < d; ++i)
      block[m * d + i] = theta[i] * (1.0 + 1e-6 * static_cast<double>(m));
  const std::vector<double> block0 = block;

  fc.forecast_batch(block, M);  // warm-up
  const std::uint64_t before = g_new_calls.load();
  fc.forecast_batch(block, M);
  const std::uint64_t allocs = g_new_calls.load() - before;
  EXPECT_EQ(allocs, 0u) << "forecast_batch() performed " << allocs << " heap allocations";

  // The Kelvin-scaled wrapper the DA stack drives: a block forecast is
  // bitwise the per-member forecast() loop.
  models::ScaledForecast scaled(fc, models::sqg_kelvin_scale());
  std::vector<double> batched = block0, looped = block0;
  scaled.forecast_batch(batched, M);
  for (std::size_t m = 0; m < M; ++m)
    scaled.forecast(std::span<double>(looped.data() + m * d, d));
  EXPECT_EQ(0, std::memcmp(batched.data(), looped.data(), batched.size() * sizeof(double)));
}

TEST(Sqg, RejectsBadConfig) {
  SqgConfig cfg;
  cfg.n = 48;  // not a power of two
  EXPECT_THROW(SqgModel model(cfg), Error);
  SqgConfig cfg2;
  cfg2.diff_order = 7;  // odd order
  EXPECT_THROW(SqgModel model2(cfg2), Error);
}

}  // namespace
}  // namespace turbda::sqg
