#include "sqg/sqg.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math_utils.hpp"
#include "simd/kernels.hpp"
#include "telemetry/trace.hpp"

namespace turbda::sqg {

namespace {

// Interleaved (re, im) double view of a complex buffer — the layout the
// runtime-dispatched pointwise kernels sweep over. Guaranteed well-defined
// for std::complex ([complex.numbers.general]).
inline double* dview(Cplx* p) { return reinterpret_cast<double*>(p); }
inline const double* dview(const Cplx* p) { return reinterpret_cast<const double*>(p); }

}  // namespace

void SqgWorkspace::resize(std::size_t grid_n) {
  n = grid_n;
  const std::size_t ns = grid_n * (grid_n / 2 + 1);
  psi.resize(2 * ns);
  lanes.resize(2 * simd::kLaneBatch * ns);
  jac.resize(ns);
  k1.resize(2 * ns);
  k2.resize(2 * ns);
  k3.resize(2 * ns);
  k4.resize(2 * ns);
  stage.resize(2 * ns);
  spec.resize(2 * ns);
  // Diagnostics buffers (spec2/psi2/wutil/gutil) stay empty until a
  // diagnostics entry point asks for them.
}

void SqgWorkspace::resize_diagnostics(std::size_t grid_n) {
  if (n != grid_n) resize(grid_n);
  const std::size_t nn = grid_n * grid_n;
  const std::size_t ns = grid_n * (grid_n / 2 + 1);
  spec2.resize(2 * ns);
  psi2.resize(2 * ns);
  wutil.resize(ns);
  gutil.resize(nn);
}

SqgWorkspace& tls_workspace(std::size_t n) {
  thread_local std::vector<std::unique_ptr<SqgWorkspace>> cache;
  for (auto& w : cache)
    if (w->n == n) return *w;
  cache.push_back(std::make_unique<SqgWorkspace>(n));
  return *cache.back();
}

SqgModel::SqgModel(SqgConfig cfg)
    : cfg_(cfg),
      nn_(cfg.n * cfg.n),
      nh_(cfg.n / 2 + 1),
      ns_(cfg.n * (cfg.n / 2 + 1)),
      kcut_(cfg.n / 3),
      fft_(cfg.n, cfg.n) {
  TURBDA_REQUIRE(is_pow2(cfg_.n) && cfg_.n >= 2,
                 "SQG grid size must be a power of two (>= 2)");
  TURBDA_REQUIRE(cfg_.diff_order > 0 && cfg_.diff_order % 2 == 0, "diff_order must be even");
  TURBDA_REQUIRE(cfg_.dt > 0 && cfg_.L > 0 && cfg_.H > 0 && cfg_.f > 0 && cfg_.nsq > 0,
                 "bad SQG configuration");

  kx_.resize(ns_);
  ky_.resize(ns_);
  ksq_.resize(ns_);
  inv_kappa_.resize(ns_);
  inv_sinh_.resize(ns_);
  inv_tanh_.resize(ns_);
  hyperdiff_.resize(ns_);

  lambda_ = cfg_.U / cfg_.H;
  ubar_[0] = -0.5 * cfg_.U;  // symmetric shear
  ubar_[1] = +0.5 * cfg_.U;
  op_theta_[0].resize(ns_);
  op_theta_[1].resize(ns_);
  op_psi_[0].resize(ns_);
  op_psi_[1].resize(ns_);

  const double bigN = std::sqrt(cfg_.nsq);
  const double inv_tdiab = (cfg_.t_diab > 0.0) ? 1.0 / cfg_.t_diab : 0.0;
  const auto ni = static_cast<long>(cfg_.n);
  const auto kcut = static_cast<long>(kcut_);  // 2/3 dealiasing rule
  double kmax_retained = 0.0;

  for (long jy = 0; jy < ni; ++jy) {
    const long my = (jy <= ni / 2) ? jy : jy - ni;
    for (long mx = 0; mx <= ni / 2; ++mx) {
      const std::size_t p =
          static_cast<std::size_t>(jy) * nh_ + static_cast<std::size_t>(mx);
      kx_[p] = kTwoPi * static_cast<double>(mx) / cfg_.L;
      ky_[p] = kTwoPi * static_cast<double>(my) / cfg_.L;
      ksq_[p] = kx_[p] * kx_[p] + ky_[p] * ky_[p];
      const bool retained = mx <= kcut && std::labs(my) <= kcut;
      if (retained) kmax_retained = std::max(kmax_retained, std::sqrt(ksq_[p]));

      if (ksq_[p] > 0.0) {
        const double bigK = std::sqrt(ksq_[p]);
        const double kappa = bigN * bigK / cfg_.f;
        const double mu = kappa * cfg_.H;
        inv_kappa_[p] = 1.0 / kappa;
        // 1/sinh underflows gracefully for large mu; tanh -> 1.
        inv_sinh_[p] = (mu > 300.0) ? 0.0 : 1.0 / std::sinh(mu);
        inv_tanh_[p] = 1.0 / std::tanh(mu);
      } else {
        inv_kappa_[p] = 0.0;
        inv_sinh_[p] = 0.0;
        inv_tanh_[p] = 0.0;
      }

      // Fused combine tables: every linear term of the tendency (mean-flow
      // advection, meridional basic-state gradient, thermal relaxation,
      // Ekman pumping) collapses into one complex coefficient per bin and
      // level — the combine loop carries no branches.
      for (int l = 0; l < 2; ++l) {
        op_theta_[l][p] = Cplx(-inv_tdiab, -kx_[p] * ubar_[l]);
        const double ekman = (l == 0) ? cfg_.r_ekman * ksq_[p] : 0.0;
        op_psi_[l][p] = Cplx(ekman, lambda_ * kx_[p]);
      }
    }
  }

  // Implicit hyperdiffusion: decay(K) = exp(-dt/efold * (K/Kmax)^order),
  // where Kmax is the largest retained (dealiased) wavenumber.
  for (std::size_t p = 0; p < ns_; ++p) {
    const double kn = (kmax_retained > 0.0) ? std::sqrt(ksq_[p]) / kmax_retained : 0.0;
    const double rate = std::pow(kn, cfg_.diff_order) / cfg_.diff_efold;
    hyperdiff_[p] = std::exp(-cfg_.dt * rate);
  }

  // Pair-duplicate the real per-bin tables onto the interleaved re/im layout
  // the pointwise kernels sweep over (one coefficient per double lane).
  const auto dup2 = [this](const std::vector<double>& src, std::vector<double>& dst) {
    dst.resize(2 * ns_);
    for (std::size_t p = 0; p < ns_; ++p) dst[2 * p] = dst[2 * p + 1] = src[p];
  };
  dup2(kx_, kx2_);
  dup2(ky_, ky2_);
  dup2(inv_kappa_, inv_kappa2_);
  dup2(inv_sinh_, inv_sinh2_);
  dup2(inv_tanh_, inv_tanh2_);
  dup2(hyperdiff_, hyperdiff2_);
}

void SqgModel::to_spectral(std::span<const double> theta_grid, std::span<Cplx> theta_spec) const {
  TURBDA_REQUIRE(theta_grid.size() == dim() && theta_spec.size() == spec_dim(),
                 "to_spectral: wrong buffer sizes");
  // The pruned forward keeps the state on the dealiased set (truncated
  // dynamics) as a side effect of skipping the truncated column transforms.
  for (std::size_t l = 0; l < 2; ++l) {
    fft_.forward_half_pruned(theta_grid.subspan(l * nn_, nn_), theta_spec.subspan(l * ns_, ns_),
                             kcut_);
  }
}

void SqgModel::to_grid(std::span<const Cplx> theta_spec, std::span<double> theta_grid) const {
  TURBDA_REQUIRE(theta_grid.size() == dim() && theta_spec.size() == spec_dim(),
                 "to_grid: wrong buffer sizes");
  for (std::size_t l = 0; l < 2; ++l) {
    fft_.inverse_half_pruned(theta_spec.subspan(l * ns_, ns_), theta_grid.subspan(l * nn_, nn_),
                             kcut_);
  }
}

void SqgModel::invert(std::span<const Cplx> theta_spec, std::span<Cplx> psi_spec) const {
  TURBDA_REQUIRE(theta_spec.size() == spec_dim() && psi_spec.size() == spec_dim(),
                 "invert: wrong buffer sizes");
  const Cplx* t0 = theta_spec.data();
  const Cplx* t1 = theta_spec.data() + ns_;
  Cplx* p0 = psi_spec.data();
  Cplx* p1 = psi_spec.data() + ns_;
  for (std::size_t p = 0; p < ns_; ++p) {
    p0[p] = inv_kappa_[p] * (t1[p] * inv_sinh_[p] - t0[p] * inv_tanh_[p]);
    p1[p] = inv_kappa_[p] * (t1[p] * inv_tanh_[p] - t0[p] * inv_sinh_[p]);
  }
}

template <class F>
void SqgModel::for_each_square_row(F&& f) const {
  const std::size_t nd = 2 * (kcut_ + 1);
  for (std::size_t i = 0; i <= kcut_; ++i) f(2 * i * nh_, nd);
  for (std::size_t i = cfg_.n - kcut_; i < cfg_.n; ++i) f(2 * i * nh_, nd);
}

void SqgModel::tendency(std::span<const Cplx> theta_spec, std::span<Cplx> out,
                        SqgWorkspace& ws) const {
  TURBDA_REQUIRE(theta_spec.size() == spec_dim() && out.size() == spec_dim(),
                 "tendency: wrong buffer sizes");
  if (ws.n != cfg_.n) ws.resize(cfg_.n);
  square_tendency(dview(theta_spec.data()), dview(out.data()), ws);
  // step() never reads the bins outside the square; this entry zeroes them.
  for (std::size_t l = 0; l < 2; ++l)
    for (std::size_t i = 0; i < cfg_.n; ++i) {
      Cplx* row = out.data() + l * ns_ + i * nh_;
      const bool retained = i <= kcut_ || i >= cfg_.n - kcut_;
      std::fill(row + (retained ? kcut_ + 1 : 0), row + nh_, Cplx(0.0, 0.0));
    }
}

void SqgModel::square_tendency(const double* theta, double* out, SqgWorkspace& ws) const {
  const auto& pk = simd::active_kernels();
  const std::size_t lvl = 2 * ns_;  // doubles per level
  const double* t0 = theta;
  const double* t1 = theta + lvl;
  float* lanes = ws.lanes.data();
  const double* jc = dview(ws.jac.data());

  for (std::size_t l = 0; l < 2; ++l) {
    const double* th = theta + l * lvl;
    double* ps = dview(ws.psi.data()) + l * lvl;
    double* dth = out + l * lvl;

    // Pass 1 (fused, branch-free): boundary inversion plus the four
    // derivative half-spectra in a single traversal (u = -psi_y, v = psi_x),
    // as one runtime-dispatched Vec sweep per retained row that stores the
    // derivatives lane-interleaved. The column transforms also read the
    // truncated rows of the retained columns, which get +0.
    const double* cA2 = (l == 0) ? inv_sinh2_.data() : inv_tanh2_.data();
    const double* cB2 = (l == 0) ? inv_tanh2_.data() : inv_sinh2_.data();
    for_each_square_row([&](std::size_t off, std::size_t nd) {
      pk.sqg_pass1(ps + off, lanes + 4 * off, t0 + off, t1 + off, th + off,
                   inv_kappa2_.data() + off, cA2 + off, cB2 + off, kx2_.data() + off,
                   ky2_.data() + off, nd);
    });
    for (std::size_t i = kcut_ + 1; i < cfg_.n - kcut_; ++i)
      std::fill_n(lanes + 2 * simd::kLaneBatch * i * nh_, 2 * simd::kLaneBatch * (kcut_ + 1),
                  0.0f);

    // Nonlinear advection J(psi, theta) = u theta_x + v theta_y: the four
    // pruned c2r transforms run in lockstep, one per Vec lane, and each grid
    // row's product goes straight into the pruned r2c, which both transforms
    // and 2/3-truncates it.
    fft_.product_half_pruned_lanes(ws.lanes, pk.sqg_jacobian, ws.jac, kcut_);

    // Pass 2 (fused, branch-free combine): all linear physics lives in the
    // precomputed per-level tables.
    const double* opt = dview(op_theta_[l].data());
    const double* opp = dview(op_psi_[l].data());
    for_each_square_row([&](std::size_t off, std::size_t nd) {
      pk.sqg_combine(dth + off, th + off, ps + off, jc + off, opt + off, opp + off, nd);
    });
  }
}

void SqgModel::step(std::span<double> theta_grid, int nsteps, SqgWorkspace& ws) const {
  TURBDA_SPAN("sqg.step");
  if (ws.n != cfg_.n) ws.resize(cfg_.n);
  to_spectral(theta_grid, ws.spec);
  const auto& pk = simd::active_kernels();
  const double dt = cfg_.dt;
  const std::size_t lvl = 2 * ns_;  // doubles per level
  double* spec = dview(ws.spec.data());
  double* stage = dview(ws.stage.data());
  double* k1 = dview(ws.k1.data());
  double* k2 = dview(ws.k2.data());
  double* k3 = dview(ws.k3.data());
  double* k4 = dview(ws.k4.data());
  // The sweeps run on the square of both levels: f(at, off, nd) with `at`
  // the row's offset in the two-level state and `off` in its level. Bins
  // outside the square stay +0 in `spec` (to_spectral wrote them) and are
  // never read in the other buffers.
  const auto on_square = [&](auto&& f) {
    for (std::size_t l = 0; l < 2 * lvl; l += lvl)
      for_each_square_row([&](std::size_t off, std::size_t nd) { f(l + off, off, nd); });
  };
  const auto stage_from = [&](const double* k, double alpha) {
    on_square([&](std::size_t at, std::size_t, std::size_t nd) {
      pk.add_scaled(stage + at, spec + at, k + at, nd, alpha);
    });
  };
  for (int s = 0; s < nsteps; ++s) {
    square_tendency(spec, k1, ws);
    stage_from(k1, 0.5 * dt);
    square_tendency(stage, k2, ws);
    stage_from(k2, 0.5 * dt);
    square_tendency(stage, k3, ws);
    stage_from(k3, dt);
    square_tendency(stage, k4, ws);
    // RK4 update, then the implicit hyperdiffusion, row by row.
    on_square([&](std::size_t at, std::size_t off, std::size_t nd) {
      pk.rk4_update(spec + at, k1 + at, k2 + at, k3 + at, k4 + at, nd, dt / 6.0);
      pk.mul_inplace(spec + at, hyperdiff2_.data() + off, nd);
    });
  }
  to_grid(ws.spec, theta_grid);
}

void SqgModel::advance(std::span<double> theta_grid, double seconds, SqgWorkspace& ws) const {
  const int nsteps = static_cast<int>(std::ceil(seconds / cfg_.dt - 1e-9));
  if (nsteps > 0) step(theta_grid, nsteps, ws);
}

void SqgModel::random_init(std::span<double> theta_grid, rng::Rng& rng, double rms_amplitude,
                           int k_peak, SqgWorkspace& ws) const {
  TURBDA_REQUIRE(theta_grid.size() == dim(), "random_init: wrong state size");
  if (ws.n != cfg_.n || ws.gutil.size() != nn_) ws.resize_diagnostics(cfg_.n);
  // White noise -> spectral ring filter |m| <= k_peak -> rescale. Doing the
  // filtering via a real grid round-trip keeps the field exactly real.
  std::span<double> noise(ws.gutil.data(), nn_);
  std::span<Cplx> spec(ws.wutil.data(), ns_);
  const auto ni = static_cast<long>(cfg_.n);
  for (std::size_t l = 0; l < 2; ++l) {
    rng.fill_gaussian(noise);
    fft_.forward_half(noise, spec);
    for (long jy = 0; jy < ni; ++jy) {
      const long my = (jy <= ni / 2) ? jy : jy - ni;
      for (long mx = 0; mx <= ni / 2; ++mx) {
        const std::size_t p =
            static_cast<std::size_t>(jy) * nh_ + static_cast<std::size_t>(mx);
        const double mm = std::sqrt(static_cast<double>(mx * mx + my * my));
        if (mm > k_peak || mm == 0.0) spec[p] = Cplx(0.0, 0.0);
      }
    }
    auto level = theta_grid.subspan(l * nn_, nn_);
    fft_.inverse_half(spec, level);
    const double r = rms(level);
    if (r > 0.0) {
      const double scale = rms_amplitude / r;
      for (double& x : level) x *= scale;
    }
  }
}

std::vector<double> SqgModel::ke_spectrum(std::span<const double> theta_grid, int level,
                                          SqgWorkspace& ws) const {
  TURBDA_REQUIRE(level == 0 || level == 1, "level must be 0 or 1");
  if (ws.n != cfg_.n || ws.gutil.size() != nn_) ws.resize_diagnostics(cfg_.n);
  to_spectral(theta_grid, ws.spec2);
  invert(ws.spec2, ws.psi2);
  const Cplx* ps = ws.psi2.data() + static_cast<std::size_t>(level) * ns_;

  const auto ni = static_cast<long>(cfg_.n);
  const long h = ni / 2;
  std::vector<double> bins(cfg_.n / 2 + 1, 0.0);
  const double norm = 1.0 / (static_cast<double>(nn_) * static_cast<double>(nn_));
  for (long jy = 0; jy < ni; ++jy) {
    const long my = (jy <= h) ? jy : jy - ni;
    for (long mx = 0; mx <= h; ++mx) {
      const std::size_t p =
          static_cast<std::size_t>(jy) * nh_ + static_cast<std::size_t>(mx);
      const auto bin =
          static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(mx * mx + my * my))));
      if (bin >= bins.size()) continue;
      // Interior columns stand in for themselves and their conjugate mirror.
      const double w = (mx == 0 || mx == h) ? 1.0 : 2.0;
      bins[bin] += w * 0.5 * ksq_[p] * std::norm(ps[p]) * norm;
    }
  }
  return bins;
}

double SqgModel::total_ke(std::span<const double> theta_grid, SqgWorkspace& ws) const {
  if (ws.n != cfg_.n || ws.gutil.size() != nn_) ws.resize_diagnostics(cfg_.n);
  to_spectral(theta_grid, ws.spec2);
  invert(ws.spec2, ws.psi2);
  double e = 0.0;
  const std::size_t h = cfg_.n / 2;
  const double norm = 1.0 / (static_cast<double>(nn_) * static_cast<double>(nn_));
  for (std::size_t l = 0; l < 2; ++l)
    for (std::size_t p = 0; p < ns_; ++p) {
      const std::size_t mx = p % nh_;
      const double w = (mx == 0 || mx == h) ? 1.0 : 2.0;
      e += w * 0.5 * ksq_[p] * std::norm(ws.psi2[l * ns_ + p]) * norm;
    }
  return e;
}

double SqgModel::cfl(std::span<const double> theta_grid, SqgWorkspace& ws) const {
  if (ws.n != cfg_.n || ws.gutil.size() != nn_) ws.resize_diagnostics(cfg_.n);
  to_spectral(theta_grid, ws.spec2);
  invert(ws.spec2, ws.psi2);
  std::span<Cplx> w(ws.wutil.data(), ns_);
  std::span<double> g(ws.gutil.data(), nn_);
  double umax = 0.0;
  for (std::size_t l = 0; l < 2; ++l) {
    const Cplx* ps = ws.psi2.data() + l * ns_;
    for (std::size_t p = 0; p < ns_; ++p)
      w[p] = Cplx(ky_[p] * ps[p].imag(), -ky_[p] * ps[p].real());  // -i ky psi
    fft_.inverse_half_pruned(w, g, kcut_);
    for (double x : g) umax = std::max(umax, std::abs(x + ubar_[l]));
    for (std::size_t p = 0; p < ns_; ++p)
      w[p] = Cplx(-kx_[p] * ps[p].imag(), kx_[p] * ps[p].real());  // +i kx psi
    fft_.inverse_half_pruned(w, g, kcut_);
    for (double x : g) umax = std::max(umax, std::abs(x));
  }
  const double dx = cfg_.L / static_cast<double>(cfg_.n);
  return umax * cfg_.dt / dx;
}

double SqgModel::eady_growth_rate(int m) const {
  TURBDA_REQUIRE(m >= 1, "wavenumber index must be >= 1");
  const double k = kTwoPi * static_cast<double>(m) / cfg_.L;
  const double kappa = std::sqrt(cfg_.nsq) * k / cfg_.f;
  const double mu = kappa * cfg_.H;
  const double lam_over_kappa = lambda_ / kappa;  // = U/mu
  const double a00 = -ubar_[0] - lam_over_kappa / std::tanh(mu);
  const double a01 = +lam_over_kappa / std::sinh(mu);
  const double a10 = -lam_over_kappa / std::sinh(mu);
  const double a11 = -ubar_[1] + lam_over_kappa / std::tanh(mu);
  // theta' ~ exp(i k a t) with a an eigenvalue of A; growth = -k Im(a).
  const double half_tr = 0.5 * (a00 + a11);
  const double det = a00 * a11 - a01 * a10;
  const double disc = half_tr * half_tr - det;
  return (disc < 0.0) ? k * std::sqrt(-disc) : 0.0;
}

}  // namespace turbda::sqg
