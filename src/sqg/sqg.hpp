// Surface quasi-geostrophic (SQG) turbulence model — the paper's testbed.
//
// Two-surface nonlinear Eady model on an f-plane with uniform stratification
// N^2 and uniform vertical shear U/H (paper §II-B; follows Tulloch & Smith
// 2009 and the jswhit/sqgturb reference implementation):
//
//   state: theta = dpsi/dz (buoyancy / f) at the two boundaries z = 0, H,
//   advected by the boundary geostrophic flow; interior QG PV = 0.
//
// Spectral space: for total wavenumber K, kappa = N K / f, mu = kappa H:
//   psi0 = (1/kappa) (theta1 / sinh(mu) - theta0 / tanh(mu))
//   psi1 = (1/kappa) (theta1 / tanh(mu) - theta0 / sinh(mu))
//
// Boundary tendency (perturbations around the uniform-shear basic state
// Ubar(z), d(thetabar)/dy = -Lambda, Lambda = U/H):
//
//   d theta/dt = -J(psi, theta) - Ubar theta_x + Lambda v
//                [- r lap(psi) at z=0]  [- theta / t_diab]  [hyperdiffusion]
//
// Numerics: FFT spectral discretization, grid-space Jacobian with 2/3-rule
// dealiasing, RK4, and implicit (integrating-factor) del^8 hyperdiffusion
// applied once per step — exactly the scheme the paper describes.
//
// Spectral layout: the state between FFT calls is the packed non-redundant
// half spectrum of each real boundary field — n x (n/2 + 1) bins per level
// (Fft2D::forward_half layout), mirroring the remaining bins through
// X(-my, -mx) = conj(X(my, mx)). Operator tables and RK4 stage buffers are
// laid out over that half set (half the memory of the Hermitian-redundant
// full spectrum), but every pointwise pass runs only over the 2/3-dealiased
// wavenumber square inside it (|my| <= kcut, mx <= kcut: 2 kcut + 1 row
// segments of kcut + 1 bins per level, 44% of the half set at n = 128), and
// transforms are pruned to that square. The tendency does two branch-free
// spectral passes per level around one fused transform: a fused inversion +
// derivative pass; Fft2D::product_half_pruned_lanes, which takes the four
// derivative spectra to grid space one row at a time, forms the Jacobian
// on that row and feeds it straight into the forward transform's row r2c,
// so no grid field is ever stored; and one combine pass whose Ekman and
// relaxation terms are folded into precomputed per-level operator tables.
//
// Concurrency: SqgModel is immutable after construction (an FFT plan plus
// wavenumber/hyperdiffusion tables) and every transform runs serially on the
// calling thread. All per-step scratch lives in an explicit SqgWorkspace, so
// one model instance can step many states from many threads at once with
// zero per-step allocation — the only parallelism the solver needs: the
// cycling runners fan ensemble members out over the pool, one member
// forecast per call. The workspace-less overloads borrow a lazily grown
// per-thread workspace and are therefore also safe to call concurrently.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "fft/fft.hpp"
#include "models/forecast_model.hpp"
#include "rng/rng.hpp"
#include "simd/kernels.hpp"

namespace turbda::sqg {

using fft::Cplx;

struct SqgConfig {
  std::size_t n = 64;            ///< grid points per side (power of two)
  double L = 20.0e6;             ///< domain size [m] (20,000 km)
  double H = 10.0e3;             ///< layer depth [m]
  double f = 1.0e-4;             ///< Coriolis parameter [1/s]
  double nsq = 1.0e-4;           ///< buoyancy frequency squared [1/s^2]
  double U = 30.0;               ///< velocity difference across the layer [m/s]
  static constexpr bool symmetric_shear = true;  ///< Ubar = -U/2 / +U/2, not 0 / U
  double r_ekman = 0.0;          ///< Ekman pumping coefficient [m/s], z=0 only
  double t_diab = 10.0 * 86400;  ///< thermal relaxation timescale [s]
  int diff_order = 8;            ///< hyperdiffusion order (del^8)
  double diff_efold = 86400.0 / 3.0;  ///< e-folding of the highest mode [s]
  double dt = 900.0;             ///< RK4 step [s]
};

/// All mutable scratch one in-flight SQG integration needs: half-spectrum
/// stage buffers for RK4 plus the tendency's derivative and Jacobian
/// spectra. Allocate once per worker (or let the model borrow a per-thread
/// one) and reuse — stepping performs no heap allocation. Spectral buffers
/// hold n*(n/2+1) bins per level (the packed half spectrum). step() reads no
/// bin it did not write during the same call (its sweeps stay on the
/// dealiased square), so whatever a buffer held before is harmless. About
/// 2.5 MB at n = 128.
struct SqgWorkspace {
  SqgWorkspace() = default;
  explicit SqgWorkspace(std::size_t n) { resize(n); }

  /// Sizes the stepping buffers. The diagnostics buffers below are sized on
  /// demand by resize_diagnostics() so forecast-only workers (one workspace
  /// per pool thread) never pay for them.
  void resize(std::size_t n);
  void resize_diagnostics(std::size_t n);

  std::size_t n = 0;                         ///< grid points per side
  std::vector<Cplx> psi;                     // streamfunction, both levels
  // The four derivative half-spectra of one level (-psi_y, psi_x, theta_x,
  // theta_y), lane-interleaved in single precision for
  // Fft2D::product_half_pruned_lanes: 8 floats per bin.
  simd::FloatLaneBuffer lanes;
  std::vector<Cplx> jac;                     // Jacobian half-spectrum
  std::vector<Cplx> k1, k2, k3, k4, stage, spec;  // RK4 stages (2 n(n/2+1) each)
  std::vector<Cplx> spec2, psi2, wutil;      // diagnostics (ke/cfl/init)
  std::vector<double> gutil;
};

/// Per-thread workspace for grid size n, grown lazily and cached for the
/// thread's lifetime. Backs the workspace-less SqgModel overloads.
SqgWorkspace& tls_workspace(std::size_t n);

/// The SQG solver. State layout for the DA stack: grid-space theta, level 0
/// (z=0) then level 1 (z=H), row-major n x n each — i.e. the paper's
/// "64x64x2 mesh", dim = 2 n^2.
class SqgModel {
 public:
  explicit SqgModel(SqgConfig cfg);

  [[nodiscard]] const SqgConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t n() const { return cfg_.n; }
  [[nodiscard]] std::size_t dim() const { return 2 * cfg_.n * cfg_.n; }

  /// Size of the packed spectral state: two levels of n x (n/2+1) half
  /// spectra (Fft2D::forward_half layout, level 0 then level 1).
  [[nodiscard]] std::size_t spec_dim() const { return 2 * ns_; }
  /// Highest retained |wavenumber index| of the 2/3 dealias rule (n/3).
  [[nodiscard]] std::size_t kcut() const { return kcut_; }

  /// Advance grid-space state by `nsteps` RK4 steps of length cfg.dt.
  void step(std::span<double> theta_grid, int nsteps, SqgWorkspace& ws) const;
  void step(std::span<double> theta_grid, int nsteps = 1) const {
    step(theta_grid, nsteps, tls_workspace(cfg_.n));
  }

  /// Advance by (approximately) `seconds`, using ceil(seconds/dt) steps.
  void advance(std::span<double> theta_grid, double seconds, SqgWorkspace& ws) const;
  void advance(std::span<double> theta_grid, double seconds) const {
    advance(theta_grid, seconds, tls_workspace(cfg_.n));
  }

  /// Random large-scale initial condition: iid spectral amplitudes confined
  /// to |k| <= k_peak with the given grid-space RMS amplitude.
  void random_init(std::span<double> theta_grid, rng::Rng& rng, double rms_amplitude, int k_peak,
                   SqgWorkspace& ws) const;
  void random_init(std::span<double> theta_grid, rng::Rng& rng, double rms_amplitude,
                   int k_peak = 4) const {
    random_init(theta_grid, rng, rms_amplitude, k_peak, tls_workspace(cfg_.n));
  }

  /// Isotropic kinetic-energy spectrum E(K) at a boundary level (0 or 1),
  /// binned by integer total wavenumber index; E = 0.5 K^2 |psi|^2.
  [[nodiscard]] std::vector<double> ke_spectrum(std::span<const double> theta_grid, int level,
                                                SqgWorkspace& ws) const;
  [[nodiscard]] std::vector<double> ke_spectrum(std::span<const double> theta_grid,
                                                int level) const {
    return ke_spectrum(theta_grid, level, tls_workspace(cfg_.n));
  }

  /// Total kinetic energy (both levels) per unit area.
  [[nodiscard]] double total_ke(std::span<const double> theta_grid, SqgWorkspace& ws) const;
  [[nodiscard]] double total_ke(std::span<const double> theta_grid) const {
    return total_ke(theta_grid, tls_workspace(cfg_.n));
  }

  /// Max |u| CFL number for the current state: max(|u|,|v|) * dt / dx.
  [[nodiscard]] double cfl(std::span<const double> theta_grid, SqgWorkspace& ws) const;
  [[nodiscard]] double cfl(std::span<const double> theta_grid) const {
    return cfl(theta_grid, tls_workspace(cfg_.n));
  }

  /// Analytic Eady growth rate [1/s] for zonal wavenumber index m (i.e.
  /// kx = 2*pi*m/L, ky = 0); zero when the wave is neutral. Used to verify
  /// the discrete dynamics against linear theory.
  [[nodiscard]] double eady_growth_rate(int m) const;

  /// Boundary tendency d(theta)/dt in half-spectral space (public for the
  /// step benches and tests; `out` must not alias `theta_spec`; both are
  /// spec_dim() long). Only the dealiased square of `theta_spec` is read;
  /// `out` is the tendency there and +0 at every other bin.
  void tendency(std::span<const Cplx> theta_spec, std::span<Cplx> out, SqgWorkspace& ws) const;

  // --- spectral-space accessors used by tests -------------------------------
  // All spectral spans are spec_dim() long (two packed half spectra).
  // to_spectral truncates to the dealiased set; to_grid reads only that set
  // (bins outside it are never read, whatever they hold).
  void to_spectral(std::span<const double> theta_grid, std::span<Cplx> theta_spec) const;
  void to_grid(std::span<const Cplx> theta_spec, std::span<double> theta_grid) const;
  void invert(std::span<const Cplx> theta_spec, std::span<Cplx> psi_spec) const;

 private:
  /// tendency() on the dealiased square only: `out` (interleaved doubles,
  /// like `theta`) is written there and nowhere else. `ws` must be sized.
  void square_tendency(const double* theta, double* out, SqgWorkspace& ws) const;
  /// Calls f(off, nd) once per retained row of one level's half spectrum
  /// (|my| <= kcut): `off` is the row's first double in the interleaved
  /// (re, im) view and nd = 2 (kcut + 1) the doubles of its bins
  /// mx = 0..kcut.
  template <class F>
  void for_each_square_row(F&& f) const;

  SqgConfig cfg_;
  std::size_t nn_;               // n*n (one level, grid size)
  std::size_t nh_;               // n/2 + 1 (half-spectrum row length)
  std::size_t ns_;               // n*(n/2+1) (one level, spectral size)
  std::size_t kcut_;             // 2/3 dealias cutoff (n/3)
  fft::Fft2D fft_;
  // Operator tables, one entry per packed half-spectrum bin:
  std::vector<double> kx_, ky_, ksq_;        // wavenumbers (kx >= 0)
  std::vector<double> inv_kappa_;            // 1/kappa (0 at K=0)
  std::vector<double> inv_sinh_, inv_tanh_;  // 1/sinh(mu), 1/tanh(mu)
  std::vector<double> hyperdiff_;            // exp(-dt * rate(K)) per point
  // Pair-duplicated (table2[2p] == table2[2p+1]) copies of the real per-bin
  // tables above, matching the interleaved re/im layout the runtime-
  // dispatched pointwise kernels sweep over (simd/kernels.hpp).
  std::vector<double> kx2_, ky2_, inv_kappa2_, inv_sinh2_, inv_tanh2_, hyperdiff2_;
  // Fused per-level combine tables (read on the dealiased square only):
  // d(theta_l)/dt = op_theta_[l]*theta_l + op_psi_[l]*psi_l - J_l.
  std::vector<Cplx> op_theta_[2];            // -i kx Ubar_l - 1/t_diab
  std::vector<Cplx> op_psi_[2];              // i lambda kx (+ r K^2 at l=0)
  double ubar_[2];                           // basic-state zonal wind per level
  double lambda_;                            // shear U/H
};

/// ForecastModel adapter: advances the SQG state over one assimilation
/// window (`window_seconds`, e.g. 12 h in the paper's OSSE). Stateless apart
/// from the shared immutable model, so concurrent member forecasts are safe.
/// A member block (ForecastModel::forecast_batch) runs the base class's
/// member loop, each member on the calling thread's workspace.
class SqgForecast final : public models::ForecastModel {
 public:
  SqgForecast(std::shared_ptr<const SqgModel> model, double window_seconds)
      : model_(std::move(model)), window_(window_seconds) {}

  [[nodiscard]] std::size_t dim() const override { return model_->dim(); }
  void forecast(std::span<double> state) override { model_->advance(state, window_); }
  [[nodiscard]] std::string name() const override { return "sqg"; }
  [[nodiscard]] bool concurrent_safe() const override { return true; }

  [[nodiscard]] const SqgModel& model() const { return *model_; }

 private:
  std::shared_ptr<const SqgModel> model_;
  double window_;
};

}  // namespace turbda::sqg
