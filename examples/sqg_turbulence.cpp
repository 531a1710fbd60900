// SQG turbulence demo: spin up the two-surface Eady model to a statistically
// steady state, print diagnostics, verify the kinetic-energy spectrum slope
// against the -5/3 surface-QG prediction (paper §II-B), and write the final
// potential-temperature field as NPY.
//
//   build/examples/sqg_turbulence [--n=64] [--days=60]
#include <cmath>
#include <iostream>

#include "common/math_utils.hpp"
#include "io/args.hpp"
#include "io/npy.hpp"
#include "io/table.hpp"
#include "models/scaled_forecast.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"

using namespace turbda;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout << "sqg_turbulence: spin up the two-surface SQG model and check spectra\n"
                 "  --n=<int>            grid size (default 64)\n"
                 "  --days=<float>       integration length in days (default 60)\n"
                 "  --seed=<int>         initial-condition seed (default 7)\n";
    return 0;
  }
  sqg::SqgConfig cfg;
  cfg.n = static_cast<std::size_t>(args.get_int("n", 64));
  cfg.dt = (cfg.n <= 32) ? 1800.0 : 900.0;
  cfg.t_diab = 2.0 * 86400.0;
  cfg.r_ekman = 200.0;
  cfg.diff_efold = 3.0 * 3600.0;
  const double days = args.get_double("days", 60.0);

  sqg::SqgModel model(cfg);
  const double kelvin = models::sqg_kelvin_scale(300.0, cfg.f);
  rng::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
  std::vector<double> theta(model.dim());
  model.random_init(theta, rng, 2.0 / kelvin, 4);

  std::cout << "Two-surface SQG (nonlinear Eady) on " << cfg.n << "^2, L = " << cfg.L / 1e3
            << " km, U = " << cfg.U << " m/s shear\n\n";
  io::Table t({"day", "theta RMS [K]", "total KE [m^2/s^2]", "CFL"});
  const int report = std::max(1, static_cast<int>(days) / 10);
  for (int d = 0; d <= static_cast<int>(days); ++d) {
    if (d % report == 0) {
      t.add_row({std::to_string(d), io::Table::num(rms(std::span<const double>(theta)) * kelvin, 2),
                 io::Table::sci(model.total_ke(theta), 2),
                 io::Table::num(model.cfl(theta), 2)});
    }
    model.advance(theta, 86400.0);
  }
  t.print();

  // KE spectrum slope over the inertial range — SQG theory: E(K) ~ K^{-5/3}.
  const auto spec = model.ke_spectrum(theta, 0);
  const std::size_t k_lo = 4, k_hi = std::min<std::size_t>(spec.size() - 1, cfg.n / 4);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int cnt = 0;
  for (std::size_t k = k_lo; k <= k_hi; ++k) {
    if (spec[k] <= 0.0) continue;
    const double lx = std::log(static_cast<double>(k)), ly = std::log(spec[k]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++cnt;
  }
  const double slope = (cnt * sxy - sx * sy) / (cnt * sxx - sx * sx);
  std::cout << "\nKE spectrum slope over wavenumbers " << k_lo << ".." << k_hi << ": "
            << io::Table::num(slope, 2) << "   (SQG theory: -5/3 = -1.67)\n";

  std::vector<double> theta_k(theta.size());
  for (std::size_t i = 0; i < theta.size(); ++i) theta_k[i] = theta[i] * kelvin;
  io::write_npy("sqg_theta_final.npy", theta_k, {2, cfg.n, cfg.n});
  std::cout << "Final field written to sqg_theta_final.npy (2 x " << cfg.n << " x " << cfg.n
            << ", Kelvin).\n";
  return 0;
}
