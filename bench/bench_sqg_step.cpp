// SQG forecast hot-path bench: times the real-FFT pair, the tendency's
// Jacobian spectrum (per-field: four lane pruned inverses, the double grid
// product and a lane pruned forward; fused: one
// Fft2D::product_half_pruned_lanes call, every transform in single
// precision on the lanes either way), the spectral tendency, and the
// full RK4 step at n = 64/128/256 on one thread, plus the member-parallel
// ensemble forecast (the paper's throughput axis) across thread counts.
// Reports the active FFT SIMD dispatch level (scalar / avx2 / avx2fma) and
// per-row hardware context, emits a machine-readable BENCH_sqg.json so later
// PRs can track the perf trajectory, and exits 1 unless the fused Jacobian
// spectrum is bitwise the same at the scalar and avx2 levels and within
// kFusedRelBound of the per-field one, and every multi-threaded ensemble
// forecast is bitwise identical to the serial one.
//
//   build/bench_sqg_step [--sizes=64,128,256] [--threads=1,<hw>]
//                        [--members=20] [--reps=3] [--json=BENCH_sqg.json]
//                        [--smoke]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fft/fft.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "sqg/sqg.hpp"
#include "thread_counts.hpp"

using namespace turbda;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoul(tok)));
  return out;
}

/// Best-of-`reps` wall time of fn(), each rep running `iters` iterations.
template <class F>
double best_ms(int reps, int iters, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, ms_since(t0) / iters);
  }
  return best;
}

/// Largest |fused - per-field| over the largest |per-field| bin the fused
/// Jacobian spectrum may show: float rounding through two 2-D transforms
/// and the product. Measured 1.2e-7 to 1.3e-7 here at n = 32..256 (and up
/// to 3.4e-7 on the random spectra of Fft2dLanes.WithinFloatBoundOfPerField).
constexpr double kFusedRelBound = 1e-6;

/// Single-thread kernel timings at one grid size.
struct Kernels {
  double fft_half_ms = 0.0;   // forward_half + inverse_half
  double jac_field_ms = 0.0;  // four inverse_half_pruned, grid product, forward_half_pruned
  double jac_fused_ms = 0.0;  // one product_half_pruned_lanes call, input restore included
  double jac_rel_err = 0.0;   // max |fused - per-field| / max |per-field|
  bool jac_levels_bitwise = true;  // fused spectrum: scalar == avx2
  double tendency_ms = 0.0;
  double step_ms = 0.0;
};

struct Result {
  std::size_t n = 0;
  std::size_t threads = 0;
  Kernels kernels;      // recorded on the threads == 1 row only
  double ens_ms = 0.0;  // per-member forecasts fanned over the pool
  bool bitwise = true;
};

}  // namespace

constexpr char kUsage[] =
    "bench_sqg_step: SQG spectral-core timings (FFT / tendency / RK4 / ensemble)\n"
    "  --sizes=<csv>    grid sizes (default 64,128,256)\n"
    "  --threads=<csv>  thread counts for the ensemble forecast (default 1,<hw>;\n"
    "                   counts above the hardware threads are refused)\n"
    "  --members=<int>  ensemble size for the forecast timing (default 20)\n"
    "  --reps=<int>     best-of repetitions (default 3)\n"
    "  --json=<path>    machine-readable output (default BENCH_sqg.json)\n"
    "  --smoke          small fast configuration for CI\n";

int main(int argc, char** argv) {
  const io::Args args(argc, argv, kUsage);
  const bool smoke = args.flag("smoke");
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto sizes = parse_list(args.get_str("sizes", smoke ? "32,64" : "64,128,256"));
  const auto threads = bench::runnable_thread_counts(
      parse_list(args.get_str("threads", "1," + std::to_string(hw))), hw);
  const auto members = static_cast<std::size_t>(args.get_int("members", smoke ? 6 : 20));
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 1 : 3));
  const std::string json_path = args.get_str("json", "BENCH_sqg.json");
  const char* simd = simd::simd_level_name(simd::active_simd_level());

  std::cout << "=== SQG forecast hot path (" << hw << " hardware threads, FFT SIMD dispatch: "
            << simd << ", best of " << reps << ", " << members << "-member ensemble) ===\n\n";

  std::vector<Result> results;
  for (const std::size_t n : sizes) {
    const std::size_t nn = n * n;
    const int fft_iters = smoke ? 20 : ((n >= 256) ? 50 : 200);
    const int ten_iters = smoke ? 5 : ((n >= 256) ? 10 : 40);
    const int step_iters = smoke ? 2 : ((n >= 256) ? 5 : 20);

    sqg::SqgConfig cfg;
    cfg.n = n;
    cfg.dt = 900.0;
    const sqg::SqgModel model(cfg);
    sqg::SqgWorkspace ws(n);
    rng::Rng rng(2024 + n);
    std::vector<double> theta(model.dim());
    model.random_init(theta, rng, 1.0, 4);

    // Serial per-member reference for the bitwise cross-thread check.
    std::vector<std::vector<double>> ref_members(members, theta);
    for (auto& m : ref_members) model.step(m, 1, ws);

    // Real-FFT pair on one level, in the packed half-spectrum layout the
    // solver runs on.
    Kernels k;
    const fft::Fft2D fft(n, n);
    std::vector<double> grid(theta.begin(), theta.begin() + static_cast<long>(nn));
    std::vector<fft::Cplx> hspec(fft.half_size());
    k.fft_half_ms = best_ms(reps, fft_iters, [&] {
      fft.forward_half(grid, hspec);
      fft.inverse_half(hspec, grid);
    });

    // The tendency's Jacobian spectrum (one level) from four dealiased half
    // spectra, per-field vs fused. The fused call consumes its input, so its
    // timing includes restoring the lane buffer from a copy.
    const std::size_t kc = model.kcut();
    std::vector<std::vector<fft::Cplx>> spec4(simd::kLaneBatch,
                                              std::vector<fft::Cplx>(fft.half_size()));
    std::vector<std::vector<double>> field4(simd::kLaneBatch, std::vector<double>(nn));
    std::vector<double> gj(nn);
    std::vector<fft::Cplx> jac_field(fft.half_size()), jac_fused(fft.half_size());
    simd::FloatLaneBuffer lanes0(2 * simd::kLaneBatch * fft.half_size()), lanes(lanes0.size());
    for (std::size_t l = 0; l < simd::kLaneBatch; ++l) {
      const std::size_t at = (l % 2) * nn;
      std::vector<double> g(theta.begin() + static_cast<long>(at),
                            theta.begin() + static_cast<long>(at + nn));
      if (l >= 2)
        for (std::size_t i = 0; i < nn; ++i) g[i] = g[(i + n + 1) % nn] * g[i];
      fft.forward_half_pruned(g, spec4[l], kc);
      for (std::size_t p = 0; p < fft.half_size(); ++p) {
        lanes0[2 * simd::kLaneBatch * p + l] = static_cast<float>(spec4[l][p].real());
        lanes0[2 * simd::kLaneBatch * p + simd::kLaneBatch + l] =
            static_cast<float>(spec4[l][p].imag());
      }
    }
    k.jac_field_ms = best_ms(reps, fft_iters, [&] {
      for (std::size_t l = 0; l < simd::kLaneBatch; ++l)
        fft.inverse_half_pruned(spec4[l], field4[l], kc);
      for (std::size_t i = 0; i < nn; ++i)
        gj[i] = field4[0][i] * field4[2][i] + field4[1][i] * field4[3][i];
      fft.forward_half_pruned(gj, jac_field, kc);
    });
    const auto fused = [&](std::vector<fft::Cplx>& out) {
      std::copy(lanes0.begin(), lanes0.end(), lanes.begin());
      fft.product_half_pruned_lanes(lanes, simd::active_kernels().sqg_jacobian, out, kc);
    };
    k.jac_fused_ms = best_ms(reps, fft_iters, [&] { fused(jac_fused); });
    double err = 0.0, mag = 0.0;
    for (std::size_t p = 0; p < jac_field.size(); ++p) {
      err = std::max(err, std::abs(jac_fused[p] - jac_field[p]));
      mag = std::max(mag, std::abs(jac_field[p]));
    }
    k.jac_rel_err = err / mag;
    if (simd::simd_level_available(simd::SimdLevel::Avx2)) {
      const simd::SimdLevel level = simd::active_simd_level();
      std::vector<fft::Cplx> at_scalar(fft.half_size()), at_avx2(fft.half_size());
      simd::force_simd_level(simd::SimdLevel::Scalar);
      fused(at_scalar);
      simd::force_simd_level(simd::SimdLevel::Avx2);
      fused(at_avx2);
      simd::force_simd_level(level);
      k.jac_levels_bitwise = std::memcmp(at_scalar.data(), at_avx2.data(),
                                         at_scalar.size() * sizeof(fft::Cplx)) == 0;
    }

    // Spectral tendency (the RK4 inner kernel).
    std::vector<fft::Cplx> tspec(model.spec_dim()), tout(model.spec_dim());
    model.to_spectral(theta, tspec);
    k.tendency_ms = best_ms(reps, ten_iters, [&] { model.tendency(tspec, tout, ws); });

    // Full RK4 step.
    {
      std::vector<double> state = theta;
      model.step(state, 1, ws);  // warm up
      k.step_ms = best_ms(reps, 1, [&] {
                    state = theta;
                    model.step(state, step_iters, ws);
                  }) /
                  step_iters;
    }

    // Member-parallel ensemble forecast: `members` independent states, one
    // RK4 step each, fanned out over the pool with max_par = nt — the shape
    // of the cycling runners' forecast fan-out.
    for (const std::size_t nt : threads) {
      Result res;
      res.n = n;
      res.threads = nt;
      if (nt == 1) res.kernels = k;
      std::vector<std::vector<double>> states(members);
      res.ens_ms = best_ms(reps, 1, [&] {
        for (std::size_t m = 0; m < members; ++m) states[m] = theta;
        parallel::parallel_for(
            members,
            [&](std::size_t b, std::size_t e) {
              for (std::size_t m = b; m < e; ++m) model.step(states[m], 1, sqg::tls_workspace(n));
            },
            /*min_grain=*/1, nt);
      });
      for (std::size_t m = 0; m < members; ++m)
        res.bitwise = res.bitwise && std::memcmp(states[m].data(), ref_members[m].data(),
                                                 states[m].size() * sizeof(double)) == 0;
      results.push_back(res);
    }
  }

  // Serial kernel columns appear on the threads == 1 row of each size.
  const auto kernel_cell = [](const Result& r, double v) {
    return r.threads == 1 ? io::Table::num(v, 3) : std::string("-");
  };
  io::Table t({"n", "threads", "half pair [ms]", "Jacobian spectrum per-field [ms]",
               "fused [ms]", "tendency [ms]", "RK4 step [ms]", "ens fcst [ms]",
               "bitwise == t1"});
  for (const auto& r : results) {
    t.add_row({std::to_string(r.n), std::to_string(r.threads),
               kernel_cell(r, r.kernels.fft_half_ms), kernel_cell(r, r.kernels.jac_field_ms),
               kernel_cell(r, r.kernels.jac_fused_ms), kernel_cell(r, r.kernels.tendency_ms),
               kernel_cell(r, r.kernels.step_ms), io::Table::num(r.ens_ms, 3),
               r.bitwise ? "yes" : "NO"});
  }
  t.print();

  bool all_bitwise = true, fused_bitwise = true;
  double fused_err = 0.0;
  for (const auto& r : results) {
    all_bitwise = all_bitwise && r.bitwise;
    fused_bitwise = fused_bitwise && r.kernels.jac_levels_bitwise;
    fused_err = std::max(fused_err, r.kernels.jac_rel_err);
  }
  const bool fused_close = fused_err <= kFusedRelBound;
  std::cout << "\nFused Jacobian spectra bitwise identical at scalar and avx2: "
            << (fused_bitwise ? "yes" : "NO") << "\n";
  std::cout << "Fused Jacobian spectra within " << kFusedRelBound
            << " of per-field (largest relative difference " << fused_err
            << "): " << (fused_close ? "yes" : "NO") << "\n";
  std::cout << "Multi-threaded ensemble forecasts bitwise identical to 1 thread: "
            << (all_bitwise ? "yes" : "NO") << "\n";

  // Per-row hardware context (hw_threads, simd) rides along so downstream
  // consumers (bench_guard) can reject rows whose thread count oversubscribed
  // the recording machine without trusting the file-level header.
  std::ofstream js(json_path);
  js << "{\n  \"bench\": \"sqg_step\",\n  \"hardware_threads\": " << hw
     << ",\n  \"simd_level\": \"" << simd << "\",\n  \"members\": " << members
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    js << "    {\"n\": " << r.n << ", \"threads\": " << r.threads << ", \"hw_threads\": " << hw
       << ", \"simd\": \"" << simd << "\"";
    if (r.threads == 1) {
      js << ", \"fft_half_pair_ms\": " << r.kernels.fft_half_ms
         << ", \"jacobian_field_ms\": " << r.kernels.jac_field_ms
         << ", \"jacobian_fused_ms\": " << r.kernels.jac_fused_ms
         << ", \"jacobian_rel_err\": " << r.kernels.jac_rel_err
         << ", \"jacobian_levels_bitwise\": " << (r.kernels.jac_levels_bitwise ? "true" : "false")
         << ", \"tendency_ms\": " << r.kernels.tendency_ms
         << ", \"rk4_step_ms\": " << r.kernels.step_ms;
    }
    js << ", \"ens_forecast_ms\": " << r.ens_ms
       << ", \"bitwise_vs_t1\": " << (r.bitwise ? "true" : "false") << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "Machine-readable timings written to " << json_path << ".\n";
  return all_bitwise && fused_bitwise && fused_close ? 0 : 1;
}
