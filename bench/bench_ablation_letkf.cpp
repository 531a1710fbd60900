// LETKF regularization ablations: cut-off localization radius and RTPS
// inflation factor, on a small SQG OSSE. The paper tunes these to 2000 km /
// 0.3 in an error-free twin experiment.
//
// Also measures thread scaling of the local analyses on two observation
// networks, the identity network (the m x m solve) and a strided one (mostly
// the rank-p solve): the LETKF hot path is embarrassingly parallel over grid
// columns, and the parallel result must stay bitwise identical to the
// single-threaded one on both. Each table names the coarse-grid stride the
// cutoff gives the grid (letkf_coarse_stride) and counts the solved columns,
// its nodes.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/../bench/sqg_experiment.hpp"
#include "common/timer.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "thread_counts.hpp"

using namespace turbda;

namespace {

/// One thread-scaling measurement, kept for the machine-readable output.
struct ScaleRow {
  std::string network;  ///< "identity" or "stride<k>"
  std::size_t n = 0, stride = 1, threads = 0, members = 0;
  double analysis_ms = 0.0;  ///< best-of-reps wall time of one analyze()
  da::LetkfTimings ph;       ///< phase breakdown of the best rep
  double plan_ms = 0.0;      ///< one-time local-obs plan build (prepare())
  bool bitwise = false;
};

/// Times `reps` LETKF analyses of `prior` on one observation network at each
/// thread count and verifies bitwise agreement with the single-threaded
/// analysis. Returns false on any mismatch and appends one ScaleRow per
/// thread count to `rows`.
[[nodiscard]] bool scale_network(const std::string& network, da::LetkfConfig lc,
                                 const da::ObservationOperator& h, std::span<const double> y,
                                 const da::Ensemble& prior, const std::vector<std::size_t>& counts,
                                 int reps, std::vector<ScaleRow>& rows) {
  const std::size_t members = prior.size();
  const std::size_t dim = prior.dim();
  const da::DiagonalR r(h.obs_dim(), 1.0);
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t stride = da::letkf_coarse_stride(lc);
  std::cout << "\nThread scaling (LETKF analyze, " << network << " network with " << h.obs_dim()
            << " obs, " << lc.nx << "^2 x 2 grid, coarse stride " << stride << ", " << members
            << " members, " << hw << " hardware threads, best of " << reps << "):\n";
  io::Table t({"threads", "time [ms]", "speedup", "bitwise == 1 thread"});
  double t1 = 0.0;
  bool all_same = true;
  da::Ensemble ref(members, dim);
  const std::size_t first = rows.size();
  for (std::size_t nt : counts) {
    lc.n_threads = nt;
    lc.collect_timings = true;
    da::LETKF letkf(lc);
    // Build the cached local-obs plan up front (the streaming usage), so the
    // timed analyses below all hit the cache; the build cost is reported as
    // its own column.
    letkf.prepare(h, r);
    const double plan_ms = letkf.timings().plan_ms;
    double best = 1e300;
    da::LetkfTimings best_ph;
    da::Ensemble work(members, dim);
    for (int rep = 0; rep < reps; ++rep) {
      work.data() = prior.data();
      letkf.reset_timings();
      WallTimer timer;
      letkf.analyze(work, y, h, r);
      const double ms = timer.milliseconds();
      if (ms < best) {
        best = ms;
        best_ph = letkf.timings();
      }
    }
    if (nt == 1) {
      t1 = best;
      ref.data() = work.data();
    }
    const bool same = 0 == std::memcmp(ref.data().data(), work.data().data(),
                                       members * dim * sizeof(double));
    all_same = all_same && same;
    t.add_row({std::to_string(nt), io::Table::num(best, 2), io::Table::num(t1 / best, 2),
               same ? "yes" : "NO"});
    rows.push_back({network, lc.nx, stride, nt, members, best, best_ph, plan_ms, same});
  }
  t.print();

  std::cout << "\nPer-phase breakdown (ms per analysis, summed over workers; plan is a one-time\n"
               "per-network cost, 'other' = wall - phases, only meaningful serially):\n";
  io::Table pt({"threads", "plan", "select", "gather", "gram", "eigh", "weights", "combine",
                "other", "stride", "solved/columns", "rank-p cols", "full/partial cols"});
  for (std::size_t i = first; i < rows.size(); ++i) {
    const ScaleRow& r0 = rows[i];
    const da::LetkfTimings& ph = r0.ph;
    const double phased = ph.select_ms + ph.gather_ms + ph.gram_ms + ph.eigh_ms + ph.weights_ms +
                          ph.combine_ms;
    pt.add_row({std::to_string(r0.threads), io::Table::num(r0.plan_ms, 1),
                io::Table::num(ph.select_ms, 1), io::Table::num(ph.gather_ms, 1),
                io::Table::num(ph.gram_ms, 1), io::Table::num(ph.eigh_ms, 1),
                io::Table::num(ph.weights_ms, 1), io::Table::num(ph.combine_ms, 1),
                r0.threads == 1 ? io::Table::num(r0.analysis_ms - phased, 1) : std::string("-"),
                std::to_string(r0.stride),
                std::to_string(ph.groups) + "/" + std::to_string(ph.columns),
                std::to_string(ph.rank_p_columns),
                std::to_string(ph.batched_columns) + "/" + std::to_string(ph.scalar_columns)});
  }
  pt.print();
  std::cout << "('solved' counts the coarse-grid nodes with local observations, every\n"
               " observed column at stride 1, each solved through an eigensolve; the other\n"
               " columns blend their neighbouring nodes' weights, and 'combine' includes that\n"
               " blend. 'rank-p cols' counts the solved nodes with fewer local observations\n"
               " than members, solved through the p x p eigenproblem, the rest through the\n"
               " m x m one; 'full/partial cols' is the SIMD lane-occupancy split of the\n"
               " nodes: full lane batches vs padded partial batches plus unobserved nodes.)\n";
  if (!all_same) std::cout << "ERROR: multi-threaded analysis diverged from 1 thread\n";
  return all_same;
}

/// Thread scaling of the local analyses on two observation networks over
/// one synthetic ensemble: the identity network (every grid
/// point observed; hundreds of local observations per column, the m x m
/// path) and the strided network at stride max(1, n/16) (the cycle
/// benchmark's 1/64 network at n = 128; mostly fewer local observations
/// than members, the rank-p path). Returns false when any thread count
/// produced a bitwise mismatch on either network, so CI can fail on a
/// determinism regression.
[[nodiscard]] bool thread_scaling(std::size_t n, std::size_t members, int reps,
                                  std::vector<ScaleRow>& rows) {
  reps = std::max(1, reps);
  da::LetkfConfig lc;
  lc.nx = n;
  lc.ny = n;
  lc.n_levels = 2;
  lc.domain_m = 20.0e6;
  lc.cutoff_m = 2.0e6;
  lc.rtps = 0.3;

  const std::size_t dim = lc.nx * lc.ny * lc.n_levels;
  std::vector<double> truth(dim), y(dim);
  rng::Rng rng(42);
  rng.fill_gaussian(truth, 0.0, 2.0);
  for (std::size_t i = 0; i < dim; ++i) y[i] = truth[i] + rng.gaussian();
  da::Ensemble prior(members, dim);
  prior.init_perturbed(truth, 1.5, rng);

  const std::vector<std::size_t> counts = bench::scaling_thread_counts(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));

  const da::IdentityObs identity(dim, lc.nx, lc.ny, lc.n_levels);
  bool all_same = scale_network("identity", lc, identity, y, prior, counts, reps, rows);

  // The strided network observes the same noisy values at its grid points.
  const std::size_t stride = std::max<std::size_t>(1, n / 16);
  const da::SubsampleObs strided = da::SubsampleObs::strided_grid(n, n, lc.n_levels, stride);
  std::vector<double> y_strided(strided.obs_dim());
  for (std::size_t o = 0; o < y_strided.size(); ++o) y_strided[o] = y[strided.indices()[o]];
  all_same = scale_network("stride" + std::to_string(stride), lc, strided, y_strided, prior,
                           counts, reps, rows) &&
             all_same;
  return all_same;
}

void write_json(const std::string& path, const std::vector<ScaleRow>& rows, std::size_t hw) {
  std::ofstream js(path);
  const char* simd = simd::simd_level_name(simd::active_simd_level());
  js << "{\n  \"bench\": \"ablation_letkf\",\n  \"hardware_threads\": " << hw
     << ",\n  \"simd_level\": \"" << simd << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r0 = rows[i];
    js << "    {\"network\": \"" << r0.network << "\", \"n\": " << r0.n
       << ", \"threads\": " << r0.threads << ", \"hw_threads\": " << hw
       << ", \"simd\": \"" << simd << "\", \"members\": " << r0.members
       << ", \"analysis_ms\": " << r0.analysis_ms << ", \"plan_ms\": " << r0.plan_ms
       << ", \"select_ms\": " << r0.ph.select_ms << ", \"gather_ms\": " << r0.ph.gather_ms
       << ", \"gram_ms\": " << r0.ph.gram_ms << ", \"eigh_ms\": " << r0.ph.eigh_ms
       << ", \"weights_ms\": " << r0.ph.weights_ms << ", \"combine_ms\": " << r0.ph.combine_ms
       << ", \"stride\": " << r0.stride << ", \"solved_columns\": " << r0.ph.groups
       << ", \"columns\": " << r0.ph.columns
       << ", \"batched_columns\": " << r0.ph.batched_columns
       << ", \"scalar_columns\": " << r0.ph.scalar_columns
       << ", \"rank_p_columns\": " << r0.ph.rank_p_columns
       << ", \"bitwise_vs_t1\": " << (r0.bitwise ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "\nMachine-readable timings written to " << path << ".\n";
}

}  // namespace

constexpr char kUsage[] =
    "bench_ablation_letkf: LETKF regularization ablations + thread scaling\n"
    "  --n=<int>        SQG grid size for the ablations (default 32)\n"
    "  --cycles=<int>   assimilation cycles per ablation run (default 25)\n"
    "  --scale-n=<int>  grid size for the thread-scaling section (default 48);\n"
    "                   it measures the identity network and the\n"
    "                   stride max(1, n/16) network\n"
    "  --members=<int>  ensemble size for the thread-scaling section (default 20)\n"
    "  --reps=<int>     timing repetitions per thread count (default 3)\n"
    "  --threads=<int>  LETKF worker threads for the ablation runs;\n"
    "                   0 = all hardware threads (default 0)\n"
    "  --json=<path>    machine-readable output (default BENCH_letkf.json)\n"
    "  --no-ablations   run only the thread-scaling section\n";

int main(int argc, char** argv) {
  const io::Args args(argc, argv, kUsage);
  bench::SqgExperimentConfig cfg;
  cfg.n = static_cast<std::size_t>(args.get_int("n", 32));
  cfg.cycles = static_cast<int>(args.get_int("cycles", 25));

  std::vector<ScaleRow> rows;
  const bool deterministic = thread_scaling(static_cast<std::size_t>(args.get_int("scale-n", 48)),
                                            static_cast<std::size_t>(args.get_int("members", 20)),
                                            static_cast<int>(args.get_int("reps", 3)), rows);
  write_json(args.get_str("json", "BENCH_letkf.json"), rows,
             std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  if (args.flag("no-ablations")) return deterministic ? 0 : 1;

  std::cout << "\n=== LETKF ablations (SQG " << cfg.n << "^2 OSSE, " << cfg.cycles
            << " cycles, imperfect model) ===\n";
  bench::SqgExperiment exp(cfg);

  auto late = [&](const std::vector<stream::StreamCycleMetrics>& m) {
    double s = 0.0;
    const int k0 = (2 * cfg.cycles) / 3;
    for (int k = k0; k < cfg.cycles; ++k) s += m[static_cast<std::size_t>(k)].rmse_post;
    return s / (cfg.cycles - k0);
  };
  const auto n_threads = static_cast<std::size_t>(args.get_int("threads", 0));

  std::cout << "\nCut-off localization radius (paper's tuned value: 2000 km):\n";
  io::Table t({"cutoff [km]", "late RMSE [K]"});
  for (double km : {500.0, 1000.0, 2000.0, 4000.0, 10000.0}) {
    da::LetkfConfig lc = exp.letkf_config();
    lc.cutoff_m = km * 1e3;
    lc.n_threads = n_threads;
    da::LETKF letkf(lc);
    t.add_row({io::Table::num(km, 0), io::Table::num(late(exp.run(&letkf, nullptr)), 2)});
  }
  t.print();

  std::cout << "\nRTPS inflation factor (paper's tuned value: 0.3):\n";
  io::Table rt({"RTPS", "late RMSE [K]"});
  for (double a : {0.0, 0.15, 0.3, 0.6, 0.9}) {
    da::LetkfConfig lc = exp.letkf_config();
    lc.rtps = a;
    lc.n_threads = n_threads;
    da::LETKF letkf(lc);
    rt.add_row({io::Table::num(a, 2), io::Table::num(late(exp.run(&letkf, nullptr)), 2)});
  }
  rt.print();
  std::cout << "\n(EnSF needs neither knob — the paper's central operational argument.)\n";
  return deterministic ? 0 : 1;
}
