// EnSF design-choice ablations on the Lorenz-96 cycling testbed: likelihood
// strength, kernel bandwidth, Euler steps, score minibatch J and spread
// relaxation. The README's "EnSF analysis" section records the findings.
//
// Also measures thread scaling of the analysis on the n^2 x 2 identity
// network with EnsfConfig::stabilized(): the analysis is one fan-out over
// sample blocks, and the parallel result must stay bitwise identical to the
// single-threaded one.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "da/ensf.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"
#include "thread_counts.hpp"

using namespace turbda;

namespace {

double cycling_rmse(const da::EnsfConfig& fcfg, int cycles = 30) {
  models::Lorenz96Config mc;
  mc.dim = 40;
  mc.steps_per_window = 10;
  models::Lorenz96 truth_model(mc), fcst(mc);
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  models::Lorenz96 spin(mc);
  for (int i = 0; i < 500; ++i) spin.step(truth0);

  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  stream::RealtimeConfig rc;
  rc.cycles = cycles;
  rc.n_members = 20;
  rc.seed = 99;
  da::EnSF filter(fcfg);
  stream::SyntheticStream obs({.seed = rc.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner runner(rc, obs, fcst, &filter);
  const auto m = runner.run(truth0);
  double late = 0.0;
  const int k0 = (2 * cycles) / 3;
  for (int k = k0; k < cycles; ++k) late += m[static_cast<std::size_t>(k)].rmse_post;
  return late / (cycles - k0);
}

/// One thread-scaling measurement, kept for the machine-readable output.
struct ScaleRow {
  std::size_t n = 0, threads = 0, members = 0;
  double analysis_ms = 0.0;  ///< best-of-reps wall time of one analyze()
  da::EnsfTimings ph;        ///< phase breakdown of the best rep
  bool bitwise = false;
};

/// Times EnSF analyses of one synthetic ensemble on the n^2 x 2 identity
/// network at thread counts 1, 2, 4 (and all hardware threads above 4), best
/// of `reps`, each rep a fresh filter so every rep draws the same noise.
/// Returns false when any thread count's analysis differs bitwise from the
/// single-threaded one, so CI can fail on a determinism regression.
[[nodiscard]] bool thread_scaling(std::size_t n, std::size_t members, int reps,
                                  std::vector<ScaleRow>& rows) {
  reps = std::max(1, reps);
  const std::size_t dim = n * n * 2;
  std::vector<double> truth(dim), y(dim);
  rng::Rng rng(42);
  rng.fill_gaussian(truth, 0.0, 2.0);
  for (std::size_t i = 0; i < dim; ++i) y[i] = truth[i] + rng.gaussian();
  da::Ensemble prior(members, dim);
  prior.init_perturbed(truth, 1.5, rng);
  const da::IdentityObs h(dim, n, n, 2);
  const da::DiagonalR r(dim, 1.0);

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::vector<std::size_t> counts = bench::scaling_thread_counts(hw);

  const da::EnsfConfig base = da::EnsfConfig::stabilized();
  std::cout << "\nThread scaling (EnSF analyze, stabilized config, " << base.euler_steps
            << " Euler steps, identity network, " << n << "^2 x 2 grid, " << members
            << " members, " << hw << " hardware threads, best of " << reps << "):\n";
  io::Table t({"threads", "time [ms]", "speedup", "bitwise == 1 thread"});
  double t1 = 0.0;
  bool all_same = true;
  da::Ensemble ref(members, dim), work(members, dim);
  for (const std::size_t nt : counts) {
    da::EnsfConfig ec = base;
    ec.n_threads = nt;
    double best = 1e300;
    da::EnsfTimings best_ph;
    for (int rep = 0; rep < reps; ++rep) {
      da::EnSF ensf(ec);
      work.data() = prior.data();
      WallTimer timer;
      ensf.analyze(work, y, h, r);
      const double ms = timer.milliseconds();
      if (ms < best) {
        best = ms;
        best_ph = ensf.timings();
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
    rows.push_back({n, nt, members, best, best_ph, same});
  }
  t.print();

  std::cout << "\nPer-phase breakdown (ms per analysis, summed over workers; 'other' = wall -\n"
               "phases, only meaningful serially):\n";
  io::Table pt({"threads", "score", "softmax", "mean", "likelihood", "noise", "update", "other"});
  for (const ScaleRow& r0 : rows) {
    const da::EnsfTimings& ph = r0.ph;
    const double phased = ph.score_ms + ph.softmax_ms + ph.mean_ms + ph.likelihood_ms +
                          ph.noise_ms + ph.update_ms;
    pt.add_row({std::to_string(r0.threads), io::Table::num(ph.score_ms, 1),
                io::Table::num(ph.softmax_ms, 1), io::Table::num(ph.mean_ms, 1),
                io::Table::num(ph.likelihood_ms, 1), io::Table::num(ph.noise_ms, 1),
                io::Table::num(ph.update_ms, 1),
                r0.threads == 1 ? io::Table::num(r0.analysis_ms - phased, 1) : std::string("-")});
  }
  pt.print();
  std::cout << "(score = minibatch gather + z x^T product on matmul_rows, mean = float W X\n"
               " product on matmul_rows_f32; noise includes the initial Z draw.)\n";
  if (!all_same) std::cout << "ERROR: multi-threaded analysis diverged from 1 thread\n";
  return all_same;
}

void write_json(const std::string& path, const std::vector<ScaleRow>& rows, std::size_t hw) {
  std::ofstream js(path);
  const char* simd = simd::simd_level_name(simd::active_simd_level());
  js << "{\n  \"bench\": \"ablation_ensf\",\n  \"hardware_threads\": " << hw
     << ",\n  \"simd_level\": \"" << simd << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r0 = rows[i];
    js << "    {\"network\": \"identity\", \"n\": " << r0.n << ", \"threads\": " << r0.threads
       << ", \"hw_threads\": " << hw << ", \"simd\": \"" << simd
       << "\", \"members\": " << r0.members << ", \"analysis_ms\": " << r0.analysis_ms
       << ", \"score_ms\": " << r0.ph.score_ms << ", \"softmax_ms\": " << r0.ph.softmax_ms
       << ", \"mean_ms\": " << r0.ph.mean_ms << ", \"likelihood_ms\": " << r0.ph.likelihood_ms
       << ", \"noise_ms\": " << r0.ph.noise_ms << ", \"update_ms\": " << r0.ph.update_ms
       << ", \"bitwise_vs_t1\": " << (r0.bitwise ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "\nMachine-readable timings written to " << path << ".\n";
}

}  // namespace

constexpr char kUsage[] =
    "bench_ablation_ensf: EnSF design-choice ablations on Lorenz-96 + thread scaling\n"
    "  --cycles=<int>   assimilation cycles per ablation run (default 30)\n"
    "  --threads=<int>  EnSF worker threads for the ablation runs;\n"
    "                   0 = all hardware threads (default 0)\n"
    "  --scale-n=<int>  grid size for the thread-scaling section (default 64);\n"
    "                   it measures the n^2 x 2 identity network\n"
    "  --members=<int>  ensemble size for the thread-scaling section (default 20)\n"
    "  --reps=<int>     timing repetitions per thread count (default 3)\n"
    "  --json=<path>    machine-readable output (default BENCH_ensf.json)\n"
    "  --no-ablations   run only the thread-scaling section\n";

int main(int argc, char** argv) {
  const io::Args args(argc, argv, kUsage);
  std::vector<ScaleRow> rows;
  const bool deterministic = thread_scaling(static_cast<std::size_t>(args.get_int("scale-n", 64)),
                                            static_cast<std::size_t>(args.get_int("members", 20)),
                                            static_cast<int>(args.get_int("reps", 3)), rows);
  write_json(args.get_str("json", "BENCH_ensf.json"), rows,
             std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  if (args.flag("no-ablations")) return deterministic ? 0 : 1;

  const int cycles = static_cast<int>(args.get_int("cycles", 30));
  std::cout << "=== EnSF ablations (Lorenz-96, dim 40, R = I, 20 members, late-cycle "
               "analysis RMSE) ===\n";
  da::EnsfConfig base = da::EnsfConfig::stabilized();
  base.n_threads = static_cast<std::size_t>(args.get_int("threads", 0));

  {
    std::cout << "\nLikelihood strength (raw Eq. 11 = 1):\n";
    io::Table t({"strength", "RMSE"});
    for (double g : {1.0, 4.0, 8.0, 16.0, 32.0}) {
      da::EnsfConfig c = base;
      c.likelihood_strength = g;
      t.add_row({io::Table::num(g, 0), io::Table::num(cycling_rmse(c, cycles), 3)});
    }
    t.print();
  }
  {
    std::cout << "\nScore kernel bandwidth (raw Eq. 16 = 0):\n";
    io::Table t({"kappa", "RMSE"});
    for (double k : {0.0, 0.1, 0.3, 0.6, 1.0}) {
      da::EnsfConfig c = base;
      c.kernel_bandwidth = k;
      t.add_row({io::Table::num(k, 1), io::Table::num(cycling_rmse(c, cycles), 3)});
    }
    t.print();
  }
  {
    std::cout << "\nReverse-SDE Euler steps:\n";
    io::Table t({"steps", "RMSE"});
    for (int s : {20, 50, 100, 200}) {
      da::EnsfConfig c = base;
      c.euler_steps = s;
      t.add_row({std::to_string(s), io::Table::num(cycling_rmse(c, cycles), 3)});
    }
    t.print();
  }
  {
    std::cout << "\nScore minibatch J (Eq. 15; 0 = full ensemble):\n";
    io::Table t({"J", "RMSE"});
    for (int j : {0, 5, 10, 20}) {
      da::EnsfConfig c = base;
      c.minibatch = j;
      t.add_row({std::to_string(j), io::Table::num(cycling_rmse(c, cycles), 3)});
    }
    t.print();
  }
  {
    std::cout << "\nSpread relaxation to prior (paper: \"simply relaxed to the prior "
                 "values\"):\n";
    io::Table t({"relax", "RMSE"});
    for (double rs : {0.0, 0.5, 1.0}) {
      da::EnsfConfig c = base;
      c.relax_spread = rs;
      t.add_row({io::Table::num(rs, 1), io::Table::num(cycling_rmse(c, cycles), 3)});
    }
    t.print();
  }
  std::cout << "\nKey finding (README, \"EnSF analysis\"): with 20 isolated members and\n"
               "moderately informative observations, the raw Eq.-16 score barely contracts;\n"
               "kernel smoothing + likelihood strengthening restore the paper's stable\n"
               "tracking without localization or per-problem tuning.\n";
  return deterministic ? 0 : 1;
}
