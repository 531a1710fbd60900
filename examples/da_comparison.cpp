// Filter shoot-out on the SQG testbed: EnSF vs LETKF vs global ETKF vs no
// assimilation, with and without the paper's imperfect-model error process.
//
//   build/examples/da_comparison [--cycles=20] [--n=32]
#include <iostream>

#include "bench/sqg_experiment.hpp"
#include "da/etkf.hpp"
#include "io/args.hpp"
#include "io/table.hpp"

using namespace turbda;

constexpr char kUsage[] =
    "da_comparison: EnSF vs LETKF vs global ETKF vs free run on the SQG OSSE\n"
    "  --n=<int>        SQG grid size (default 32)\n"
    "  --cycles=<int>   assimilation cycles (default 20)\n"
    "  --threads=<int>  analysis worker threads for EnSF/LETKF;\n"
    "                   0 = all hardware threads (default 0),\n"
    "                   results are bitwise identical for any value\n"
    "  --forecast-threads=<int>  member-parallel SQG forecasts\n"
    "                   (0 = all, 1 = serial; bitwise identical)\n"
    "  --seed=<int>     experiment seed (default 2024)\n";

int main(int argc, char** argv) {
  const io::Args args(argc, argv, kUsage);
  bench::SqgExperimentConfig cfg;
  cfg.n = static_cast<std::size_t>(args.get_int("n", 32));
  cfg.cycles = static_cast<int>(args.get_int("cycles", 20));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  cfg.forecast_threads = static_cast<std::size_t>(args.get_int("forecast-threads", 0));
  const auto n_threads = static_cast<std::size_t>(args.get_int("threads", 0));

  std::cout << "Filter comparison on the SQG OSSE (" << cfg.n << "^2 grid, " << cfg.cycles
            << " cycles, identity obs, R = I, 20 members, imperfect physics model)\n\n";
  bench::SqgExperiment exp(cfg);

  auto late = [&](const std::vector<stream::StreamCycleMetrics>& m) {
    double s = 0.0;
    const int k0 = (2 * cfg.cycles) / 3;
    for (int k = k0; k < cfg.cycles; ++k) s += m[static_cast<std::size_t>(k)].rmse_post;
    return s / (cfg.cycles - k0);
  };

  io::Table t({"filter", "late RMSE [K]", "notes"});

  t.add_row({"none (free run)", io::Table::num(late(exp.run(nullptr, nullptr)), 2),
             "saturates at climatology"});

  da::EnsfConfig ensf_cfg = da::EnsfConfig::stabilized();
  ensf_cfg.n_threads = n_threads;
  da::EnSF ensf(ensf_cfg);
  t.add_row({"EnSF", io::Table::num(late(exp.run(&ensf, nullptr)), 2),
             "no localization, no tuning"});

  da::LetkfConfig letkf_cfg = exp.letkf_config();
  letkf_cfg.n_threads = n_threads;
  da::LETKF letkf(letkf_cfg);
  t.add_row({"LETKF (2000 km, RTPS 0.3)", io::Table::num(late(exp.run(&letkf, nullptr)), 2),
             "paper-tuned"});

  da::EtkfConfig ecfg;
  ecfg.rtps = 0.3;
  da::ETKF etkf(ecfg);
  t.add_row({"global ETKF (no localization)", io::Table::num(late(exp.run(&etkf, nullptr)), 2),
             "why LETKF localizes"});

  t.print();
  std::cout << "\nExpected ordering: free run worst; global ETKF degraded by sampling noise\n"
               "(20 members, " << exp.model->dim() << " dims); LETKF good; EnSF comparable or "
               "better without any tuning.\n";
  return 0;
}
