// Fig. 4 reproduction: RMSE over assimilation cycles for the four
// configurations of the paper's accuracy test —
//   SQG only / ViT only / SQG+LETKF / ViT+EnSF —
// on the SQG OSSE with identity observations, R = I (Kelvin units), 20
// members, and the four-component stochastic model-error process.
//
// Defaults run a 32^2 grid and 40 cycles so the bench finishes in minutes on
// one CPU core; pass --full for the paper's 64^2 / 300-cycle setting.
#include <iostream>

#include "bench/../bench/sqg_experiment.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

using namespace turbda;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout << "bench_fig4_rmse_four_methods: Fig. 4 RMSE of SQG only / ViT only / SQG+LETKF /\n"
                 "ViT+EnSF on the SQG OSSE; writes fig4_rmse.csv in the cwd\n"
                 "  --full           the paper's setting: 64^2 grid, 300 cycles\n"
                 "  --n=<int>        SQG grid size (default 32; overrides --full)\n"
                 "  --cycles=<int>   assimilation cycles (default 40; overrides --full)\n"
                 "  --clim-init      draw the initial members from the climatology\n"
                 "                   (default: truth + 1.5 K perturbations)\n"
                 "  --forecast-threads=<int>  member-parallel SQG forecasts\n"
                 "                   (0 = all, 1 = serial; bitwise identical)\n";
    return 0;
  }
  bench::SqgExperimentConfig cfg;
  if (args.flag("full")) {
    cfg.n = 64;
    cfg.cycles = 300;
  }
  cfg.n = static_cast<std::size_t>(args.get_int("n", static_cast<long>(cfg.n)));
  cfg.cycles = static_cast<int>(args.get_int("cycles", cfg.cycles));
  cfg.clim_init = args.flag("clim-init");
  // Member-parallel SQG forecasts (0 = all pool workers, 1 = serial);
  // bitwise identical for any value.
  cfg.forecast_threads = static_cast<std::size_t>(args.get_int("forecast-threads", 0));

  std::cout << "=== Fig. 4: RMSE of the four test cases (SQG " << cfg.n << "x" << cfg.n
            << "x2, " << cfg.cycles << " cycles, 12 h windows, R = I, 20 members) ===\n";
  std::cout << "Building SQG truth, climatology and pretrained ViT surrogate...\n";
  bench::SqgExperiment exp(cfg);
  std::cout << "Climatological state magnitude: " << io::Table::num(exp.clim_rms, 2)
            << " K (model-error amplitudes are 20-50% of this, firing 20/15/10/5% of "
               "windows)\n";

  std::vector<double> losses;
  auto vit_a = exp.train_surrogate(&losses);
  auto vit_b = exp.train_surrogate(nullptr);
  std::cout << "ViT pretraining loss: " << io::Table::sci(losses.front(), 2) << " -> "
            << io::Table::sci(losses.back(), 2) << " over " << losses.size() << " epochs\n\n";

  // --- the four configurations ---------------------------------------------
  const auto sqg_only = exp.run(nullptr, nullptr);
  const auto vit_only = exp.run(nullptr, vit_a.get());
  da::LETKF letkf(exp.letkf_config());
  const auto sqg_letkf = exp.run(&letkf, nullptr);
  da::EnSF ensf(da::EnsfConfig::stabilized());
  const auto vit_ensf = exp.run(&ensf, vit_b.get());

  io::Table t({"t [h]", "SQG only", "ViT only", "SQG+LETKF", "ViT+EnSF"});
  const int stride = std::max(1, cfg.cycles / 20);
  io::CsvWriter csv("fig4_rmse.csv", {"time_hours", "sqg_only", "vit_only", "sqg_letkf",
                                      "vit_ensf"});
  for (int k = 0; k < cfg.cycles; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    csv.row({sqg_only[ku].time_hours, sqg_only[ku].rmse_post, vit_only[ku].rmse_post,
             sqg_letkf[ku].rmse_post, vit_ensf[ku].rmse_post});
    if (k % stride == 0 || k == cfg.cycles - 1) {
      t.add_row({io::Table::num(sqg_only[ku].time_hours, 0),
                 io::Table::num(sqg_only[ku].rmse_post, 2),
                 io::Table::num(vit_only[ku].rmse_post, 2),
                 io::Table::num(sqg_letkf[ku].rmse_post, 2),
                 io::Table::num(vit_ensf[ku].rmse_post, 2)});
    }
  }
  t.print();

  auto late_mean = [&](const std::vector<stream::StreamCycleMetrics>& m) {
    double s = 0.0;
    const int k0 = (3 * cfg.cycles) / 4;
    for (int k = k0; k < cfg.cycles; ++k) s += m[static_cast<std::size_t>(k)].rmse_post;
    return s / (cfg.cycles - k0);
  };
  std::cout << "\nMean RMSE over the last quarter of the run:\n";
  io::Table s({"configuration", "RMSE [K]"});
  s.add_row({"SQG only", io::Table::num(late_mean(sqg_only), 2)});
  s.add_row({"ViT only", io::Table::num(late_mean(vit_only), 2)});
  s.add_row({"SQG+LETKF", io::Table::num(late_mean(sqg_letkf), 2)});
  s.add_row({"ViT+EnSF", io::Table::num(late_mean(vit_ensf), 2)});
  s.print();
  std::cout << "\nPaper shape checks: free runs (SQG only / ViT only) grow fast; LETKF\n"
               "degrades as the (spread-invisible) model errors accumulate; ViT+EnSF stays\n"
               "stable near the observation-noise floor throughout. Full series in\n"
               "fig4_rmse.csv.\n";
  return 0;
}
