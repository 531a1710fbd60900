// Quickstart: assimilate observations of a chaotic Lorenz-96 system with the
// Ensemble Score Filter in ~50 lines.
//
//   build/examples/quickstart [--cycles=30] [--members=20] [--seed=42]
#include <iostream>

#include "da/ensf.hpp"
#include "io/args.hpp"
#include "models/lorenz96.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

using namespace turbda;

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout << "quickstart: EnSF assimilation of a 40-variable Lorenz-96 OSSE\n"
                 "  --cycles=<int>   assimilation cycles (default 30)\n"
                 "  --members=<int>  ensemble size (default 20)\n"
                 "  --seed=<int>     experiment seed (default 42)\n"
                 "  --threads=<int>  analysis + member-forecast worker threads\n"
                 "                   (0 = all hardware threads, 1 = serial;\n"
                 "                   results are bitwise identical for any value)\n";
    return 0;
  }

  // 1. A forecast model: 40-variable Lorenz-96, observed every 0.1 time units.
  models::Lorenz96Config mc;
  mc.dim = 40;
  mc.steps_per_window = 10;
  models::Lorenz96 truth_model(mc), forecast_model(mc);

  // 2. Observations: every variable, with unit error variance.
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);

  // 3. The filter: EnSF in its stabilized configuration — no localization,
  //    no inflation tuning.
  da::EnsfConfig fc = da::EnsfConfig::stabilized();
  fc.n_threads = static_cast<std::size_t>(args.get_int("threads", 0));
  da::EnSF filter(fc);

  // 4. An OSSE: truth run + synthetic obs + 20-member ensemble cycling.
  stream::RealtimeConfig rc;
  rc.cycles = static_cast<int>(args.get_int("cycles", 30));
  rc.n_members = static_cast<std::size_t>(args.get_int("members", 20));
  rc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  rc.n_forecast_threads = static_cast<std::size_t>(args.get_int("threads", 0));

  // Spin the truth onto the attractor.
  std::vector<double> truth0(mc.dim, mc.forcing);
  truth0[0] += 0.01;
  models::Lorenz96 spin(mc);
  for (int i = 0; i < 500; ++i) spin.step(truth0);

  // 5. Cycle: a zero-latency synthetic stream (sharing the run's seed) feeds
  //    the serial real-time runner.
  stream::SyntheticStream obs({.seed = rc.seed}, truth_model, h, r, truth0);
  stream::RealtimeRunner runner(rc, obs, forecast_model, &filter);
  const auto metrics = runner.run(truth0);

  std::cout << "cycle  prior RMSE  analysis RMSE  spread\n";
  for (const auto& m : metrics) {
    if (m.cycle % 5 == 0 || m.cycle == rc.cycles - 1)
      std::cout << m.cycle << "\t" << m.rmse_prior << "\t" << m.rmse_post << "\t"
                << m.spread_post << "\n";
  }
  std::cout << "\nThe analysis should track near the observation-error level (~1.0)\n"
               "while an unassimilated run saturates near the climatological spread (~6).\n";
  return 0;
}
