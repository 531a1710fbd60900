// Real-time cycling throughput bench: the SQG OSSE driven as a stream with
// per-cycle deadlines, comparing the serial schedule against the overlapped
// forecast/analysis pipeline, with and without emulated delivery latency.
//
// The observing network is the sparse strided grid (every --stride-th point
// per level) assimilated by the paper-tuned LETKF. Observation *content* is
// identical across scenarios (Philox substreams keyed per cycle); only the
// delivery schedule changes, so RMSE differences are attributable to
// delivery alone.
//
//   build/bench_stream_realtime [--n=128] [--members=20] [--cycles=4]
//                               [--stride=4] [--threads=0] [--seed=2024]
//                               [--latency=0.5] [--wall-ms=<auto>]
//                               [--json=BENCH_stream.json] [--smoke]
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "da/letkf.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "models/scaled_forecast.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

using namespace turbda;

namespace {

struct ScenarioResult {
  std::string name;
  stream::Schedule schedule = stream::Schedule::Serial;
  int depth = 1;  ///< overlap depth K (pending-analysis ring size)
  double latency = 0.0;
  double cycle_ms = 0.0;     ///< mean wall per cycle
  double forecast_ms = 0.0;  ///< mean forecast span per cycle
  double analysis_ms = 0.0;  ///< mean analysis span per cycle
  double cycles_per_s = 0.0;
  int misses = 0;
  int assimilated = 0;
  int late_applied = 0;  ///< batches admitted past max_stale (deep catch-up)
  /// Mean wall per cycle over the cycles that absorbed a late increment —
  /// what deep-overlap catch-up costs where it actually happens (empty when
  /// no cycle applied late batches).
  std::optional<double> ingest_catchup_ms;
  double rmse = 0.0;
  da::LetkfTimings phases;  ///< LETKF per-phase breakdown for this scenario
};

struct Testbed {
  std::shared_ptr<sqg::SqgModel> model;
  double kelvin = 1.0;
  std::vector<double> truth0_k;  ///< spun-up truth, Kelvin units
  std::size_t n = 0;

  Testbed(std::size_t n_, double spinup_days, std::uint64_t seed) : n(n_) {
    sqg::SqgConfig mc;
    mc.n = n;
    mc.dt = (n <= 32) ? 1800.0 : 900.0;
    mc.t_diab = 2.0 * 86400.0;
    mc.r_ekman = 200.0;
    mc.diff_efold = 3.0 * 3600.0;
    model = std::make_shared<sqg::SqgModel>(mc);
    kelvin = models::sqg_kelvin_scale(300.0, mc.f);

    rng::Rng rng(seed);
    std::vector<double> raw(model->dim());
    model->random_init(raw, rng, 2.0 / kelvin, 4);
    model->advance(raw, spinup_days * 86400.0);
    truth0_k.resize(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) truth0_k[i] = raw[i] * kelvin;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout
        << "bench_stream_realtime: serial vs overlapped cycling throughput on the SQG OSSE\n"
           "  --n=<int>        grid size (default 128; --smoke: 32)\n"
           "  --members=<int>  ensemble size (default 20; --smoke: 8)\n"
           "  --cycles=<int>   timed assimilation windows per scenario (default 5)\n"
           "  --stride=<int>   observing network: every stride-th grid point\n"
           "                   (default 8; --smoke: 4)\n"
           "  --threads=<int>  LETKF + member-forecast workers (0 = all; bitwise identical)\n"
           "  --seed=<int>     experiment seed (default 2024)\n"
           "  --latency=<f>    delivery latency of the degraded scenarios, in window\n"
           "                   units (default 0.5; deadline slack matches it)\n"
           "  --wall-ms=<f>    wall-clock milliseconds per window for the latency\n"
           "                   emulation (default: 2x the measured forecast phase — the\n"
           "                   operational cadence is set by forecast compute — so the\n"
           "                   default latency of 0.5 delays delivery by one forecast)\n"
           "  --json=<path>    machine-readable output (default BENCH_stream.json)\n"
           "  --smoke          small fast configuration for CI\n";
    return 0;
  }
  const bool smoke = args.flag("smoke");
  const auto n = static_cast<std::size_t>(args.get_int("n", smoke ? 32 : 128));
  const auto members = static_cast<std::size_t>(args.get_int("members", smoke ? 8 : 20));
  const int cycles = static_cast<int>(args.get_int("cycles", 5));
  const auto stride = static_cast<std::size_t>(args.get_int("stride", smoke ? 4 : 8));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 0));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  const double latency = args.get_double("latency", 0.5);
  const std::string json_path = args.get_str("json", "BENCH_stream.json");

  Testbed tb(n, smoke ? 2.0 : 5.0, seed);

  const auto h = da::SubsampleObs::strided_grid(n, n, 2, stride);
  da::DiagonalR r(h.obs_dim(), 1.0);

  da::LetkfConfig lc;
  lc.nx = n;
  lc.ny = n;
  lc.n_levels = 2;
  lc.domain_m = tb.model->config().L;
  lc.cutoff_m = 2.0e6;
  lc.rtps = 0.3;
  lc.rossby_radius_m =
      std::sqrt(tb.model->config().nsq) * tb.model->config().H / tb.model->config().f;
  lc.n_threads = threads;
  lc.collect_timings = true;  // per-phase breakdown for the "phases" export

  const double window_hours = 3.0;

  auto run_scenario = [&](stream::Schedule schedule, double lat, double wall_ms,
                          const std::string& name, int depth = 1, double jitter = 0.0) {
    sqg::SqgForecast truth_raw(tb.model, window_hours * 3600.0);
    sqg::SqgForecast fcst_raw(tb.model, window_hours * 3600.0);
    models::ScaledForecast truth_model(truth_raw, tb.kelvin);
    models::ScaledForecast fcst_model(fcst_raw, tb.kelvin);
    da::LETKF filter(lc);

    stream::SyntheticStreamConfig sc;
    sc.seed = seed;
    sc.latency_cycles = lat;
    sc.jitter_cycles = jitter;
    stream::SyntheticStream s(sc, truth_model, h, r, tb.truth0_k);

    stream::RealtimeConfig rc;
    rc.n_members = members;
    rc.cycles = cycles;
    rc.window_hours = window_hours;
    rc.init_spread = 1.5;
    rc.seed = seed;
    rc.n_forecast_threads = threads;
    rc.schedule = schedule;
    rc.overlap_depth = depth;
    // Single-buffer rows: delivery is late but within the grace window. The
    // deep row keeps the operational tight deadline — its deliveries are
    // genuinely stale and only the K > 1 ring can still absorb them.
    rc.deadline_slack_cycles = depth > 1 ? 0.25 : lat;
    rc.wall_ms_per_cycle = wall_ms;

    stream::RealtimeRunner runner(rc, s, fcst_model, &filter);
    const auto t0 = std::chrono::steady_clock::now();
    const auto metrics = runner.run(tb.truth0_k);
    // End-to-end wall time: includes the overlapped schedule's prologue
    // forecast, so the two schedules are compared on identical total work.
    const double total_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();

    ScenarioResult res;
    res.name = name;
    res.schedule = schedule;
    res.depth = depth;
    res.latency = lat;
    double catchup_sum = 0.0;
    int catchup_n = 0;
    for (const auto& m : metrics) {
      res.forecast_ms += m.forecast_ms / static_cast<double>(metrics.size());
      res.analysis_ms += m.analysis_ms / static_cast<double>(metrics.size());
      res.assimilated += m.batches_assimilated;
      res.late_applied += m.late_applied;
      if (m.late_applied > 0) {
        catchup_sum += m.cycle_ms;
        ++catchup_n;
      }
    }
    if (catchup_n > 0) res.ingest_catchup_ms = catchup_sum / static_cast<double>(catchup_n);
    res.cycle_ms = total_ms / static_cast<double>(metrics.size());
    res.cycles_per_s = 1000.0 / res.cycle_ms;
    res.misses = stream::count_deadline_misses(metrics);
    res.rmse = stream::mean_rmse_post(metrics, 0);
    res.phases = filter.timings();
    return res;
  };

  std::cout << "=== Real-time cycling throughput: SQG " << n << "^2, " << members
            << " members, LETKF on a 1/" << stride * stride << " observing network, "
            << cycles << " cycles per scenario ===\n\n";

  // Compute-only pair: pure pipeline overlap, no delivery delay.
  std::vector<ScenarioResult> results;
  results.push_back(
      run_scenario(stream::Schedule::Serial, 0.0, 0.0, "instant, serial"));
  results.push_back(
      run_scenario(stream::Schedule::Overlapped, 0.0, 0.0, "instant, overlapped"));

  // Latency pair: delivery lags the window by `latency` windows of wall
  // time; the serial schedule stalls on it, the pipeline forecasts through
  // it. Default wall cadence: 2x the measured forecast phase (operationally
  // the window budget tracks forecast compute), so the default latency of
  // 0.5 windows delays delivery by one forecast phase — the largest delay
  // the single-buffer pipeline can hide completely.
  const double wall_cadence = args.get_double("wall-ms", 2.0 * results[0].forecast_ms);
  results.push_back(run_scenario(stream::Schedule::Serial, latency, wall_cadence,
                                 "late obs, serial"));
  results.push_back(run_scenario(stream::Schedule::Overlapped, latency, wall_cadence,
                                 "late obs, overlapped"));

  // Deep-overlap catch-up: deliveries a full cycle past max_stale (age 3
  // with the default max_stale_cycles = 2), which a single-buffer pipeline
  // must drop; the K = 2 ring admits them as down-weighted late increments.
  // No wall emulation — the virtual arrival stamps drive admission, and
  // cycle_ms then isolates what absorbing the stragglers costs in compute.
  results.push_back(run_scenario(stream::Schedule::Overlapped, 2.6, 0.0,
                                 "very late obs, overlapped K=2", /*depth=*/2,
                                 /*jitter=*/0.3));

  io::Table t({"scenario", "cycle [ms]", "fcst [ms]", "analysis [ms]", "cycles/s",
               "deadline misses", "batches", "late", "catch-up [ms]", "RMSE [K]"});
  for (const auto& s : results) {
    t.add_row({s.name, io::Table::num(s.cycle_ms, 1), io::Table::num(s.forecast_ms, 1),
               io::Table::num(s.analysis_ms, 1), io::Table::num(s.cycles_per_s, 3),
               std::to_string(s.misses), std::to_string(s.assimilated),
               std::to_string(s.late_applied),
               s.ingest_catchup_ms ? io::Table::num(*s.ingest_catchup_ms, 1) : "n/a",
               io::Table::num(s.rmse, 3)});
  }
  t.print();

  const double speedup_compute = results[0].cycle_ms / results[1].cycle_ms;
  const double speedup_latency = results[2].cycle_ms / results[3].cycle_ms;
  std::cout << "\nOverlapped pipeline speedup, instant delivery (pure compute overlap): "
            << io::Table::num(speedup_compute, 2) << "x\n"
            << "Overlapped pipeline speedup, late observations (delay "
            << io::Table::num(latency * wall_cadence, 0) << " ms/window hidden): "
            << io::Table::num(speedup_latency, 2) << "x  (target >= 1.3x)\n"
            << "(compute overlap grows with cores; latency hiding holds on any machine)\n";

  // Aggregate LETKF phase breakdown across scenarios — the telemetry-derived
  // table bench_guard.py prints into the CI job summary.
  da::LetkfTimings ph;
  for (const auto& s : results) {
    ph.plan_ms += s.phases.plan_ms;
    ph.select_ms += s.phases.select_ms;
    ph.gather_ms += s.phases.gather_ms;
    ph.gram_ms += s.phases.gram_ms;
    ph.eigh_ms += s.phases.eigh_ms;
    ph.weights_ms += s.phases.weights_ms;
    ph.combine_ms += s.phases.combine_ms;
    ph.total_ms += s.phases.total_ms;
    ph.analyses += s.phases.analyses;
  }

  std::ofstream js(json_path);
  js << "{\n  \"bench\": \"stream_realtime\",\n  \"n\": " << n
     << ",\n  \"members\": " << members << ",\n  \"cycles\": " << cycles
     << ",\n  \"obs_stride\": " << stride << ",\n  \"wall_ms_per_cycle\": " << wall_cadence
     << ",\n  \"speedup_compute\": " << speedup_compute
     << ",\n  \"speedup_latency\": " << speedup_latency << ",\n  \"phases\": {"
     << "\"plan_ms\": " << ph.plan_ms << ", \"select_ms\": " << ph.select_ms
     << ", \"gather_ms\": " << ph.gather_ms << ", \"gram_ms\": " << ph.gram_ms
     << ", \"eigh_ms\": " << ph.eigh_ms << ", \"weights_ms\": " << ph.weights_ms
     << ", \"combine_ms\": " << ph.combine_ms << ", \"total_ms\": " << ph.total_ms
     << ", \"analyses\": " << ph.analyses << "},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& s = results[i];
    js << "    {\"name\": \"" << s.name << "\", \"schedule\": \""
       << (s.schedule == stream::Schedule::Serial ? "serial" : "overlapped") << "\", \"n\": " << n
       << ", \"members\": " << members
       << ", \"latency_cycles\": " << s.latency << ", \"cycle_ms\": " << s.cycle_ms
       << ", \"forecast_ms\": " << s.forecast_ms << ", \"analysis_ms\": " << s.analysis_ms
       << ", \"cycles_per_s\": " << s.cycles_per_s << ", \"deadline_misses\": " << s.misses
       << ", \"batches_assimilated\": " << s.assimilated
       << ", \"overlap_depth\": " << s.depth << ", \"late_applied\": " << s.late_applied
       << ", \"ingest_catchup_ms\": ";
    if (s.ingest_catchup_ms)
      js << *s.ingest_catchup_ms;
    else
      js << "null";
    js << ", \"rmse\": " << s.rmse << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "Machine-readable results written to " << json_path << ".\n";
  return 0;
}
