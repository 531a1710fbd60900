// Real-time streaming subsystem tests:
//  - the hard invariant that the serial RealtimeRunner on a zero-latency
//    SyntheticStream (the offline OSSE) reproduces the historical in-line
//    OSSE loop bitwise;
//  - the post-analysis hook contract, checked on every run: one call per
//    cycle, in order, with the mean that rmse_post scores;
//  - deterministic degraded-delivery scenarios (latency, jitter, dropout,
//    catch-up, staleness) with bitwise repeatability across thread counts
//    and ring depths;
//  - the sparse strided-grid observation network.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bitwise_equal.hpp"
#include "da/ensf.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "models/lorenz96.hpp"
#include "models/model_error.hpp"
#include "rng/rng.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace turbda {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;

// --------------------------------------------------------------- fixture ---

constexpr std::size_t kDim = 40;

std::vector<double> spun_up_truth(std::uint64_t bump = 0) {
  Lorenz96Config mc;
  mc.dim = kDim;
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01 + 1e-6 * static_cast<double>(bump);
  Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);
  return truth0;
}

struct RunResult {
  std::vector<stream::StreamCycleMetrics> metrics;
  da::Ensemble ens{2, kDim};
  std::vector<double> truth;  ///< the stream's final truth
};

/// Runs RealtimeRunner on a Lorenz-96 truth with the given delivery and
/// schedule knobs. `use_filter == false` gives the free run. Every run also
/// checks the post-analysis hook contract the cycle benchmark's
/// analysis_rmse_K rests on: the hook fires once per cycle, in cycle order,
/// and the RMSE of each hooked mean against that cycle's truth is the
/// cycle's rmse_post, bit for bit.
RunResult run_realtime(stream::SyntheticStreamConfig sc, stream::RealtimeConfig rc,
                       bool use_filter = true, bool model_error = false) {
  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  da::ETKF filter(da::EtkfConfig{.rtps = 0.4});
  models::ModelErrorProcess me(models::ModelErrorConfig{.reference_scale = 1.0});

  const auto truth0 = spun_up_truth();
  stream::SyntheticStream s(sc, truth_model, h, r, truth0);
  rc.inject_model_error = model_error;
  stream::RealtimeRunner runner(rc, s, fcst_model, use_filter ? &filter : nullptr,
                                model_error ? &me : nullptr);
  std::vector<int> hooked_cycles;
  std::vector<double> hooked_rmse;
  runner.set_post_analysis_hook([&](int k, std::span<const double> mean) {
    hooked_cycles.push_back(k);
    hooked_rmse.push_back(da::rmse(mean, s.truth(k)));  // rmse_vs_truth's sum
  });
  RunResult out;
  out.metrics = runner.run(truth0);
  out.ens = runner.ensemble();
  out.truth = s.latest_truth();

  std::vector<int> every_cycle(static_cast<std::size_t>(rc.cycles));
  std::iota(every_cycle.begin(), every_cycle.end(), 0);
  EXPECT_EQ(hooked_cycles, every_cycle);
  for (std::size_t k = 0; k < hooked_rmse.size() && k < out.metrics.size(); ++k)
    EXPECT_EQ(hooked_rmse[k], out.metrics[k].rmse_post) << "cycle " << k;
  return out;
}

// ------------------------------------- OSSE bitwise-reproduction invariant ---

/// Verbatim replica of the historical in-line OSSE loop (the pre-streaming
/// implementation). The serial RealtimeRunner on a zero-latency stream must
/// reproduce it bitwise forever; a drift here means the one cycling code
/// path changed the paper's offline numbers.
std::vector<stream::StreamCycleMetrics> legacy_osse_run(
    const stream::RealtimeConfig& cfg, models::ForecastModel& truth_model,
    models::ForecastModel& forecast_model, const da::ObservationOperator& h,
    const da::DiagonalR& r, da::Filter* filter, const models::ModelErrorProcess* model_error,
    std::span<const double> truth0, da::Ensemble* final_ens, std::vector<double>* final_truth) {
  const std::size_t d = truth_model.dim();
  rng::Rng root(cfg.seed);
  rng::Rng rng_init = root.substream(0);
  rng::Rng rng_obs = root.substream(1);
  rng::Rng rng_modelerr = root.substream(2);

  std::vector<double> truth(truth0.begin(), truth0.end());
  da::Ensemble ens(cfg.n_members, d);
  ens.init_perturbed(truth0, cfg.init_spread, rng_init);

  std::vector<double> y(h.obs_dim());
  std::vector<stream::StreamCycleMetrics> metrics;
  for (int k = 0; k < cfg.cycles; ++k) {
    truth_model.forecast(truth);
    std::vector<double> shared_err;
    if (cfg.inject_model_error && cfg.model_error_shared) {
      rng::Rng r_me = rng_modelerr.substream(static_cast<std::uint64_t>(k));
      shared_err = model_error->sample(d, r_me);
    }
    for (std::size_t m = 0; m < cfg.n_members; ++m) {
      forecast_model.forecast(ens.member(m));
      if (cfg.inject_model_error) {
        if (cfg.model_error_shared) {
          auto row = ens.member(m);
          for (std::size_t i = 0; i < d; ++i) row[i] += shared_err[i];
        } else {
          rng::Rng r_me = rng_modelerr.substream(
              static_cast<std::uint64_t>(k) * cfg.n_members + m + 1000000);
          model_error->apply(ens.member(m), r_me);
        }
      }
    }
    stream::StreamCycleMetrics cm;
    cm.cycle = k;
    cm.time_hours = (k + 1) * cfg.window_hours;
    cm.rmse_prior = da::rmse_vs_truth(ens, truth);
    cm.spread_prior = ens.mean_spread();
    if (filter != nullptr) {
      h.apply(truth, y);
      rng::Rng r_obs = rng_obs.substream(static_cast<std::uint64_t>(k));
      r.perturb(y, r_obs);
      filter->analyze(ens, y, h, r);
    }
    cm.rmse_post = da::rmse_vs_truth(ens, truth);
    cm.spread_post = ens.mean_spread();
    metrics.push_back(cm);
  }
  if (final_ens) *final_ens = ens;
  if (final_truth) *final_truth = truth;
  return metrics;
}

void expect_osse_matches_legacy(bool use_filter, bool model_error, bool shared) {
  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  models::ModelErrorProcess me(models::ModelErrorConfig{.reference_scale = 1.0});

  stream::RealtimeConfig cfg;  // Serial schedule
  cfg.cycles = 8;
  cfg.n_members = 8;
  cfg.seed = 4242;
  cfg.inject_model_error = model_error;
  cfg.model_error_shared = shared;
  cfg.n_forecast_threads = 1;

  const auto truth0 = spun_up_truth();

  Lorenz96 truth_a(mc), fcst_a(mc);
  da::ETKF filter_a(da::EtkfConfig{.rtps = 0.4});
  da::Ensemble legacy_ens(cfg.n_members, mc.dim);
  std::vector<double> legacy_truth;
  const auto legacy =
      legacy_osse_run(cfg, truth_a, fcst_a, h, r, use_filter ? &filter_a : nullptr,
                      model_error ? &me : nullptr, truth0, &legacy_ens, &legacy_truth);

  // run_realtime builds the same models, filter and model error.
  const auto run = run_realtime({.seed = cfg.seed}, cfg, use_filter, model_error);
  const auto& got = run.metrics;

  ASSERT_EQ(got.size(), legacy.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].rmse_prior, legacy[k].rmse_prior) << "cycle " << k;
    EXPECT_EQ(got[k].rmse_post, legacy[k].rmse_post) << "cycle " << k;
    EXPECT_EQ(got[k].spread_prior, legacy[k].spread_prior) << "cycle " << k;
    EXPECT_EQ(got[k].spread_post, legacy[k].spread_post) << "cycle " << k;
    EXPECT_EQ(got[k].time_hours, legacy[k].time_hours) << "cycle " << k;
  }
  expect_bitwise_equal(run.ens, legacy_ens);
  ASSERT_EQ(run.truth.size(), legacy_truth.size());
  EXPECT_EQ(0, std::memcmp(run.truth.data(), legacy_truth.data(),
                           legacy_truth.size() * sizeof(double)));
}

TEST(StreamOsse, ZeroLatencyReproducesLegacyLoopBitwise) {
  expect_osse_matches_legacy(/*use_filter=*/true, /*model_error=*/false, /*shared=*/true);
}

TEST(StreamOsse, ZeroLatencyReproducesLegacyLoopWithSharedModelError) {
  expect_osse_matches_legacy(true, true, true);
}

TEST(StreamOsse, ZeroLatencyReproducesLegacyLoopWithPerMemberModelError) {
  expect_osse_matches_legacy(true, true, false);
}

TEST(StreamOsse, FreeRunReproducesLegacyLoopBitwise) {
  expect_osse_matches_legacy(/*use_filter=*/false, false, true);
}

// ------------------------------------------------ delivery-schedule tests ---

stream::RealtimeConfig base_config(int cycles = 12) {
  stream::RealtimeConfig rc;
  rc.n_members = 8;
  rc.cycles = cycles;
  rc.window_hours = 1.0;
  rc.init_spread = 1.0;
  rc.seed = 777;
  return rc;
}

TEST(Stream, SyntheticDeliveryScheduleIsSeedDeterministic) {
  Lorenz96Config mc;
  mc.dim = kDim;
  Lorenz96 truth_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  const auto truth0 = spun_up_truth();

  stream::SyntheticStreamConfig sc;
  sc.seed = 99;
  sc.latency_cycles = 0.2;
  sc.jitter_cycles = 1.5;
  sc.dropout_prob = 0.3;

  auto arrivals = [&](const stream::SyntheticStreamConfig& c) {
    Lorenz96 tm(mc);
    stream::SyntheticStream s(c, tm, h, r, truth0);
    for (int k = 0; k < 20; ++k) s.produce(k);
    std::vector<stream::ObsBatch> got;
    s.collect(1e9, got);
    return got;
  };
  const auto a = arrivals(sc);
  const auto b = arrivals(sc);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_LT(a.size(), 20u);  // some dropouts at p = 0.3
  EXPECT_GT(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].arrival_cycles, b[i].arrival_cycles);
    EXPECT_EQ(0, std::memcmp(a[i].y.data(), b[i].y.data(), a[i].y.size() * sizeof(double)));
  }

  // The delivery knobs must not shift the observation values themselves.
  stream::SyntheticStreamConfig in_order = sc;
  in_order.latency_cycles = 0.0;
  in_order.jitter_cycles = 0.0;
  in_order.dropout_prob = 0.0;
  const auto c = arrivals(in_order);
  ASSERT_EQ(c.size(), 20u);
  for (const auto& batch : a) {
    const auto& ref = c[static_cast<std::size_t>(batch.cycle)];
    EXPECT_EQ(0,
              std::memcmp(batch.y.data(), ref.y.data(), batch.y.size() * sizeof(double)));
  }
}

TEST(Stream, FullDropoutFallsBackToForecastOnly) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 777;
  sc.dropout_prob = 1.0;
  auto degraded = run_realtime(sc, base_config());

  stream::SyntheticStreamConfig clean;
  clean.seed = 777;
  auto free_run = run_realtime(clean, base_config(), /*use_filter=*/false);

  for (const auto& m : degraded.metrics) {
    EXPECT_EQ(m.batches_assimilated, 0);
    EXPECT_TRUE(m.deadline_miss);
    EXPECT_EQ(m.rmse_prior, m.rmse_post);
  }
  // With every batch lost the "assimilating" run IS the free run, bitwise.
  expect_bitwise_equal(degraded.ens, free_run.ens);
  EXPECT_EQ(stream::count_deadline_misses(degraded.metrics), base_config().cycles);
}

TEST(Stream, LateBatchesCatchUpAtTheNextCycle) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 777;
  sc.latency_cycles = 0.5;  // misses the slack-0 deadline by half a window

  stream::RealtimeConfig rc = base_config();
  rc.deadline_slack_cycles = 0.0;
  auto res = run_realtime(sc, rc);

  // Every cycle misses its own deadline, but each straggler is assimilated
  // one cycle later (age 1); the last cycle's own batch never lands.
  int assimilated = 0;
  for (const auto& m : res.metrics) {
    EXPECT_TRUE(m.deadline_miss) << "cycle " << m.cycle;
    if (m.cycle > 0) {
      EXPECT_EQ(m.batches_assimilated, 1) << "cycle " << m.cycle;
      EXPECT_EQ(m.max_batch_age, 1) << "cycle " << m.cycle;
    }
    assimilated += m.batches_assimilated;
  }
  EXPECT_EQ(assimilated, rc.cycles - 1);

  // With slack covering the latency the same stream is fully on time.
  stream::RealtimeConfig relaxed = base_config();
  relaxed.deadline_slack_cycles = 0.5;
  auto on_time = run_realtime(sc, relaxed);
  EXPECT_EQ(stream::count_deadline_misses(on_time.metrics), 0);
  for (const auto& m : on_time.metrics) EXPECT_EQ(m.batches_assimilated, 1);

  // No staleness allowance: stragglers are discarded, nothing is ever analyzed.
  stream::RealtimeConfig no_stale = base_config();
  no_stale.max_stale_cycles = 0;
  auto dropped = run_realtime(sc, no_stale);
  for (const auto& m : dropped.metrics) EXPECT_EQ(m.batches_assimilated, 0);
}

TEST(Stream, StaleBatchesAreDiscarded) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 777;
  sc.latency_cycles = 3.2;  // arrives > 3 cycles after validity

  stream::RealtimeConfig rc = base_config();
  rc.max_stale_cycles = 2;
  auto res = run_realtime(sc, rc);
  int discarded = 0;
  for (const auto& m : res.metrics) {
    EXPECT_EQ(m.batches_assimilated, 0);
    discarded += m.batches_discarded;
  }
  EXPECT_EQ(discarded, rc.cycles - 4);  // every batch that arrived in-run was too stale

  rc.max_stale_cycles = 5;
  auto caught = run_realtime(sc, rc);
  int assimilated = 0;
  for (const auto& m : caught.metrics) assimilated += m.batches_assimilated;
  EXPECT_GT(assimilated, 0);
  for (const auto& m : caught.metrics) {
    if (m.batches_assimilated > 0) {
      EXPECT_EQ(m.max_batch_age, 4);
    }
  }
}

TEST(Stream, OutOfOrderArrivalsAssimilateInWindowOrder) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 31;
  sc.latency_cycles = 0.1;
  sc.jitter_cycles = 2.5;  // inverts arrival order between neighboring windows

  stream::RealtimeConfig rc = base_config(16);
  rc.max_stale_cycles = 4;
  auto res = run_realtime(sc, rc);

  int total = 0, misses = 0, multi_batch_cycles = 0;
  for (const auto& m : res.metrics) {
    total += m.batches_assimilated;
    misses += m.deadline_miss ? 1 : 0;
    multi_batch_cycles += m.batches_assimilated > 1 ? 1 : 0;
  }
  EXPECT_GT(misses, 0);             // jitter makes some batches late
  EXPECT_GT(multi_batch_cycles, 0); // ...which then pile up at a later cycle
  EXPECT_GT(total, 0);
  EXPECT_LE(total, rc.cycles);      // each batch applied at most once
}

TEST(Stream, DegradedDeliveryIsBitwiseRepeatableAcrossThreadCountsAndRuns) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 2024;
  sc.latency_cycles = 0.3;
  sc.jitter_cycles = 1.0;
  sc.dropout_prob = 0.25;

  for (int depth : {0, 1, 2}) {  // Serial, then the ring at K = 1 and 2
    stream::RealtimeConfig rc = base_config();
    if (depth > 0) {
      rc.schedule = stream::Schedule::Overlapped;
      rc.overlap_depth = depth;
    }
    rc.deadline_slack_cycles = 0.25;
    rc.n_forecast_threads = 1;
    auto ref = run_realtime(sc, rc, /*use_filter=*/true, /*model_error=*/true);

    for (std::size_t nt :
         {std::size_t{2}, std::max<std::size_t>(1, std::thread::hardware_concurrency())}) {
      rc.n_forecast_threads = nt;
      auto got = run_realtime(sc, rc, true, true);
      expect_metrics_bitwise_equal(ref.metrics, got.metrics);
      expect_bitwise_equal(ref.ens, got.ens);
    }
  }
}

TEST(Stream, OverlappedFreeRunMatchesSerialBitwise) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 555;
  stream::RealtimeConfig rc = base_config();
  rc.schedule = stream::Schedule::Serial;
  auto serial = run_realtime(sc, rc, /*use_filter=*/false, /*model_error=*/true);
  rc.schedule = stream::Schedule::Overlapped;
  auto overlapped = run_realtime(sc, rc, false, true);
  // Without a filter there is no lagged increment: the pipelined schedule
  // must produce the identical trajectory.
  expect_metrics_bitwise_equal(serial.metrics, overlapped.metrics);
  expect_bitwise_equal(serial.ens, overlapped.ens);
}

TEST(Stream, OverlappedScheduleStillAssimilates) {
  // 20 members so the global ETKF transform is not rank-starved on dim 40.
  stream::SyntheticStreamConfig sc;
  sc.seed = 888;
  stream::RealtimeConfig rc = base_config(30);
  rc.n_members = 20;
  rc.schedule = stream::Schedule::Overlapped;
  auto overlapped = run_realtime(sc, rc);
  auto free_run = run_realtime(sc, rc, /*use_filter=*/false);

  // The lagged pipeline pays an accuracy price vs the serial schedule but
  // must still track the truth far better than no assimilation at all.
  const double da_err = stream::mean_rmse_post(overlapped.metrics, 15);
  const double free_err = stream::mean_rmse_post(free_run.metrics, 15);
  EXPECT_LT(da_err, 0.6 * free_err);

  rc.schedule = stream::Schedule::Serial;
  auto serial = run_realtime(sc, rc);
  const double serial_err = stream::mean_rmse_post(serial.metrics, 15);
  // The one-cycle lag cannot beat the synchronous analysis by construction;
  // on a chaotic system the stale increment costs a few x in steady-state
  // RMSE (measured ~3.8x here) — bound the degradation's order of magnitude.
  EXPECT_GT(da_err, serial_err);
  EXPECT_LT(da_err, 5.0 * serial_err);
}

TEST(Stream, DropoutDegradesAccuracy) {
  stream::RealtimeConfig rc = base_config(24);
  stream::SyntheticStreamConfig clean;
  clean.seed = 321;
  stream::SyntheticStreamConfig lossy = clean;
  lossy.dropout_prob = 0.75;

  const double full = stream::mean_rmse_post(run_realtime(clean, rc).metrics, 12);
  const double degraded = stream::mean_rmse_post(run_realtime(lossy, rc).metrics, 12);
  EXPECT_GT(degraded, full);
}

// ------------------------------------------------- sparse observing network ---

TEST(Stream, StridedGridObservationsCarryLocations) {
  const std::size_t nx = 8, ny = 6, nlev = 2, stride = 2;
  const auto h = da::SubsampleObs::strided_grid(nx, ny, nlev, stride);
  EXPECT_EQ(h.state_dim(), nx * ny * nlev);
  EXPECT_EQ(h.obs_dim(), (nx / stride) * (ny / stride) * nlev);

  const auto locs = h.locations();
  ASSERT_TRUE(locs.has_value());
  ASSERT_EQ(locs->size(), h.obs_dim());
  for (std::size_t i = 0; i < locs->size(); ++i) {
    const auto& loc = (*locs)[i];
    EXPECT_EQ(loc.ix % static_cast<int>(stride), 0);
    EXPECT_EQ(loc.iy % static_cast<int>(stride), 0);
    // The index the operator reads must be the grid point it claims to be.
    const std::size_t expect_idx =
        (static_cast<std::size_t>(loc.level) * ny + static_cast<std::size_t>(loc.iy)) * nx +
        static_cast<std::size_t>(loc.ix);
    EXPECT_EQ(h.indices()[i], expect_idx);
  }

  // apply() picks exactly those grid points.
  std::vector<double> x(h.state_dim());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  std::vector<double> y(h.obs_dim());
  h.apply(x, y);
  for (std::size_t i = 0; i < y.size(); ++i)
    EXPECT_EQ(y[i], static_cast<double>(h.indices()[i]));
}

TEST(Stream, LetkfAssimilatesSparseStridedNetwork) {
  const std::size_t nx = 8, ny = 8, nlev = 2;
  const std::size_t dim = nx * ny * nlev;
  const auto h = da::SubsampleObs::strided_grid(nx, ny, nlev, 2);
  da::DiagonalR r(h.obs_dim(), 0.01);  // accurate but sparse network

  std::vector<double> truth(dim);
  rng::Rng rng(55);
  rng.fill_gaussian(truth, 0.0, 2.0);
  da::Ensemble ens(10, dim);
  ens.init_perturbed(truth, 1.5, rng);

  std::vector<double> y(h.obs_dim());
  h.apply(truth, y);
  rng::Rng r_obs(56);
  r.perturb(y, r_obs);

  da::LetkfConfig lc;
  lc.nx = nx;
  lc.ny = ny;
  lc.n_levels = nlev;
  lc.domain_m = 8.0e6;
  lc.cutoff_m = 3.0e6;
  da::LETKF letkf(lc);

  // RMSE of the ensemble mean restricted to the observed grid points — this
  // is what the sparse network can constrain directly. Only works if the
  // localization actually matched obs locations to state columns.
  auto observed_rmse = [&](const da::Ensemble& e) {
    const auto mu = e.mean();
    double s = 0.0;
    for (const auto idx : h.indices()) {
      const double dv = mu[idx] - truth[idx];
      s += dv * dv;
    }
    return std::sqrt(s / static_cast<double>(h.indices().size()));
  };

  const double before_obs = observed_rmse(ens);
  const double before_all = da::rmse_vs_truth(ens, truth);
  letkf.analyze(ens, y, h, r);
  const double after_obs = observed_rmse(ens);
  const double after_all = da::rmse_vs_truth(ens, truth);

  EXPECT_LT(after_obs, 0.5 * before_obs);  // observed points pulled hard to truth
  // Unobserved neighbors pick up sampling noise through the localized
  // spurious correlations of a 10-member ensemble; bound it, don't forbid it.
  EXPECT_LT(after_all, 1.5 * before_all);
}

// --------------------------------------------------- metrics CSV schema ---

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

TEST(Stream, MetricsCsvSchemaAndValuesRoundTrip) {
  stream::SyntheticStreamConfig sc;
  sc.seed = 777;
  sc.latency_cycles = 0.4;
  stream::RealtimeConfig rc = base_config(5);
  rc.deadline_slack_cycles = 0.5;
  const auto res = run_realtime(sc, rc);
  ASSERT_EQ(res.metrics.size(), 5u);

  const std::string path = "test_stream_metrics_roundtrip.csv";
  stream::write_stream_metrics_csv(path, res.metrics);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;

  // Line 1 (the schema-version comment downstream parsers dispatch on) and
  // line 2 (the header) are pinned as literals, so a column change cannot
  // slip through without a deliberate schema bump.
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "# stream_metrics_schema=3");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "cycle,time_hours,rmse_prior,rmse_post,spread_prior,spread_post,"
            "batches_assimilated,batches_discarded,max_batch_age,deadline_miss,"
            "obs_arrival_cycles,obs_rejected,batches_rejected,max_r_scale,analysis_failures,"
            "solver_fallbacks,spread_recoveries,degraded,forecast_ms,analysis_ms,qc_ms,"
            "checkpoint_ms,cycle_ms,pool_idle_frac,late_applied,ingest_reconnects,"
            "ingest_frames_corrupt,ingest_frames_resynced,ingest_queue_drops");
  const auto columns = stream::stream_metrics_columns();
  EXPECT_EQ(split_csv_line(line), columns);

  // Data rows: one per cycle, every cell reparsing to the source value.
  std::size_t n_rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ASSERT_LT(n_rows, res.metrics.size());
    const auto cells = split_csv_line(line);
    const auto want = stream::stream_metrics_row(res.metrics[n_rows]);
    ASSERT_EQ(cells.size(), want.size()) << "row " << n_rows;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double got = std::stod(cells[i]);
      // The writer prints 12 significant digits — compare to that precision.
      EXPECT_NEAR(got, want[i], 1e-9 * std::max(1.0, std::abs(want[i])))
          << "row " << n_rows << " column " << columns[i];
    }
    ++n_rows;
  }
  EXPECT_EQ(n_rows, res.metrics.size());
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace turbda
