// Fault-tolerance tests: deterministic fault injection (FaultyStream),
// observation QC gates, graceful degradation of the cycling driver (failed
// analyses keep the forecast, LETKF eigensolve fallback, spread watchdog),
// the headline acceptance scenario — a cycling run with 5% NaN-poisoned
// observations plus a forced analysis failure completes every cycle with
// analysis RMSE below the free run — and a 150-cycle soak with all six
// injectors active at once, in both schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bitwise_equal.hpp"
#include "common/check.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "da/quality_control.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "stream/faulty_stream.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace turbda {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;

// --------------------------------------------------------------- fixture ---

// The Lorenz-96 ring read as an 8 x 5 single-level grid so LETKF's
// localization geometry applies to the same state the ETKF tests use.
constexpr std::size_t kNx = 8, kNy = 5, kLev = 1;
constexpr std::size_t kDim = kNx * kNy * kLev;

std::vector<double> spun_up_truth() {
  Lorenz96Config mc;
  mc.dim = kDim;
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);
  return truth0;
}

std::unique_ptr<da::Filter> make_etkf() {
  return std::make_unique<da::ETKF>(da::EtkfConfig{.rtps = 0.4});
}

da::LetkfConfig letkf_grid_config() {
  da::LetkfConfig lc;
  lc.nx = kNx;
  lc.ny = kNy;
  lc.n_levels = kLev;
  lc.domain_m = 8.0e6;
  lc.cutoff_m = 3.0e6;
  lc.rtps = 0.3;
  return lc;
}

/// A filter whose try_analyze fails on one chosen call — the deterministic
/// stand-in for "an eigensolve blew up mid-run" in cycling scenarios.
class FlakyFilter final : public da::Filter {
 public:
  /// Call number `fail_call` of try_analyze fails: with a non-ok Status (a
  /// recoverable failure), or by throwing when `throws` is set.
  explicit FlakyFilter(int fail_call, bool throws = false)
      : inner_(da::EtkfConfig{.rtps = 0.4}), fail_call_(fail_call), throws_(throws) {}

  Status try_analyze(da::Ensemble& ens, std::span<const double> y,
                     const da::ObservationOperator& h, const da::DiagonalR& r,
                     const da::AnalysisOptions& opts, da::AnalysisStats* stats) override {
    if (calls_++ == fail_call_) {
      if (throws_) throw Error("injected analysis exception");
      return Status(StatusCode::kNonConvergent, "injected eigensolve failure");
    }
    return inner_.try_analyze(ens, y, h, r, opts, stats);
  }

  [[nodiscard]] std::string name() const override { return "FlakyETKF"; }

 private:
  da::ETKF inner_;
  int fail_call_;
  bool throws_;
  int calls_ = 0;
};

struct FaultRun {
  std::vector<stream::StreamCycleMetrics> metrics;
  da::Ensemble ens{2, kDim};
  stream::FaultCounters faults;
};

/// Cycles RealtimeRunner on a Lorenz-96 truth, optionally wrapping the
/// synthetic stream in a FaultyStream. `filter == nullptr` gives the free run.
FaultRun run_faulty(stream::SyntheticStreamConfig sc, stream::RealtimeConfig rc,
                    const stream::FaultConfig* fc, std::unique_ptr<da::Filter> filter) {
  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(kDim, kNx, kNy, kLev);
  da::DiagonalR r(kDim, 1.0);
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream inner(sc, truth_model, h, r, truth0);
  std::optional<stream::FaultyStream> faulty;
  stream::ObservationStream* s = &inner;
  if (fc != nullptr) {
    faulty.emplace(*fc, inner);
    s = &*faulty;
  }
  stream::RealtimeRunner runner(rc, *s, fcst_model, filter.get());
  FaultRun out;
  out.metrics = runner.run(truth0);
  out.ens = runner.ensemble();
  if (faulty.has_value()) out.faults = faulty->counters();
  return out;
}

int sum_metric(const std::vector<stream::StreamCycleMetrics>& ms,
               int stream::StreamCycleMetrics::* field) {
  int s = 0;
  for (const auto& m : ms) s += m.*field;
  return s;
}

// -------------------------------------------------------- FaultyStream -----

TEST(FaultyStream, DisabledInjectionIsBitwisePassthrough) {
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 0.3;
  sc.jitter_cycles = 0.4;
  stream::RealtimeConfig rc;
  rc.cycles = 12;
  rc.n_members = 10;
  rc.deadline_slack_cycles = 0.0;

  const auto plain = run_faulty(sc, rc, nullptr, make_etkf());
  stream::FaultConfig fc;  // all probabilities zero
  const auto wrapped = run_faulty(sc, rc, &fc, make_etkf());

  expect_bitwise_equal(plain.ens, wrapped.ens);
  expect_metrics_bitwise_equal(plain.metrics, wrapped.metrics);
  EXPECT_EQ(wrapped.faults.nan_values, 0u);
  EXPECT_EQ(wrapped.faults.batches_duplicated, 0u);
}

TEST(FaultyStream, DisabledDecoratorCheckpointIsBitwiseBareStream) {
  // A zero-probability decorator must forward save/restore untouched: the
  // checkpoint blob has to be bitwise identical to the bare stream's, and a
  // decorator restored from a *bare* blob must continue identically.
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 0.5;
  sc.jitter_cycles = 0.3;

  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  da::IdentityObs h(kDim, kNx, kNy, kLev);
  da::DiagonalR r(kDim, 1.0);
  const auto truth0 = spun_up_truth();

  Lorenz96 tm_bare(mc);
  stream::SyntheticStream bare(sc, tm_bare, h, r, truth0);
  for (int k = 0; k <= 5; ++k) bare.produce(k);
  std::vector<std::uint8_t> blob_bare;
  ASSERT_TRUE(bare.save_state(blob_bare));

  Lorenz96 tm_wrapped(mc);
  stream::SyntheticStream inner(sc, tm_wrapped, h, r, truth0);
  stream::FaultyStream wrapped(stream::FaultConfig{}, inner);  // all probs zero
  for (int k = 0; k <= 5; ++k) wrapped.produce(k);
  std::vector<std::uint8_t> blob_wrapped;
  ASSERT_TRUE(wrapped.save_state(blob_wrapped));

  ASSERT_EQ(blob_bare.size(), blob_wrapped.size());
  EXPECT_EQ(0, std::memcmp(blob_bare.data(), blob_wrapped.data(), blob_bare.size()));

  // Restore a fresh disabled decorator from the BARE blob and continue.
  Lorenz96 tm_resume(mc);
  stream::SyntheticStream inner2(sc, tm_resume, h, r, truth0);
  stream::FaultyStream resumed(stream::FaultConfig{}, inner2);
  ASSERT_TRUE(resumed.restore_state(blob_bare));
  std::vector<stream::ObsBatch> got_bare, got_resumed;
  for (int k = 6; k <= 8; ++k) {
    bare.produce(k);
    resumed.produce(k);
  }
  bare.collect(1e18, got_bare);
  resumed.collect(1e18, got_resumed);
  ASSERT_EQ(got_bare.size(), got_resumed.size());
  for (std::size_t i = 0; i < got_bare.size(); ++i) {
    EXPECT_EQ(got_bare[i].cycle, got_resumed[i].cycle);
    EXPECT_EQ(got_bare[i].valid_cycles, got_resumed[i].valid_cycles);
    EXPECT_EQ(got_bare[i].arrival_cycles, got_resumed[i].arrival_cycles);
    ASSERT_EQ(got_bare[i].y.size(), got_resumed[i].y.size());
    EXPECT_EQ(0, std::memcmp(got_bare[i].y.data(), got_resumed[i].y.data(),
                             got_bare[i].y.size() * sizeof(double)));
  }
}

TEST(FaultyStream, InjectionIsDeterministic) {
  stream::FaultConfig fc;
  fc.nan_prob = 0.05;
  fc.inf_prob = 0.02;
  fc.outlier_prob = 0.03;
  fc.stuck_prob = 0.3;
  fc.duplicate_prob = 0.3;
  fc.truncate_prob = 0.2;

  auto produce_all = [&](std::vector<stream::ObsBatch>& out, stream::FaultCounters& ctr) {
    Lorenz96Config mc;
    mc.dim = kDim;
    mc.steps_per_window = 10;
    Lorenz96 truth_model(mc);
    da::IdentityObs h(kDim, kNx, kNy, kLev);
    da::DiagonalR r(kDim, 1.0);
    const auto truth0 = spun_up_truth();
    stream::SyntheticStream inner({}, truth_model, h, r, truth0);
    stream::FaultyStream s(fc, inner);
    for (int k = 0; k < 10; ++k) s.produce(k);
    s.collect(1e18, out);
    ctr = s.counters();
  };

  std::vector<stream::ObsBatch> a, b;
  stream::FaultCounters ca, cb;
  produce_all(a, ca);
  produce_all(b, cb);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].arrival_cycles, b[i].arrival_cycles);
    ASSERT_EQ(a[i].y.size(), b[i].y.size());
    EXPECT_EQ(0, std::memcmp(a[i].y.data(), b[i].y.data(), a[i].y.size() * sizeof(double)));
  }
  EXPECT_EQ(ca.nan_values, cb.nan_values);
  EXPECT_EQ(ca.stuck_values, cb.stuck_values);
  EXPECT_EQ(ca.batches_duplicated, cb.batches_duplicated);
  EXPECT_EQ(ca.batches_truncated, cb.batches_truncated);
  EXPECT_GT(ca.nan_values + ca.inf_values + ca.outlier_values, 0u);
  EXPECT_GT(ca.batches_duplicated, 0u);
}

// ------------------------------------------------------------------- QC ----

TEST(QualityControl, GatesRejectAndRewriteInOrder) {
  const std::size_t p = 4;
  da::Ensemble ens(10, p);
  const std::vector<double> base{1.0, 2.0, 3.0, 4.0};
  for (std::size_t m = 0; m < 10; ++m) {
    auto row = ens.member(m);
    for (std::size_t i = 0; i < p; ++i)
      row[i] = base[i] + (static_cast<double>(m) - 4.5) * 0.1;
  }
  da::IdentityObs h(p);
  da::DiagonalR r(p, 1.0);

  da::QcConfig qc;
  qc.enabled = true;
  qc.clim_min = -1.0e3;
  qc.clim_max = 1.0e3;
  qc.bg_sigma = 4.0;
  qc.stale_r_inflation = 0.5;

  std::vector<double> y{std::nan(""), 2000.0, 3.0 + 50.0, 4.2};
  std::vector<std::uint8_t> mask;
  const auto rep = da::apply_quality_control(qc, y, h, r, ens, /*age_cycles=*/2, mask);

  EXPECT_EQ(rep.checked, p);
  EXPECT_EQ(rep.rejected_nonfinite, 1u);
  EXPECT_EQ(rep.rejected_range, 1u);
  EXPECT_EQ(rep.rejected_departure, 1u);
  EXPECT_EQ(rep.rejected_total(), 3u);
  EXPECT_EQ(rep.r_scale, 2.0);  // 1 + age * inflation, exactly

  ASSERT_EQ(mask.size(), p);
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 0);
  EXPECT_EQ(mask[2], 0);
  EXPECT_EQ(mask[3], 1);
  // Rejected values are rewritten to the obs-space ensemble mean: finite, so
  // nothing non-finite can leak downstream even past a masking bug.
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y[i], base[i], 1e-12);
  EXPECT_EQ(y[3], 4.2);
}

TEST(QualityControl, StaleInflationIsClamped) {
  da::Ensemble ens(4, 2);
  da::IdentityObs h(2);
  da::DiagonalR r(2, 1.0);
  da::QcConfig qc;
  qc.enabled = true;
  qc.stale_r_inflation = 1.0;
  qc.max_r_scale = 4.0;
  std::vector<double> y{0.0, 0.0};
  std::vector<std::uint8_t> mask;
  const auto rep = da::apply_quality_control(qc, y, h, r, ens, /*age_cycles=*/10, mask);
  EXPECT_EQ(rep.r_scale, 4.0);
}

TEST(QualityControl, FullyMaskedAnalysisKeepsPrior) {
  rng::Rng rng(3);
  da::Ensemble ens(12, kDim);
  std::vector<double> base(kDim, 0.0);
  rng.fill_gaussian(base, 0.0, 2.0);
  ens.init_perturbed(base, 1.0, rng);
  const auto prior = ens.data();

  da::IdentityObs h(kDim);
  da::DiagonalR r(kDim, 1.0);
  std::vector<double> y(kDim, 100.0);  // wildly wrong, but fully masked
  std::vector<std::uint8_t> mask(kDim, 0);

  da::ETKF etkf(da::EtkfConfig{});
  da::AnalysisOptions opts;
  opts.obs_mask = mask;
  da::AnalysisStats st;
  const Status s = etkf.try_analyze(ens, y, h, r, opts, &st);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(st.obs_masked, kDim);

  // Zero observation weight everywhere => the transform is the identity up
  // to the mean/perturbation recombination round-off.
  for (std::size_t m = 0; m < ens.size(); ++m)
    for (std::size_t i = 0; i < kDim; ++i)
      EXPECT_NEAR(ens.member(m)[i], prior(m, i), 1e-10);
}

// ------------------------------------------------- degraded cycling runs ---

/// One degraded-delivery scenario: what the stream delivers, what the
/// injector breaks and how the runner cycles.
struct FaultScenario {
  stream::SyntheticStreamConfig sc;
  stream::FaultConfig fc;
  stream::RealtimeConfig rc;
};

/// Every cycle completes, QC excises the poisoned values, the analysis stays
/// finite and its late-half RMSE beats the free run's.
void expect_nan_burst_survival(const FaultScenario& s) {
  const auto da_run = run_faulty(s.sc, s.rc, &s.fc, make_etkf());
  const auto free_run = run_faulty(s.sc, s.rc, nullptr, nullptr);

  ASSERT_EQ(da_run.metrics.size(), static_cast<std::size_t>(s.rc.cycles));
  EXPECT_GT(da_run.faults.nan_values, 0u);
  EXPECT_GT(sum_metric(da_run.metrics, &stream::StreamCycleMetrics::obs_rejected), 0);
  for (const auto& m : da_run.metrics) {
    EXPECT_TRUE(std::isfinite(m.rmse_post)) << "cycle " << m.cycle;
    EXPECT_TRUE(std::isfinite(m.spread_post)) << "cycle " << m.cycle;
  }
  EXPECT_LT(stream::mean_rmse_post(da_run.metrics, s.rc.cycles / 2),
            stream::mean_rmse_post(free_run.metrics, s.rc.cycles / 2));
}

/// 5% NaN-poisoned values on prompt delivery, QC on its defaults.
FaultScenario nan_burst(stream::Schedule schedule) {
  FaultScenario s;
  s.rc.cycles = 40;
  s.rc.n_members = 16;
  s.rc.schedule = schedule;
  s.rc.qc.enabled = true;  // finite gate is on by default
  s.fc.nan_prob = 0.05;
  return s;
}

/// Every injector at once on moderately degraded delivery (most batches on
/// time, some straggling, some lost), with QC, the staleness R inflation and
/// the spread watchdog all on.
FaultScenario every_injector(stream::Schedule schedule) {
  FaultScenario s;
  s.sc.seed = 7;
  s.sc.latency_cycles = 0.1;
  s.sc.jitter_cycles = 0.25;
  s.sc.dropout_prob = 0.1;

  s.fc.nan_prob = 0.05;
  s.fc.inf_prob = 0.02;
  s.fc.outlier_prob = 0.03;
  s.fc.stuck_prob = 0.3;
  s.fc.duplicate_prob = 0.3;
  s.fc.truncate_prob = 0.15;

  s.rc.cycles = 150;
  s.rc.n_members = 20;
  s.rc.seed = 7;
  s.rc.schedule = schedule;
  s.rc.window_hours = 6.0;
  s.rc.deadline_slack_cycles = 0.25;
  s.rc.qc.enabled = true;
  s.rc.qc.clim_min = -100.0;
  s.rc.qc.clim_max = 100.0;
  s.rc.qc.bg_sigma = 5.0;
  s.rc.qc.stale_r_inflation = 0.5;
  s.rc.spread_floor = 1e-3;
  s.rc.spread_ceiling = 50.0;
  return s;
}

TEST(FaultTolerantCycling, SurvivesNanBurstSerial) {
  expect_nan_burst_survival(nan_burst(stream::Schedule::Serial));
}

TEST(FaultTolerantCycling, SurvivesNanBurstOverlapped) {
  expect_nan_burst_survival(nan_burst(stream::Schedule::Overlapped));
}

TEST(FaultTolerantCycling, SurvivesEveryInjectorSerial) {
  expect_nan_burst_survival(every_injector(stream::Schedule::Serial));
}

TEST(FaultTolerantCycling, SurvivesEveryInjectorOverlapped) {
  expect_nan_burst_survival(every_injector(stream::Schedule::Overlapped));
}

TEST(FaultTolerantCycling, QcDecisionsAreThreadCountInvariant) {
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 0.2;
  sc.jitter_cycles = 0.3;
  stream::RealtimeConfig rc;
  rc.cycles = 20;
  rc.n_members = 12;
  rc.schedule = stream::Schedule::Overlapped;
  rc.qc.enabled = true;
  rc.qc.bg_sigma = 5.0;
  rc.qc.stale_r_inflation = 0.5;

  stream::FaultConfig fc;
  fc.nan_prob = 0.04;
  fc.outlier_prob = 0.03;
  fc.stuck_prob = 0.4;
  fc.duplicate_prob = 0.3;
  fc.truncate_prob = 0.15;

  rc.n_forecast_threads = 1;
  const auto serial_threads = run_faulty(sc, rc, &fc, make_etkf());
  rc.n_forecast_threads = 0;  // all pool workers
  const auto pool_threads = run_faulty(sc, rc, &fc, make_etkf());

  expect_bitwise_equal(serial_threads.ens, pool_threads.ens);
  expect_metrics_bitwise_equal(serial_threads.metrics, pool_threads.metrics);
}

TEST(FaultTolerantCycling, StuckSensorIsRejectedByDepartureGate) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 30;
  rc.n_members = 16;
  rc.qc.enabled = true;
  rc.qc.bg_sigma = 4.0;

  stream::FaultConfig fc;
  fc.stuck_prob = 0.8;
  fc.stuck_cycles = 4;

  const auto da_run = run_faulty(sc, rc, &fc, make_etkf());
  const auto free_run = run_faulty(sc, rc, nullptr, nullptr);

  EXPECT_GT(da_run.faults.stuck_values, 0u);
  // A channel frozen at a stale value departs from any plausible background
  // within a few windows — the departure gate must catch it.
  EXPECT_GT(sum_metric(da_run.metrics, &stream::StreamCycleMetrics::obs_rejected), 0);
  EXPECT_LT(stream::mean_rmse_post(da_run.metrics, 15),
            stream::mean_rmse_post(free_run.metrics, 15));
}

TEST(FaultTolerantCycling, DuplicatedBatchesAreAppliedExactlyOnce) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 12;
  rc.n_members = 10;
  rc.qc.enabled = true;

  stream::FaultConfig fc;
  fc.duplicate_prob = 1.0;
  fc.duplicate_delay_cycles = 0.5;

  const auto r = run_faulty(sc, rc, &fc, make_etkf());
  // Every window assimilated exactly once; every duplicate that arrived in
  // time (all but the final window's) refused by the duplicate guard.
  EXPECT_EQ(sum_metric(r.metrics, &stream::StreamCycleMetrics::batches_assimilated), rc.cycles);
  EXPECT_EQ(sum_metric(r.metrics, &stream::StreamCycleMetrics::batches_rejected),
            rc.cycles - 1);
}

TEST(FaultTolerantCycling, TruncatedBatchRecoveredByRetransmission) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 12;
  rc.n_members = 10;
  rc.qc.enabled = true;

  stream::FaultConfig fc;
  fc.truncate_prob = 1.0;   // every original arrives half-length...
  fc.duplicate_prob = 1.0;  // ...but a full copy follows half a window later
  fc.duplicate_delay_cycles = 0.5;

  const auto r = run_faulty(sc, rc, &fc, make_etkf());
  ASSERT_EQ(r.metrics.size(), static_cast<std::size_t>(rc.cycles));
  // Each truncated original is refused; the full retransmission of window k
  // lands at cycle k+1 (age 1). The final window's copy arrives too late.
  EXPECT_EQ(sum_metric(r.metrics, &stream::StreamCycleMetrics::batches_assimilated),
            rc.cycles - 1);
  EXPECT_EQ(sum_metric(r.metrics, &stream::StreamCycleMetrics::batches_rejected), rc.cycles);
  int max_age = 0;
  for (const auto& m : r.metrics) max_age = std::max(max_age, m.max_batch_age);
  EXPECT_EQ(max_age, 1);
}

TEST(FaultTolerantCycling, AnalysisFailureDegradesInsteadOfAborting) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 10;

  const auto r = run_faulty(sc, rc, nullptr, std::make_unique<FlakyFilter>(3));
  ASSERT_EQ(r.metrics.size(), static_cast<std::size_t>(rc.cycles));
  EXPECT_EQ(sum_metric(r.metrics, &stream::StreamCycleMetrics::analysis_failures), 1);
  EXPECT_TRUE(r.metrics[3].degraded);
  EXPECT_EQ(r.metrics[3].batches_assimilated, 0);
  EXPECT_EQ(r.metrics[4].batches_assimilated, 1);
  for (const auto& m : r.metrics) EXPECT_TRUE(std::isfinite(m.rmse_post));
}

TEST(FaultTolerantCycling, ThrowingAnalysisAborts) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 10;

  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(kDim, kNx, kNy, kLev);
  da::DiagonalR r(kDim, 1.0);
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream s(sc, truth_model, h, r, truth0);
  FlakyFilter filter(3, /*throws=*/true);
  stream::RealtimeRunner runner(rc, s, fcst_model, &filter);
  EXPECT_THROW((void)runner.run(truth0), Error);
}

/// Forwards to a model but makes every batch slow and counts the batches in
/// flight, so a failure that escaped before the forecast fan-out joined
/// would be seen with forecasts still running on the pool.
class SlowForecast final : public models::ForecastModel {
 public:
  explicit SlowForecast(models::ForecastModel& inner) : inner_(inner) {}
  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }
  void forecast(std::span<double> state) override { forecast_batch(state, 1); }
  void forecast_batch(std::span<double> states, std::size_t count) override {
    in_flight_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inner_.forecast_batch(states, count);
    in_flight_.fetch_sub(1);
  }
  [[nodiscard]] bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  [[nodiscard]] std::string name() const override { return "Slow" + inner_.name(); }
  [[nodiscard]] int in_flight() const { return in_flight_.load(); }

 private:
  models::ForecastModel& inner_;
  std::atomic<int> in_flight_{0};
};

TEST(FaultTolerantCycling, ThrowingAnalysisAbortsOverlappedAfterForecastJoin) {
  for (const int depth : {1, 2}) {
    stream::SyntheticStreamConfig sc;
    stream::RealtimeConfig rc;
    rc.cycles = 10;
    rc.n_members = 10;
    rc.schedule = stream::Schedule::Overlapped;
    rc.overlap_depth = depth;

    Lorenz96Config mc;
    mc.dim = kDim;
    mc.steps_per_window = 10;
    Lorenz96 truth_model(mc), l96(mc);
    SlowForecast fcst_model(l96);
    da::IdentityObs h(kDim, kNx, kNy, kLev);
    da::DiagonalR r(kDim, 1.0);
    const auto truth0 = spun_up_truth();
    stream::SyntheticStream s(sc, truth_model, h, r, truth0);
    // The fourth analysis throws inline while the window-4 forecasts run.
    FlakyFilter filter(3, /*throws=*/true);
    stream::RealtimeRunner runner(rc, s, fcst_model, &filter);
    EXPECT_THROW((void)runner.run(truth0), Error) << "depth " << depth;
    EXPECT_EQ(fcst_model.in_flight(), 0) << "depth " << depth;
  }
}

TEST(FaultTolerantCycling, SpreadWatchdogRecoversCollapseAndDivergence) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 8;
  rc.n_members = 12;
  rc.init_spread = 0.0;  // fully collapsed ensemble: rescaling can't fix it
  rc.spread_floor = 0.5;
  rc.spread_ceiling = 50.0;

  const auto r = run_faulty(sc, rc, nullptr, make_etkf());
  ASSERT_EQ(r.metrics.size(), static_cast<std::size_t>(rc.cycles));
  EXPECT_GE(r.metrics[0].spread_recoveries, 1);
  EXPECT_TRUE(r.metrics[0].degraded);
  EXPECT_GT(r.metrics[0].spread_post, 0.05);
  for (const auto& m : r.metrics) {
    EXPECT_TRUE(std::isfinite(m.rmse_post)) << "cycle " << m.cycle;
    EXPECT_LE(m.spread_post, rc.spread_ceiling * 1.01) << "cycle " << m.cycle;
  }
}

// ------------------------------------------------- LETKF eigh fallback -----

TEST(LetkfFallback, ExhaustedSweepBudgetKeepsForecastColumns) {
  rng::Rng rng(11);
  da::Ensemble ens(16, kDim);
  std::vector<double> base(kDim, 0.0);
  rng.fill_gaussian(base, 0.0, 3.0);
  ens.init_perturbed(base, 1.5, rng);
  const auto prior = ens.data();

  da::IdentityObs h(kDim, kNx, kNy, kLev);
  da::DiagonalR r(kDim, 0.04);  // strong obs => well-mixed local transforms
  std::vector<double> y(kDim);
  h.apply(base, y);
  rng::Rng r_obs(12);
  r.perturb(y, r_obs);

  // A single Jacobi sweep cannot converge these 16x16 local problems.
  auto lc = letkf_grid_config();
  lc.eigh_max_sweeps = 1;
  lc.eigh_fallback = true;
  da::LETKF letkf(lc);

  da::AnalysisStats st;
  const Status s = letkf.try_analyze(ens, y, h, r, {}, &st);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_GT(st.solver_failures, 0u);
  EXPECT_GT(st.fallback_columns, 0u);

  // Every fallback column must hold its forecast (up to the
  // mean/perturbation recombination round-off, as in the no-obs fast path).
  if (st.fallback_columns == kDim) {
    for (std::size_t m = 0; m < ens.size(); ++m)
      for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_NEAR(ens.member(m)[i], prior(m, i), 1e-10);
  }
  for (std::size_t m = 0; m < ens.size(); ++m)
    for (std::size_t i = 0; i < kDim; ++i)
      EXPECT_TRUE(std::isfinite(ens.member(m)[i]));
}

TEST(LetkfFallback, DisabledFallbackFailsWithoutTouchingEnsemble) {
  rng::Rng rng(13);
  da::Ensemble ens(16, kDim);
  std::vector<double> base(kDim, 0.0);
  rng.fill_gaussian(base, 0.0, 3.0);
  ens.init_perturbed(base, 1.5, rng);
  const auto prior = ens.data();

  da::IdentityObs h(kDim, kNx, kNy, kLev);
  da::DiagonalR r(kDim, 0.04);
  std::vector<double> y(kDim);
  h.apply(base, y);
  rng::Rng r_obs(14);
  r.perturb(y, r_obs);

  auto lc = letkf_grid_config();
  lc.eigh_max_sweeps = 1;
  lc.eigh_fallback = false;
  da::LETKF letkf(lc);

  da::AnalysisStats st;
  const Status s = letkf.try_analyze(ens, y, h, r, {}, &st);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNonConvergent);
  for (std::size_t m = 0; m < ens.size(); ++m)
    for (std::size_t i = 0; i < kDim; ++i)
      EXPECT_EQ(ens.member(m)[i], prior(m, i));

  // The legacy throwing entry point surfaces the same failure as a
  // catchable Error on the calling thread (not an escaped worker exception).
  EXPECT_THROW(letkf.analyze(ens, y, h, r), Error);
}

// ------------------------------------------------- acceptance scenario -----

TEST(FaultTolerantCycling, AcceptanceNanPoisonPlusForcedSolverFailure) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 40;
  rc.n_members = 16;
  rc.qc.enabled = true;
  rc.qc.bg_sigma = 5.0;

  stream::FaultConfig fc;
  fc.nan_prob = 0.05;  // 5% of observation values poisoned

  const auto da_run = run_faulty(sc, rc, &fc, std::make_unique<FlakyFilter>(17));
  const auto free_run = run_faulty(sc, rc, nullptr, nullptr);

  // Every cycle completed, the forced failure degraded exactly one of them,
  // QC excised poisoned values, and the analysis still beats the free run.
  ASSERT_EQ(da_run.metrics.size(), static_cast<std::size_t>(rc.cycles));
  EXPECT_EQ(sum_metric(da_run.metrics, &stream::StreamCycleMetrics::analysis_failures), 1);
  EXPECT_TRUE(da_run.metrics[17].degraded);
  EXPECT_GT(sum_metric(da_run.metrics, &stream::StreamCycleMetrics::obs_rejected), 0);
  for (const auto& m : da_run.metrics) EXPECT_TRUE(std::isfinite(m.rmse_post));
  EXPECT_LT(stream::mean_rmse_post(da_run.metrics, 20),
            stream::mean_rmse_post(free_run.metrics, 20));

  // The per-cycle QC/degradation counters land in the metrics CSV.
  const std::string csv = testing::TempDir() + "fault_metrics.csv";
  stream::write_stream_metrics_csv(csv, da_run.metrics);
  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header;
  // Skip the '#'-prefixed schema-version comment line(s) above the header.
  while (std::getline(in, header) && !header.empty() && header[0] == '#') {
  }
  for (const char* col : {"obs_rejected", "batches_rejected", "max_r_scale",
                          "analysis_failures", "solver_fallbacks", "spread_recoveries",
                          "degraded"})
    EXPECT_NE(header.find(col), std::string::npos) << col;
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, da_run.metrics.size());
  std::remove(csv.c_str());
}

}  // namespace
}  // namespace turbda
