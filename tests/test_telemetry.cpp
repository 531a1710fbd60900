// Telemetry subsystem tests: tracing spans (nesting, thread attribution,
// ring overflow, Chrome export), and the two hard product invariants —
// instrumentation must not change numerical results bitwise, and a disabled
// span must cost a negligible fraction of a cycle.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bitwise_equal.hpp"
#include "common/timer.hpp"
#include "da/ensemble.hpp"
#include "da/etkf.hpp"
#include "da/letkf.hpp"
#include "da/observation.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"
#include "telemetry/trace.hpp"

namespace turbda {
namespace {

using telemetry::TraceCollector;

/// Ring capacity the collector boots with (trace.cpp kDefaultCapacity);
/// restored after the overflow test so later tests see full-size rings.
constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;

void reset_tracing(std::size_t capacity = kDefaultRingCapacity) {
  auto& tc = TraceCollector::instance();
  tc.disable();
  tc.set_capacity(capacity);
  tc.clear();
}

// ------------------------------------------------------------- trace layer ---

// Must run first (gtest executes in declaration order): verifies the
// process-wide default before any test flips the enable flag.
TEST(Trace, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(telemetry::tracing_enabled());
  EXPECT_FALSE(TraceCollector::instance().enabled());
  {
    TURBDA_SPAN("should.not.record");
    TURBDA_TRACE_INSTANT("also.not");
  }
  // Disabled spans never even register the thread's buffer.
  EXPECT_TRUE(TraceCollector::instance().snapshot().empty());
}

TEST(Trace, SpansNestAndRecordDepthInCompletionOrder) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  tc.enable();
  {
    TURBDA_SPAN("outer");
    {
      TURBDA_SPAN("inner");
      { TURBDA_SPAN("leaf"); }
    }
    { TURBDA_SPAN("sibling"); }
  }
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const auto& spans = snap[0].spans;
  ASSERT_EQ(spans.size(), 4u);
  // RAII records on close, innermost first.
  EXPECT_STREQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[0].depth, 2u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_STREQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].depth, 1u);
  EXPECT_STREQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].depth, 0u);
  // Children lie inside the parent interval.
  const auto& outer = spans[3];
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(spans[i].t0_ns, outer.t0_ns) << spans[i].name;
    EXPECT_LE(spans[i].t0_ns + spans[i].dur_ns, outer.t0_ns + outer.dur_ns) << spans[i].name;
  }
  EXPECT_EQ(snap[0].dropped, 0u);
}

TEST(Trace, ThreadsGetDistinctIdsAndLabels) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  telemetry::set_thread_label("main-test");
  tc.enable();
  { TURBDA_SPAN("on.main"); }
  std::thread worker([] {
    telemetry::set_thread_label("worker-test");
    TURBDA_SPAN("on.worker");
  });
  worker.join();
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_NE(snap[0].tid, snap[1].tid);
  std::string labels, names;
  for (const auto& t : snap) {
    ASSERT_EQ(t.spans.size(), 1u);
    labels += t.label + ";";
    names += std::string(t.spans[0].name) + ";";
  }
  EXPECT_NE(labels.find("main-test"), std::string::npos);
  EXPECT_NE(labels.find("worker-test"), std::string::npos);
  EXPECT_NE(names.find("on.main"), std::string::npos);
  EXPECT_NE(names.find("on.worker"), std::string::npos);
}

TEST(Trace, InstantsAndExplicitCompletes) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  tc.enable();
  TURBDA_TRACE_INSTANT("status.event");
  const std::uint64_t t0 = tc.now_ns();
  tc.complete("synthetic.span", t0, 1234);
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].spans.size(), 2u);
  EXPECT_STREQ(snap[0].spans[0].name, "status.event");
  EXPECT_TRUE(snap[0].spans[0].instant);
  EXPECT_EQ(snap[0].spans[0].dur_ns, 0u);
  EXPECT_STREQ(snap[0].spans[1].name, "synthetic.span");
  EXPECT_FALSE(snap[0].spans[1].instant);
  EXPECT_EQ(snap[0].spans[1].t0_ns, t0);
  EXPECT_EQ(snap[0].spans[1].dur_ns, 1234u);
}

TEST(Trace, RingWrapKeepsNewestAndCountsDropped) {
  reset_tracing(/*capacity=*/4);
  auto& tc = TraceCollector::instance();
  tc.enable();
  for (int i = 0; i < 10; ++i) {
    TURBDA_SPAN("wrap.span");
  }
  tc.disable();

  const auto snap = tc.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].spans.size(), 4u);
  EXPECT_EQ(snap[0].dropped, 6u);
  // Surviving records are the newest four, in completion order.
  for (std::size_t i = 1; i < snap[0].spans.size(); ++i)
    EXPECT_GE(snap[0].spans[i].t0_ns, snap[0].spans[i - 1].t0_ns);
  reset_tracing();  // restore the default ring size for later tests
}

TEST(Trace, ChromeJsonCarriesEventsAndThreadMetadata) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  telemetry::set_thread_label("json-thread");
  tc.enable();
  { TURBDA_SPAN("json.span"); }
  TURBDA_TRACE_INSTANT("json.instant");
  tc.disable();

  const std::string j = tc.chrome_json();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(j.find("json.span"), std::string::npos);
  EXPECT_NE(j.find("json.instant"), std::string::npos);
  EXPECT_NE(j.find("thread_name"), std::string::npos);
  EXPECT_NE(j.find("json-thread"), std::string::npos);
  // Instants need explicit thread scope for the viewers.
  EXPECT_NE(j.find("\"s\":\"t\""), std::string::npos);
}

// ------------------------------------------- numerics must not move at all ---

/// One localized LETKF analysis on a sparse strided network — the filter
/// whose hot path carries the densest instrumentation (phase clocks + chunk
/// spans), so it is where a telemetry branch would most plausibly leak into
/// the numbers.
da::Ensemble letkf_case(std::size_t n_threads) {
  const std::size_t nx = 8, ny = 8, nlev = 2;
  const std::size_t dim = nx * ny * nlev;
  const auto h = da::SubsampleObs::strided_grid(nx, ny, nlev, 2);
  da::DiagonalR r(h.obs_dim(), 0.01);

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
  lc.n_threads = n_threads;
  da::LETKF letkf(lc);
  letkf.analyze(ens, y, h, r);
  return ens;
}

TEST(TelemetryNumerics, LetkfBitwiseIdenticalWithTracingOnOrOffAcrossThreads) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  const auto ref = letkf_case(1);
  for (std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    tc.disable();
    tc.clear();
    expect_bitwise_equal(ref, letkf_case(nt));
    tc.clear();
    tc.enable();
    expect_bitwise_equal(ref, letkf_case(nt));
    tc.disable();
  }
  tc.clear();
}

/// Full streaming run (runner + pool + ETKF instrumentation) on Lorenz-96.
da::Ensemble realtime_case(std::size_t n_threads, stream::Schedule schedule, int cycles = 8,
                           std::size_t dim = 40) {
  models::Lorenz96Config mc;
  mc.dim = dim;
  mc.steps_per_window = 10;
  models::Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  da::ETKF filter(da::EtkfConfig{.rtps = 0.4});

  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  models::Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);

  stream::SyntheticStreamConfig sc;
  sc.seed = 2024;
  sc.latency_cycles = 0.3;
  sc.dropout_prob = 0.1;
  stream::SyntheticStream s(sc, truth_model, h, r, truth0);

  stream::RealtimeConfig rc;
  rc.n_members = 8;
  rc.cycles = cycles;
  rc.window_hours = 1.0;
  rc.init_spread = 1.0;
  rc.seed = 777;
  rc.deadline_slack_cycles = 0.5;
  rc.schedule = schedule;
  rc.n_forecast_threads = n_threads;
  stream::RealtimeRunner runner(rc, s, fcst_model, &filter);
  runner.run(truth0);
  return runner.ensemble();
}

TEST(TelemetryNumerics, RealtimeRunnerBitwiseIdenticalWithTracingOnOrOff) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  for (auto schedule : {stream::Schedule::Serial, stream::Schedule::Overlapped}) {
    tc.disable();
    tc.clear();
    const auto ref = realtime_case(1, schedule);
    for (std::size_t nt : {std::size_t{2}, std::size_t{4}}) {
      tc.disable();
      tc.clear();
      expect_bitwise_equal(ref, realtime_case(nt, schedule));
      tc.clear();
      tc.enable();
      expect_bitwise_equal(ref, realtime_case(nt, schedule));
      tc.disable();
    }
  }
  tc.clear();
}

// ------------------------------------------------------- overhead envelope ---

/// Disabled-tracing overhead guard. Two noisy end-to-end timings of the same
/// run would flake on a loaded CI box, so bound the product instead: measure
/// the per-span disabled cost in a tight loop, count how many spans one cycle
/// actually emits (from an enabled run of the identical configuration), and
/// require spans_per_cycle * cost_per_span <= 1% of the measured cycle time.
TEST(TelemetryOverhead, DisabledSpansCostUnderOnePercentOfACycle) {
  reset_tracing();
  auto& tc = TraceCollector::instance();
  constexpr int kCycles = 20;
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kThreads = 2;

  // (1) Wall time per cycle with tracing disabled — the production baseline.
  ASSERT_FALSE(telemetry::tracing_enabled());
  WallTimer t_run;
  realtime_case(kThreads, stream::Schedule::Serial, kCycles, kDim);
  const double cycle_ns = t_run.seconds() * 1e9 / kCycles;

  // (2) Spans one cycle emits, from an enabled run of the same config.
  tc.clear();
  tc.enable();
  realtime_case(kThreads, stream::Schedule::Serial, kCycles, kDim);
  tc.disable();
  std::uint64_t total_spans = 0;
  for (const auto& th : tc.snapshot()) total_spans += th.spans.size() + th.dropped;
  tc.clear();
  ASSERT_GT(total_spans, 0u);
  const double spans_per_cycle =
      static_cast<double>(total_spans) / static_cast<double>(kCycles);

  // (3) Per-span cost with tracing disabled: one relaxed load + branch.
  constexpr int kIters = 1 << 22;
  WallTimer t_span;
  for (int i = 0; i < kIters; ++i) {
    TURBDA_SPAN("overhead.probe");
    // Compiler barrier so the dead span is not hoisted out of the loop.
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  const double span_ns = t_span.seconds() * 1e9 / kIters;

  const double overhead_frac = spans_per_cycle * span_ns / cycle_ns;
  EXPECT_LE(overhead_frac, 0.01)
      << "disabled tracing costs " << 100.0 * overhead_frac << "% of a cycle ("
      << spans_per_cycle << " spans/cycle x " << span_ns << " ns/span vs " << cycle_ns
      << " ns/cycle)";
}

}  // namespace
}  // namespace turbda
