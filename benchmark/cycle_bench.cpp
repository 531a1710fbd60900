// Cycle benchmark: one workload, one pass, one process.
//
//   cycle_bench generate --workload=W --seed=S --seconds=T --dir=D --cache=C
//       Writes the workload's seeded inputs (wire capture, background, truth
//       tail, manifest) into D. Nothing here is timed.
//   cycle_bench run --workload=W --seed=S --seconds=T --dir=D --threads=N
//                   --trace=0|1 [--trace-out=P]
//       Replays D's capture through the public RealtimeRunner API and prints
//       one JSON object (metrics, checks, counts, final-ensemble hash) as the
//       last line of stdout. --trace=0 runs the bare layers; --trace=1 wraps
//       them in the probes of probes.hpp and derives the per-layer numbers.
//
// benchmark/run.py drives both and is the command to use.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>

#include "da/ensf.hpp"
#include "da/letkf.hpp"
#include "da/localization.hpp"
#include "fft/fft.hpp"
#include "io/args.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "simd/dispatch.hpp"
#include "stream/checkpoint.hpp"
#include "stream/ingest/ingest_stream.hpp"
#include "stream/ingest/tail_stream.hpp"
#include "workloads.hpp"

namespace cyclebench {
namespace {

/// Set-ups measured per run: kSetupReps - 1 one-window runs, then the main run.
constexpr int kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 2024;
  double seconds = 10.0;
  std::string dir;
  std::size_t threads = 1;
  bool traced = false;
  std::string trace_out;
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::uint64_t fnv1a(std::span<const double> v) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

da::LetkfConfig letkf_config(const Workload& w, const sqg::SqgConfig& mc, std::size_t threads,
                             bool timings) {
  da::LetkfConfig lc;
  lc.nx = w.n;
  lc.ny = w.n;
  lc.n_levels = 2;
  lc.domain_m = mc.L;
  lc.cutoff_m = 2.0e6;
  lc.rtps = 0.3;
  lc.rossby_radius_m = std::sqrt(mc.nsq) * mc.H / mc.f;
  lc.n_threads = threads;
  lc.collect_timings = timings;
  return lc;
}

stream::RealtimeConfig runner_config(const Workload& w, const Options& o, int cycles) {
  stream::RealtimeConfig rc;
  rc.n_members = kMembers;
  rc.cycles = cycles;
  rc.window_hours = kWindowHours;
  rc.init_spread = kInitSpreadK;
  rc.seed = o.seed;
  rc.n_forecast_threads = o.threads;
  rc.schedule = w.schedule;
  rc.overlap_depth = w.overlap_depth;
  // Every workload runs the service's finite-value QC; it rejects nothing on
  // clean captures, so only the deep workload's extra gates change numbers.
  rc.qc.enabled = true;
  if (w.deep_qc) {
    rc.qc.bg_sigma = 4.0;
    rc.qc.stale_r_inflation = 0.5;
  }
  if (w.checkpoint_every > 0) {
    rc.checkpoint_path = o.dir + "/checkpoint.bin";
    rc.checkpoint_every = w.checkpoint_every;
  }
  return rc;
}

/// The program under test, built the way a deployed service starts: model,
/// filter, replayed wire stream, runner. With a SpanLog the runner drives the
/// probes instead of the bare layers. Members are declared in dependency
/// order, so the runner is destroyed first.
struct Service {
  Service(const Workload& w, const Options& o, int cycles, SpanLog* log)
      : model(std::make_shared<sqg::SqgModel>(sqg_config(w.n))),
        sqg(model, kWindowHours * 3600.0),
        forecast(sqg, kelvin_scale()),
        h(make_network(w)),
        r(h->obs_dim(), 1.0) {
    if (w.filter == FilterKind::Letkf) {
      auto lk = std::make_unique<da::LETKF>(
          letkf_config(w, model->config(), o.threads, /*timings=*/log != nullptr));
      letkf = lk.get();
      filter = std::move(lk);
    } else {
      da::EnsfConfig ec = da::EnsfConfig::stabilized();
      ec.n_threads = o.threads;
      filter = std::make_unique<da::EnSF>(ec);
    }
    stream::ingest::TailStreamConfig tc;
    tc.path = o.dir + "/capture.bin";
    tc.stop_at_eof = true;
    ingest = std::make_unique<stream::ingest::IngestStream>(
        stream::ingest::IngestStreamConfig{}, std::make_unique<stream::ingest::TailStream>(tc),
        *h, r);

    models::ForecastModel* fm = &forecast;
    da::Filter* fl = filter.get();
    stream::ObservationStream* st = ingest.get();
    if (log != nullptr) {
      forecast_probe.emplace(forecast, *log);
      filter_probe.emplace(*filter, *log);
      stream_probe.emplace(*ingest, *log);
      fm = &*forecast_probe;
      fl = &*filter_probe;
      st = &*stream_probe;
    }
    runner.emplace(runner_config(w, o, cycles), *st, *fm, fl);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::shared_ptr<sqg::SqgModel> model;
  sqg::SqgForecast sqg;
  models::ScaledForecast forecast;
  std::unique_ptr<da::ObservationOperator> h;
  da::DiagonalR r;
  std::unique_ptr<da::Filter> filter;
  da::LETKF* letkf = nullptr;
  std::unique_ptr<stream::ingest::IngestStream> ingest;
  std::optional<ForecastProbe> forecast_probe;
  std::optional<FilterProbe> filter_probe;
  std::optional<StreamProbe> stream_probe;
  std::optional<stream::RealtimeRunner> runner;
};

/// Flat JSON object writer: numbers keep all 17 significant digits; a
/// non-finite number becomes null.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) { return raw(k, number(v)); }
  JsonObject& str(const std::string& k, const std::string& v) { return raw(k, '"' + v + '"'); }
  JsonObject& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonObject& list(const std::string& k, const std::vector<double>& v) {
    std::string items;
    for (double x : v) items += (items.empty() ? "" : ", ") + number(x);
    return raw(k, '[' + items + ']');
  }
  JsonObject& strings(const std::string& k, const std::vector<std::string>& v) {
    std::string items;
    for (const auto& x : v) items += (items.empty() ? "\"" : ", \"") + x + '"';
    return raw(k, '[' + items + ']');
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ", \"") + k + "\": " + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return '{' + body_ + '}'; }

 private:
  static std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream s;
    s.precision(17);
    s << v;
    return s.str();
  }
  std::string body_;
};

// ---------------------------------------------------------------------------
// Per-layer numbers from the probe spans of the main run's timed intervals.
// ---------------------------------------------------------------------------

struct Seg {
  double b, e;
};

double union_ms(std::vector<Seg> s) {
  std::sort(s.begin(), s.end(), [](const Seg& x, const Seg& y) { return x.b < y.b; });
  double total = 0.0, cb = 0.0, ce = -1.0;
  for (const Seg& x : s) {
    if (x.b > ce) {
      if (ce > cb) total += ce - cb;
      cb = x.b;
      ce = x.e;
    } else {
      ce = std::max(ce, x.e);
    }
  }
  if (ce > cb) total += ce - cb;
  return total;
}

/// Mean over the timed intervals of each layer's wall time (union of its
/// spans clipped to the interval), its summed span time, its call count and
/// the interval time no probed layer covered.
struct LayerTimes {
  std::map<std::string, double> wall_ms, sum_ms, calls;
  double other_ms = 0.0;
};

LayerTimes layer_times(const std::vector<Span>& spans,
                       const std::vector<Clock::time_point>& hooks) {
  LayerTimes lt;
  if (hooks.size() < 2) return lt;
  const Clock::time_point origin = hooks.front();
  const double intervals = static_cast<double>(hooks.size() - 1);
  for (std::size_t k = 1; k < hooks.size(); ++k) {
    const double ib = ms_between(origin, hooks[k - 1]), ie = ms_between(origin, hooks[k]);
    std::map<std::string, std::vector<Seg>> by_layer;
    std::vector<Seg> all;
    for (const Span& s : spans) {
      const double b = ms_between(origin, s.begin), e = ms_between(origin, s.end);
      if (std::string_view(s.name).starts_with("bench.")) continue;
      if (b >= ib && b < ie) lt.calls[s.name] += 1.0;
      const double cb = std::max(b, ib), ce = std::min(e, ie);
      if (ce <= cb) continue;
      by_layer[s.name].push_back({cb, ce});
      all.push_back({cb, ce});
      lt.sum_ms[s.name] += (ce - cb) / intervals;
    }
    for (auto& [name, segs] : by_layer) lt.wall_ms[name] += union_ms(segs) / intervals;
    lt.other_ms += (ie - ib - union_ms(all)) / intervals;
  }
  for (auto& [name, n] : lt.calls) n /= intervals;
  return lt;
}

/// Local-observation counts per state column under the LETKF's localization
/// (Gaspari–Cohn weight >= min_weight with the Rossby-coupled level distance).
/// The strided network is translation invariant, so one stride x stride cell
/// of columns per level covers every distinct count.
std::pair<double, double> network_geometry(const Workload& w, const da::LetkfConfig& lc) {
  const auto h = make_network(w);
  const auto locs = *h->locations();
  const double dx = lc.domain_m / static_cast<double>(w.n);
  std::vector<double> counts;
  for (int lev = 0; lev < 2; ++lev)
    for (std::size_t iy = 0; iy < w.stride; ++iy)
      for (std::size_t ix = 0; ix < w.stride; ++ix) {
        double p = 0.0;
        for (const auto& L : locs) {
          const double d = std::hypot(
              da::periodic_distance(static_cast<double>(ix), L.ix, static_cast<double>(w.n)) * dx,
              da::periodic_distance(static_cast<double>(iy), L.iy, static_cast<double>(w.n)) * dx);
          if (d > lc.cutoff_m) continue;
          const double deff = std::hypot(d, (L.level - lev) * lc.rossby_radius_m);
          if (da::gaspari_cohn(deff, 0.5 * lc.cutoff_m) >= lc.min_weight) p += 1.0;
        }
        counts.push_back(p);
      }
  const double below = static_cast<double>(std::count_if(
      counts.begin(), counts.end(), [](double p) { return p < static_cast<double>(kMembers); }));
  return {median(counts), below / static_cast<double>(counts.size())};
}

/// Single-thread timings of the forecast's inner kernels at grid n: one RK4
/// step and one forward_half + inverse_half pair (medians).
std::pair<double, double> kernel_timings(std::size_t n, std::span<const double> background) {
  const sqg::SqgModel model(sqg_config(n));
  sqg::SqgWorkspace ws(n);
  std::vector<double> x(background.begin(), background.end());
  for (double& v : x) v /= kelvin_scale();
  std::vector<double> step_ms;
  for (int i = -2; i < 16; ++i) {  // two untimed warm-up steps
    const auto t0 = Clock::now();
    model.step(x, 1, ws);
    if (i >= 0) step_ms.push_back(ms_between(t0, Clock::now()));
  }
  const fft::Fft2D plan(n, n);
  std::vector<double> grid(background.begin(), background.begin() + static_cast<long>(n * n));
  std::vector<fft::Cplx> spec(plan.half_size());
  std::vector<double> pair_ms;
  for (int i = -4; i < 64; ++i) {
    const auto t0 = Clock::now();
    plan.forward_half(grid, spec);
    plan.inverse_half(spec, grid);
    if (i >= 0) pair_ms.push_back(ms_between(t0, Clock::now()));
  }
  return {median(step_ms), median(pair_ms)};
}

/// Checkpoint layer cost at this workload's size: the run's last snapshot
/// when it wrote one, else a snapshot of the final state built here.
struct CheckpointCost {
  double bytes = 0.0, write_ms = 0.0, read_ms = 0.0;
  bool ok = true;
};

CheckpointCost checkpoint_cost(const Options& o, Service& svc,
                               const std::vector<stream::StreamCycleMetrics>& metrics) {
  const auto cycles = static_cast<int>(metrics.size());
  stream::CheckpointData data;
  const std::string own = o.dir + "/checkpoint.bin";
  CheckpointCost c;
  if (!std::filesystem::exists(own)) {
    const auto& ens = svc.runner->ensemble();
    data.seed = o.seed;
    data.n_members = ens.size();
    data.dim = ens.dim();
    data.cycles = cycles;
    data.next_cycle = cycles - 1;
    rng::Rng(o.seed).substream(2).save_state(data.rng_modelerr);
    data.ensemble.assign(ens.data().data(), ens.data().data() + ens.data().size());
    data.applied.assign(static_cast<std::size_t>(cycles), 1);
    c.ok = svc.ingest->save_state(data.stream_state) && svc.filter->save_state(data.filter_state);
    data.metrics = metrics;
    c.ok = c.ok && stream::save_checkpoint(own, data).ok();
  }
  const std::string copy = o.dir + "/checkpoint_copy.bin";
  std::vector<double> wr, rd;
  for (int i = 0; i < 3 && c.ok; ++i) {
    auto t0 = Clock::now();
    c.ok = stream::load_checkpoint(own, data).ok();
    rd.push_back(ms_between(t0, Clock::now()));
    t0 = Clock::now();
    c.ok = c.ok && stream::save_checkpoint(copy, data).ok();
    wr.push_back(ms_between(t0, Clock::now()));
  }
  if (!c.ok) return c;
  c.bytes = static_cast<double>(std::filesystem::file_size(copy));
  c.write_ms = median(wr);
  c.read_ms = median(rd);
  std::filesystem::remove(copy);
  return c;
}

int cmd_generate(const Options& o, const std::string& cache) {
  const Workload& w = find_workload(o.workload);
  std::filesystem::create_directories(o.dir);
  std::filesystem::create_directories(cache);
  const Manifest m = generate(w, o.seed, windows_for(w, o.seconds), o.dir, cache);
  std::cout << JsonObject()
                   .num("windows", m.windows)
                   .num("frames_good", static_cast<double>(m.frames_good))
                   .num("frames_damaged", static_cast<double>(m.frames_damaged))
                   .num("free_rmse_K", m.free_rmse_k)
                   .str()
            << std::endl;
  return 0;
}

/// One-window runs from construction to the first post-analysis hook: the
/// set-up samples besides the main run's own.
std::vector<double> measure_setups(const Workload& w, const Options& o,
                                   std::span<const double> background, SpanLog* log) {
  std::vector<double> setup_s;
  for (int rep = 0; rep + 1 < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    Service svc(w, o, 1, log);
    svc.runner->set_post_analysis_hook([&](int, std::span<const double>) {
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    });
    (void)svc.runner->run(background);
    if (log != nullptr) log->add("bench.setup", t0, Clock::now());
  }
  return setup_s;
}

/// What the main run leaves for the checks and the metrics.
struct MainRun {
  std::vector<stream::StreamCycleMetrics> metrics;
  double setup_s = 0.0;
  /// Post-analysis hook times from the timing origin (the last warm-up
  /// cycle's hook) on; consecutive entries bound one timed interval.
  std::vector<Clock::time_point> timed;
  std::vector<double> tail_means;  ///< posterior means of the last kRmseCycles cycles
  double pool_busy_ms = 0.0;       ///< pool worker busy time over the timed span
  double run_ms = 0.0;             ///< wall time of the whole RealtimeRunner::run call
  double peak_rss_mb = 0.0;

  [[nodiscard]] double span_ms() const { return ms_between(timed.front(), timed.back()); }
  [[nodiscard]] double intervals() const { return static_cast<double>(timed.size() - 1); }
};

MainRun run_main(Service& svc, const Workload& w, int cycles, std::span<const double> background,
                 Clock::time_point t_construct, SpanLog* log) {
  const auto& pool = parallel::global_pool();
  const int origin = w.warmup_cycles - 1;
  const int rmse_from = cycles - kRmseCycles;
  const std::size_t dim = background.size();
  MainRun r;
  r.tail_means.resize(static_cast<std::size_t>(kRmseCycles) * dim);
  std::vector<Clock::time_point> hooks;
  hooks.reserve(static_cast<std::size_t>(cycles));
  std::uint64_t busy0 = 0, busy1 = 0;
  // The hook is inside the measured period, so it only stamps and copies.
  svc.runner->set_post_analysis_hook([&](int k, std::span<const double> mean) {
    hooks.push_back(Clock::now());
    if (k == origin) busy0 = pool.stats().busy_ns;
    if (k + 1 == cycles) busy1 = pool.stats().busy_ns;
    if (log != nullptr)
      log->add(k == 0 ? "bench.setup" : "bench.period",
               k == 0 ? t_construct : hooks[hooks.size() - 2], hooks.back());
    if (k >= rmse_from)
      std::copy(mean.begin(), mean.end(),
                r.tail_means.begin() +
                    static_cast<long>(static_cast<std::size_t>(k - rmse_from) * dim));
  });
  const auto t_run = Clock::now();
  r.metrics = svc.runner->run(background);
  r.run_ms = ms_between(t_run, Clock::now());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (hooks.size() != static_cast<std::size_t>(cycles) ||
      r.metrics.size() != static_cast<std::size_t>(cycles))
    throw std::runtime_error("the runner did not complete every window");
  r.setup_s = ms_between(t_construct, hooks.front()) / 1000.0;
  r.timed.assign(hooks.begin() + origin, hooks.end());
  r.pool_busy_ms = static_cast<double>(busy1 - busy0) / 1e6;
  return r;
}

/// Per-layer metrics from the probes, the filter's own phase timings and
/// single-layer measurements taken after the run (outside every timed span).
/// Also returns the cycle budget: mean wall time per timed interval by layer.
std::pair<JsonObject, JsonObject> layer_metrics(const Workload& w, const Options& o, Service& svc,
                                                const MainRun& run, const SpanLog& log,
                                                std::span<const double> background,
                                                std::vector<std::string>& failed_checks) {
  const auto& pool = parallel::global_pool();
  const std::vector<Span> spans = log.spans();
  const LayerTimes lt = layer_times(spans, run.timed);
  const auto get = [](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  std::vector<double> prepare_ms, analysis_ms;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    if (name == "da.prepare") prepare_ms.push_back(ms_between(s.begin, s.end));
    if (name == "da.try_analyze" && s.begin > run.timed.front())
      analysis_ms.push_back(ms_between(s.begin, s.end));
  }
  double qc_ms = 0.0, reported_ms = 0.0, spread = 0.0, rmse_post = 0.0;
  int qc_rejected = 0, fallbacks = 0;
  const int origin = w.warmup_cycles - 1;
  const int rmse_from = static_cast<int>(run.metrics.size()) - kRmseCycles;
  for (const auto& m : run.metrics) {
    qc_rejected += m.obs_rejected;
    fallbacks += m.solver_fallbacks;
    reported_ms += m.cycle_ms;
    if (m.cycle > origin) qc_ms += m.qc_ms / run.intervals();
    if (m.cycle >= rmse_from) {
      spread += m.spread_post;
      rmse_post += m.rmse_post;
    }
  }

  const FilterProbe::Totals ft = svc.filter_probe->totals();
  const auto [step_ms, pair_ms] = kernel_timings(w.n, background);
  const auto [local_p50, p_lt_m] =
      network_geometry(w, letkf_config(w, svc.model->config(), o.threads, false));
  const CheckpointCost ck = checkpoint_cost(o, svc, run.metrics);
  if (!ck.ok) failed_checks.push_back("checkpoint write/read round trip failed");
  const double workers = static_cast<double>(pool.size());
  const double f_wall = get(lt.wall_ms, "sqg.forecast_batch");
  const double f_sum = get(lt.sum_ms, "sqg.forecast_batch");
  const da::LetkfTimings t = svc.letkf != nullptr ? svc.letkf->timings() : da::LetkfTimings{};
  const double phases =
      t.select_ms + t.gather_ms + t.gram_ms + t.eigh_ms + t.weights_ms + t.combine_ms;
  const auto share = [&](double v) { return phases > 0 ? v / phases : 0.0; };
  const stream::ingest::IngestStats ist = svc.ingest->stats();
  const auto decoded = static_cast<double>(ist.wire.frames_decoded);
  const auto corrupt = static_cast<double>(ist.wire.frames_corrupt);

  JsonObject layers;
  layers.num("sqg.forecast_wall_ms", f_wall)
      .num("sqg.forecast_worker_ms", f_sum)
      .num("sqg.forecast_occupancy",
           f_wall > 0 ? f_sum / (f_wall * static_cast<double>(o.threads)) : 0.0)
      .num("sqg.forecast_calls", get(lt.calls, "sqg.forecast_batch"))
      .num("sqg.rk4_step_ms", step_ms)
      .num("fft.half_pair_ms", pair_ms)
      .num("da.analysis_ms", analysis_ms.empty()
                                 ? 0.0
                                 : std::accumulate(analysis_ms.begin(), analysis_ms.end(), 0.0) /
                                       static_cast<double>(analysis_ms.size()))
      .num("da.analysis_calls", static_cast<double>(ft.calls))
      .num("da.analysis_failed", static_cast<double>(ft.failed))
      .num("da.analysis_pool_busy_frac",
           ft.wall_ns > 0 ? static_cast<double>(ft.pool_busy_ns) / (ft.wall_ns * workers) : 0.0)
      .num("da.prepare_ms", median(prepare_ms))
      .num("da.qc_ms", qc_ms)
      .num("da.qc_rejected", qc_rejected)
      .num("da.letkf.select_frac", share(t.select_ms))
      .num("da.letkf.gather_frac", share(t.gather_ms))
      .num("da.letkf.gram_frac", share(t.gram_ms))
      .num("da.letkf.eigh_frac", share(t.eigh_ms))
      .num("da.letkf.weights_frac", share(t.weights_ms))
      .num("da.letkf.combine_frac", share(t.combine_ms))
      .num("da.letkf.groups",
           t.analyses > 0 ? static_cast<double>(t.groups) / static_cast<double>(t.analyses) : 0.0)
      .num("da.letkf.batched_frac",
           t.batched_columns + t.scalar_columns > 0
               ? static_cast<double>(t.batched_columns) /
                     static_cast<double>(t.batched_columns + t.scalar_columns)
               : 0.0)
      .num("da.letkf.fallback_columns", fallbacks)
      .num("da.letkf.local_obs_p50", local_p50)
      .num("da.letkf.cols_p_lt_m_frac", p_lt_m)
      .num("stream.produce_ms", get(lt.wall_ms, "stream.produce"))
      .num("stream.collect_ms", get(lt.wall_ms, "stream.collect"))
      .num("stream.ingest.frames_decoded", decoded)
      .num("stream.ingest.frames_corrupt", corrupt)
      .num("stream.ingest.frames_resynced", static_cast<double>(ist.wire.frames_resynced))
      .num("stream.ingest.bytes_discarded", static_cast<double>(ist.wire.bytes_discarded))
      .num("stream.ingest.duplicates_dropped", static_cast<double>(ist.duplicates_dropped))
      .num("stream.ingest.frame_yield", decoded / (decoded + corrupt))
      .num("stream.checkpoint.mib", ck.bytes / (1024.0 * 1024.0))
      .num("stream.checkpoint.write_ms", ck.write_ms)
      .num("stream.checkpoint.read_ms", ck.read_ms)
      .num("stream.runner.other_ms", lt.other_ms)
      .num("stream.runner.reported_cycle_ratio", reported_ms / run.run_ms)
      .num("parallel.pool_idle_frac", 1.0 - run.pool_busy_ms / (run.span_ms() * workers))
      .num("da.spread_rmse_ratio", rmse_post > 0 ? spread / rmse_post : 0.0);

  // In the serial schedules the layers never overlap, so these rows add up
  // to the mean period.
  JsonObject budget;
  budget.num("forecast_ms", f_wall)
      .num("analysis_ms", get(lt.wall_ms, "da.try_analyze"))
      .num("produce_ms", get(lt.wall_ms, "stream.produce"))
      .num("collect_ms", get(lt.wall_ms, "stream.collect"))
      .num("other_ms", lt.other_ms)
      .num("period_mean_ms", run.span_ms() / run.intervals());
  return {layers, budget};
}

int cmd_run(const Options& o) {
  const Workload& w = find_workload(o.workload);
  const Manifest man = read_manifest(o.dir + "/manifest.txt");
  const int cycles = man.windows;
  const std::size_t dim = man.dim;
  if (cycles != windows_for(w, o.seconds) || dim != 2 * w.n * w.n)
    throw std::runtime_error("inputs in " + o.dir + " were generated for another run length");
  const std::vector<double> background = read_doubles(o.dir + "/background.bin", dim);
  const std::vector<double> truth_tail =
      read_doubles(o.dir + "/truth_tail.bin", static_cast<std::size_t>(kRmseCycles) * dim);
  std::filesystem::remove(o.dir + "/checkpoint.bin");

  std::optional<SpanLog> log;
  if (o.traced) log.emplace();
  SpanLog* lp = o.traced ? &*log : nullptr;

  std::vector<double> setup_s = measure_setups(w, o, background, lp);
  const auto t_main = Clock::now();
  Service svc(w, o, cycles, lp);
  const MainRun run = run_main(svc, w, cycles, background, t_main, lp);
  setup_s.push_back(run.setup_s);

  // ---- checks ---------------------------------------------------------------
  std::vector<std::string> failed_checks;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  };
  const auto& ens = svc.runner->ensemble();
  const std::span<const double> final_state(ens.data().data(), ens.data().size());
  check(std::all_of(final_state.begin(), final_state.end(),
                    [](double v) { return std::isfinite(v); }),
        "final ensemble is not finite");
  double rmse = 0.0;
  for (std::size_t off = 0; off < truth_tail.size(); off += dim)
    rmse += da::rmse(std::span<const double>(run.tail_means).subspan(off, dim),
                     std::span<const double>(truth_tail).subspan(off, dim)) /
            kRmseCycles;
  const double rmse_ceiling = w.rmse_ceiling_frac * man.free_rmse_k;
  check(rmse < rmse_ceiling, "analysis RMSE " + std::to_string(rmse) + " K not below ceiling " +
                                 std::to_string(rmse_ceiling) + " K");
  const stream::ingest::IngestStats ist = svc.ingest->stats();
  check(ist.wire.frames_decoded == man.frames_good, "decoded frame count differs from the capture");
  check(ist.wire.frames_resynced == man.frames_damaged &&
            ist.wire.frames_corrupt >= man.frames_damaged,
        "damaged frame count differs from the capture");
  check(ist.duplicates_dropped == 0 && ist.queue_drops == 0 && ist.reconnects == 0,
        "replay dropped or re-read frames");
  check(svc.runner->last_checkpoint_status().ok(), "periodic checkpoint failed");

  // Windows whose batch arrived by the last analysis point must each have been
  // assimilated once; the others count as failed windows.
  const auto attempted = static_cast<int>(
      std::count_if(man.arrivals.begin(), man.arrivals.end(),
                    [&](double a) { return a <= static_cast<double>(cycles); }));
  int assimilated = 0, analysis_failures = 0;
  for (const auto& m : run.metrics) {
    assimilated += m.batches_assimilated;
    analysis_failures += m.analysis_failures;
  }
  check(assimilated <= attempted, "more batches assimilated than windows delivered");

  std::vector<double> periods;
  for (std::size_t k = 1; k < run.timed.size(); ++k)
    periods.push_back(ms_between(run.timed[k - 1], run.timed[k]));
  JsonObject e2e;
  e2e.num("setup_s", median(setup_s))
      .num("cycles_per_s", 1000.0 * run.intervals() / run.span_ms())
      .num("analysis_rmse_K", rmse)
      .num("peak_rss_mb", run.peak_rss_mb);

  JsonObject layers, budget;
  if (o.traced) {
    std::tie(layers, budget) = layer_metrics(w, o, svc, run, *log, background, failed_checks);
    check(svc.filter_probe->totals().failed == static_cast<std::uint64_t>(analysis_failures),
          "filter probe and runner disagree on failed analyses");
    if (!o.trace_out.empty()) check(log->write_chrome_trace(o.trace_out), "cannot write the trace");
  }

  std::ostringstream hash;
  hash << std::hex << fnv1a(final_state);
  std::cout << JsonObject()
                   .str("workload", w.name)
                   .num("seed", static_cast<double>(o.seed))
                   .num("threads", static_cast<double>(o.threads))
                   .str("simd", simd::simd_level_name(simd::active_simd_level()))
                   .str("schedule",
                        w.schedule == stream::Schedule::Serial ? "serial" : "overlapped")
                   .boolean("traced", o.traced)
                   .num("windows", cycles)
                   .num("timed_intervals", run.intervals())
                   .num("setup_samples", static_cast<double>(setup_s.size()))
                   .boolean("correct", failed_checks.empty())
                   .strings("failed_checks", failed_checks)
                   .num("attempted", attempted)
                   .num("failed", attempted - assimilated)
                   .str("final_hash", hash.str())
                   .list("periods_ms", periods)
                   .raw("e2e", e2e.str())
                   .raw("layers", layers.str())
                   .raw("budget", budget.str())
                   .str()
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace cyclebench

int main(int argc, char** argv) {
  using namespace cyclebench;
  const turbda::io::Args args(argc, argv);
  const std::string cmd = argc > 1 ? argv[1] : "";
  Options o;
  o.workload = args.get_str("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  o.seconds = args.get_double("seconds", 10.0);
  o.dir = args.get_str("dir", "");
  o.threads = static_cast<std::size_t>(std::max(1L, args.get_int("threads", 1)));
  o.traced = args.get_int("trace", 0) != 0;
  o.trace_out = args.get_str("trace-out", "");
  if ((cmd != "generate" && cmd != "run") || o.workload.empty() || o.dir.empty()) {
    std::cerr << "usage: cycle_bench generate|run --workload=W --seed=S --seconds=T --dir=D "
                 "[--cache=C] [--threads=N --trace=0|1 --trace-out=P]\n";
    return 2;
  }
  try {
    if (cmd == "generate") return cmd_generate(o, args.get_str("cache", o.dir));
    return cmd_run(o);
  } catch (const std::exception& e) {
    std::cerr << "cycle_bench: " << e.what() << "\n";
    return 1;
  }
}
