#include "stream/realtime_runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>

#include "common/check.hpp"
#include "io/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/checkpoint.hpp"
#include "telemetry/trace.hpp"

namespace turbda::stream {

namespace {

using Clock = std::chrono::steady_clock;

/// R-inflation slope for deep-late batches (age beyond max_stale_cycles)
/// admitted through the overlap ring: r_scale >= 1 + age * kLateRInflation.
constexpr double kLateRInflation = 0.5;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Tracks pool-worker utilization across one cycle: diff of the pool's
/// cumulative busy time over the cycle's wall time.
struct PoolIdleProbe {
  Clock::time_point t0 = Clock::now();
  std::uint64_t busy0 = parallel::global_pool().stats().busy_ns;

  [[nodiscard]] double idle_frac() const {
    const auto& pool = parallel::global_pool();
    if (pool.size() == 0) return -1.0;
    const double wall_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (wall_ns <= 0.0) return -1.0;
    const double busy_ns =
        static_cast<double>(pool.stats().busy_ns - busy0);
    const double frac = 1.0 - busy_ns / (wall_ns * static_cast<double>(pool.size()));
    return std::clamp(frac, 0.0, 1.0);
  }
};

/// Per-cycle delta of the stream's cumulative transport counters (all zero
/// for in-process streams).
void fill_ingest_delta(StreamCycleMetrics& cm, const ObservationStream::IngestCounters& base,
                       const ObservationStream::IngestCounters& now) {
  cm.ingest_reconnects = static_cast<int>(now.reconnects - base.reconnects);
  cm.ingest_frames_corrupt = static_cast<int>(now.frames_corrupt - base.frames_corrupt);
  cm.ingest_frames_resynced = static_cast<int>(now.frames_resynced - base.frames_resynced);
  cm.ingest_queue_drops = static_cast<int>(now.queue_drops - base.queue_drops);
}

}  // namespace

/// Outcome of one cycle's batch collection: what to assimilate now, plus the
/// deadline verdict for this window's own batch.
struct RealtimeRunner::CollectResult {
  std::vector<ObsBatch> apply;  ///< window order (stragglers first)
  bool own_on_time = false;
  double own_arrival = -1.0;
  int discarded = 0;
};

RealtimeRunner::RealtimeRunner(RealtimeConfig cfg, ObservationStream& stream,
                               models::ForecastModel& forecast_model, da::Filter* filter,
                               const models::ModelErrorProcess* model_error)
    : cfg_(cfg),
      depth_(cfg.schedule == Schedule::Serial ? 0 : cfg.overlap_depth),
      stream_(stream),
      forecast_model_(forecast_model),
      filter_(filter),
      model_error_(model_error) {
  TURBDA_REQUIRE(stream_.h().state_dim() == forecast_model_.dim(),
                 "stream observation operator dim mismatch");
  TURBDA_REQUIRE(cfg_.cycles >= 1 && cfg_.n_members >= 2, "bad realtime configuration");
  TURBDA_REQUIRE(cfg_.deadline_slack_cycles >= 0.0 && cfg_.max_stale_cycles >= 0,
                 "bad deadline configuration");
  TURBDA_REQUIRE(cfg_.overlap_depth >= 1, "bad overlap-depth configuration");
  TURBDA_REQUIRE(cfg_.spread_floor >= 0.0 && cfg_.spread_ceiling >= 0.0 &&
                     (cfg_.spread_ceiling == 0.0 || cfg_.spread_floor < cfg_.spread_ceiling),
                 "bad spread-watchdog configuration");
  TURBDA_REQUIRE(cfg_.checkpoint_every >= 0, "bad checkpoint configuration");
}

const da::Ensemble& RealtimeRunner::ensemble() const {
  TURBDA_REQUIRE(ens_.has_value(), "ensemble available only after run()");
  return *ens_;
}

std::vector<double> RealtimeRunner::draw_shared_error(int cycle) const {
  if (model_error_ == nullptr) return {};
  rng::Rng r_me = rng_modelerr_->substream(static_cast<std::uint64_t>(cycle));
  return model_error_->sample(forecast_model_.dim(), r_me);
}

/// Identical to the offline OSSE member loop: disjoint state rows and one
/// window-keyed error draw make it bitwise invariant to the thread count,
/// the schedule, and the block partition (forecast_batch is the
/// member-sequential loop).
void RealtimeRunner::forecast_block(std::size_t b, std::size_t e,
                                    const std::vector<double>& shared_err) {
  TURBDA_SPAN("runner.forecast_block");
  const std::size_t d = forecast_model_.dim();
  // Ensemble members are contiguous rows, so the block is one dense span.
  std::span<double> block(ens_->member(b).data(), (e - b) * d);
  forecast_model_.forecast_batch(block, e - b);
  if (shared_err.empty()) return;
  for (std::size_t m = b; m < e; ++m) {
    auto row = ens_->member(m);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] += shared_err[i];
  }
}

void RealtimeRunner::forecast_members(int cycle) {
  const std::vector<double> shared_err = draw_shared_error(cycle);
  if (forecast_model_.concurrent_safe() && cfg_.n_forecast_threads != 1) {
    parallel::parallel_for(
        cfg_.n_members, [&](std::size_t b, std::size_t e) { forecast_block(b, e, shared_err); },
        /*min_grain=*/1, cfg_.n_forecast_threads);
  } else {
    forecast_block(0, cfg_.n_members, shared_err);
  }
}

void RealtimeRunner::discard_unconsumed(int cycle) {
  std::vector<ObsBatch> drained;
  stream_.collect(static_cast<double>(cycle + 1) + cfg_.deadline_slack_cycles, drained);
}

RealtimeRunner::CollectResult RealtimeRunner::collect_batches(int cycle) {
  // With age-dependent R inflation active, staleness no longer discards: a
  // late batch is assimilated with R inflated by its age instead (QC fills
  // in the factor), so information is down-weighted rather than thrown away.
  const bool stale_inflation = cfg_.qc.enabled && cfg_.qc.stale_r_inflation > 0.0;
  CollectResult res;
  std::vector<ObsBatch> arrived;
  stream_.collect(static_cast<double>(cycle + 1) + cfg_.deadline_slack_cycles, arrived);
  for (auto& b : arrived) {
    const int age = cycle - b.cycle;
    if (age == 0) {
      res.own_on_time = true;
      res.own_arrival = b.arrival_cycles;
      res.apply.push_back(std::move(b));
    } else if (age <= cfg_.max_stale_cycles || stale_inflation) {
      res.apply.push_back(std::move(b));
    } else if (age <= cfg_.max_stale_cycles + (depth_ - 1)) {
      // Deep ring: a batch up to D-1 cycles past the staleness cutoff is
      // still in flight as a D-window-late increment rather than dropped —
      // assimilate_batches forces age-dependent R inflation on it.
      res.apply.push_back(std::move(b));
    } else {
      ++res.discarded;
    }
  }
  return res;
}

void RealtimeRunner::assimilate_batches(da::Ensemble& target, std::vector<ObsBatch>& batches,
                                        int cycle, StreamCycleMetrics& cm) {
  if (batches.empty()) return;
  TURBDA_SPAN("runner.analysis");
  const auto t_an = Clock::now();
  std::vector<std::uint8_t> mask;
  for (auto& b : batches) {
    // Duplicate-transmission guard: each observing window is applied once.
    if (b.cycle >= 0 && b.cycle < cfg_.cycles && applied_[static_cast<std::size_t>(b.cycle)]) {
      ++cm.batches_rejected;
      continue;
    }
    // A batch with the wrong shape (e.g. truncated in transmission) is
    // refused outright — a later duplicate transmission can still recover it.
    if (b.y.size() != stream_.obs_dim()) {
      ++cm.batches_rejected;
      cm.degraded = true;
      continue;
    }
    const int age = std::max(cycle - b.cycle, 0);
    da::AnalysisOptions opts;
    if (cfg_.qc.enabled) {
      TURBDA_SPAN("runner.qc");
      const auto t_qc = Clock::now();
      const da::QcReport rep =
          da::apply_quality_control(cfg_.qc, b.y, stream_.h(), stream_.r(), target,
                                    static_cast<std::size_t>(age), mask);
      cm.qc_ms += ms_since(t_qc);
      cm.obs_rejected += static_cast<int>(rep.rejected_total());
      cm.max_r_scale = std::max(cm.max_r_scale, rep.r_scale);
      opts.r_scale = rep.r_scale;
      if (rep.rejected_total() > 0) opts.obs_mask = mask;
    }
    if (age > cfg_.max_stale_cycles) {
      // Deep-late information is never taken at face value: even with QC off
      // (or configured without stale inflation), a batch past the staleness
      // cutoff gets its R inflated by age before it may touch the ensemble.
      opts.r_scale = std::max(
          opts.r_scale,
          std::min(1.0 + static_cast<double>(age) * kLateRInflation, da::kMaxRScale));
      cm.max_r_scale = std::max(cm.max_r_scale, opts.r_scale);
    }
    da::AnalysisStats st;
    const Status s = filter_->try_analyze(target, b.y, stream_.h(), stream_.r(), opts, &st);
    if (!s.ok()) {
      // Graceful degradation: the filters leave the ensemble untouched on a
      // recoverable failure, so this cycle simply keeps its forecast.
      TURBDA_TRACE_INSTANT("status.analysis_failure");
      ++cm.analysis_failures;
      cm.degraded = true;
      continue;
    }
    if (st.fallback_columns > 0) TURBDA_TRACE_INSTANT("status.solver_fallback");
    cm.solver_fallbacks += static_cast<int>(st.fallback_columns);
    if (st.solver_failures > 0) cm.degraded = true;
    if (b.cycle >= 0 && b.cycle < cfg_.cycles) applied_[static_cast<std::size_t>(b.cycle)] = 1;
    ++cm.batches_assimilated;
    if (age > cfg_.max_stale_cycles) ++cm.late_applied;
    cm.max_batch_age = std::max(cm.max_batch_age, cycle - b.cycle);
  }
  cm.analysis_ms = ms_since(t_an);
  apply_spread_guard(target, cycle, cm);
}

void RealtimeRunner::apply_spread_guard(da::Ensemble& target, int cycle, StreamCycleMetrics& cm) {
  if (cfg_.spread_floor <= 0.0 && cfg_.spread_ceiling <= 0.0) return;
  const double sp = target.mean_spread();
  const auto rescale = [&](double scale) {
    const auto mu = target.mean();
    for (std::size_t m = 0; m < target.size(); ++m) {
      auto row = target.member(m);
      for (std::size_t i = 0; i < row.size(); ++i) row[i] = mu[i] + (row[i] - mu[i]) * scale;
    }
  };
  if (cfg_.spread_floor > 0.0 && sp < cfg_.spread_floor) {
    TURBDA_TRACE_INSTANT("status.spread_recovery");
    ++cm.spread_recoveries;
    cm.degraded = true;
    if (sp <= 1e-12 * cfg_.spread_floor) {
      // Fully collapsed: rescaling cannot recover a zero perturbation, so
      // re-seed the members around the mean from a cycle-keyed substream
      // (serial draw — bitwise invariant to thread count).
      rng::Rng rg = rng_spread_->substream(static_cast<std::uint64_t>(cycle));
      const auto mu = target.mean();
      for (std::size_t m = 0; m < target.size(); ++m) {
        auto row = target.member(m);
        for (std::size_t i = 0; i < row.size(); ++i)
          row[i] = mu[i] + cfg_.spread_floor * rg.gaussian();
      }
    } else {
      rescale(cfg_.spread_floor / sp);
    }
  } else if (cfg_.spread_ceiling > 0.0 && sp > cfg_.spread_ceiling) {
    TURBDA_TRACE_INSTANT("status.spread_recovery");
    ++cm.spread_recoveries;
    cm.degraded = true;
    rescale(cfg_.spread_ceiling / sp);
  }
}

void RealtimeRunner::maybe_checkpoint(int completed_cycle,
                                      std::vector<StreamCycleMetrics>& metrics) {
  if (cfg_.checkpoint_path.empty() || cfg_.checkpoint_every <= 0) return;
  const int next = completed_cycle + 1;
  if (next >= cfg_.cycles) return;  // nothing left to resume
  if (next % cfg_.checkpoint_every != 0) return;

  TURBDA_SPAN("runner.checkpoint");
  const auto t_ckpt = Clock::now();
  const auto record_elapsed = [&] {
    if (!metrics.empty() && metrics.back().cycle == completed_cycle)
      metrics.back().checkpoint_ms = ms_since(t_ckpt);
    if (!checkpoint_status_.ok()) TURBDA_TRACE_INSTANT("status.checkpoint_failed");
  };

  const std::size_t d = forecast_model_.dim();
  CheckpointData data;
  data.seed = cfg_.seed;
  data.n_members = cfg_.n_members;
  data.dim = d;
  data.cycles = cfg_.cycles;
  data.overlap_depth = depth_;
  data.next_cycle = next;
  rng_modelerr_->save_state(data.rng_modelerr);
  const double* ep = ens_->data().data();
  data.ensemble.assign(ep, ep + cfg_.n_members * d);
  // Pending increments in staged order: those staged at next - D .. next - 1.
  for (int c = std::max(next - depth_, 0); c < next; ++c) {
    const StagedSlot& s = ring_[static_cast<std::size_t>(c % depth_)];
    if (s.cycle != c) continue;
    const double* ip = s.increment->data().data();
    data.ring.push_back({c, std::vector<double>(ip, ip + cfg_.n_members * d)});
  }
  data.applied = applied_;
  if (!stream_.save_state(data.stream_state)) {
    checkpoint_status_ =
        Status(StatusCode::kUnsupported, "stream does not support checkpointing");
    record_elapsed();
    return;
  }
  if (filter_ != nullptr && !filter_->save_state(data.filter_state)) {
    checkpoint_status_ =
        Status(StatusCode::kUnsupported, "filter does not support checkpointing");
    record_elapsed();
    return;
  }
  data.metrics = metrics;
  // A failed snapshot write must never take down the service it protects:
  // record the Status and keep cycling.
  checkpoint_status_ = save_checkpoint(cfg_.checkpoint_path, data);
  record_elapsed();
}

std::vector<StreamCycleMetrics> RealtimeRunner::run(std::span<const double> base,
                                                    const da::Ensemble* initial_ensemble) {
  const std::size_t d = forecast_model_.dim();
  TURBDA_REQUIRE(base.size() == d, "initial state size mismatch");

  rng::Rng root(cfg_.seed);
  rng::Rng rng_init = root.substream(0);
  rng_modelerr_ = root.substream(2);
  rng_spread_ = root.substream(4);
  applied_.assign(static_cast<std::size_t>(cfg_.cycles), 0);
  ring_.assign(static_cast<std::size_t>(depth_), StagedSlot{});
  checkpoint_status_ = Status::Ok();

  ens_.emplace(cfg_.n_members, d);
  if (initial_ensemble != nullptr) {
    TURBDA_REQUIRE(initial_ensemble->size() == cfg_.n_members && initial_ensemble->dim() == d,
                   "initial ensemble shape mismatch");
    ens_->data() = initial_ensemble->data();
  } else {
    ens_->init_perturbed(base, cfg_.init_spread, rng_init);
  }

  // Let the filter pre-build network-dependent caches (e.g. LETKF's
  // local-observation plan) before the deadline clock starts ticking; the
  // stream's network is known up front and stays fixed across cycles.
  if (filter_ != nullptr) filter_->prepare(stream_.h(), stream_.r());

  std::vector<StreamCycleMetrics> metrics;
  run_cycles(0, metrics);
  return metrics;
}

Status RealtimeRunner::resume(const std::string& path,
                              std::vector<StreamCycleMetrics>& metrics_out) {
  CheckpointData data;
  const Status s = load_checkpoint(path, data);
  if (!s.ok()) return s;

  const std::size_t d = forecast_model_.dim();
  if (data.seed != cfg_.seed || data.n_members != cfg_.n_members || data.dim != d ||
      data.cycles != cfg_.cycles || data.overlap_depth != depth_)
    return Status(StatusCode::kInvalidArgument,
                  "checkpoint was written under a different configuration");
  if (data.next_cycle <= 0 || data.next_cycle >= cfg_.cycles)
    return Status(StatusCode::kCorruptData, "checkpoint cycle index out of range");
  if (data.applied.size() != static_cast<std::size_t>(cfg_.cycles))
    return Status(StatusCode::kCorruptData, "checkpoint duplicate-guard size mismatch");
  // Row k of the restored record must be cycle k, one row per completed cycle.
  if (data.metrics.size() != static_cast<std::size_t>(data.next_cycle))
    return Status(StatusCode::kCorruptData, "checkpoint metrics row count mismatch");
  for (std::size_t k = 0; k < data.metrics.size(); ++k)
    if (data.metrics[k].cycle != static_cast<int>(k))
      return Status(StatusCode::kCorruptData, "checkpoint metrics row out of sequence");
  // Each staged cycle must still be pending (applied at cycle + D >=
  // next_cycle) and map to its own slot; a Serial run (D = 0) stages none.
  int last_staged = -1;
  for (const auto& sd : data.ring) {
    if (sd.cycle <= last_staged || sd.cycle >= data.next_cycle ||
        data.next_cycle - sd.cycle > depth_)
      return Status(StatusCode::kCorruptData, "checkpoint staged slot cycle out of range");
    last_staged = sd.cycle;
  }
  if (!stream_.restore_state(data.stream_state))
    return Status(StatusCode::kCorruptData, "stream state in checkpoint is malformed");
  if (filter_ != nullptr && !filter_->restore_state(data.filter_state))
    return Status(StatusCode::kCorruptData, "filter state in checkpoint is malformed");

  rng::Rng root(cfg_.seed);
  rng_modelerr_ = root.substream(2);
  rng_spread_ = root.substream(4);
  if (!data.rng_modelerr.empty() && !rng_modelerr_->load_state(data.rng_modelerr))
    return Status(StatusCode::kCorruptData, "RNG state in checkpoint is malformed");
  checkpoint_status_ = Status::Ok();

  ens_.emplace(cfg_.n_members, d);
  std::copy(data.ensemble.begin(), data.ensemble.end(), ens_->data().data());
  applied_ = std::move(data.applied);
  ring_.assign(static_cast<std::size_t>(depth_), StagedSlot{});
  for (const auto& sd : data.ring) {
    StagedSlot& s = ring_[static_cast<std::size_t>(sd.cycle % depth_)];
    s.cycle = sd.cycle;
    s.increment.emplace(cfg_.n_members, d);
    std::copy(sd.increment.begin(), sd.increment.end(), s.increment->data().data());
  }

  if (filter_ != nullptr) filter_->prepare(stream_.h(), stream_.r());

  metrics_out = std::move(data.metrics);
  run_cycles(data.next_cycle, metrics_out);
  return Status::Ok();
}

void RealtimeRunner::apply_staged(int cycle) {
  if (cycle < 0) return;
  StagedSlot& slot = ring_[static_cast<std::size_t>(cycle % depth_)];
  if (slot.cycle != cycle) return;
  for (std::size_t m = 0; m < cfg_.n_members; ++m) {
    auto row = ens_->member(m);
    const auto inc = slot.increment->member(m);
    for (std::size_t i = 0; i < row.size(); ++i) row[i] += inc[i];
  }
  slot.cycle = -1;
}

void RealtimeRunner::run_cycles(int start_cycle, std::vector<StreamCycleMetrics>& metrics) {
  auto& pool = parallel::global_pool();
  const int D = depth_;
  metrics.reserve(static_cast<std::size_t>(cfg_.cycles));

  for (int k = start_cycle; k < cfg_.cycles; ++k) {
    TURBDA_SPAN("runner.cycle");
    const PoolIdleProbe idle_probe;
    const auto t_cycle = Clock::now();
    const auto ing0 = stream_.ingest_counters();
    StreamCycleMetrics cm;
    cm.cycle = k;
    cm.time_hours = (k + 1) * cfg_.window_hours;

    // Window k is produced and forecast here unless the previous cycle
    // already fanned it out behind its analysis (D >= 1 past cycle 0; a
    // resumed run restored that pipeline state mid-flight).
    if (D == 0 || k == 0) {
      {
        TURBDA_SPAN("stream.produce");
        stream_.produce(k);
      }
      const auto t_fcst = Clock::now();
      {
        TURBDA_SPAN("runner.forecast");
        forecast_members(k);
      }
      cm.forecast_ms = ms_since(t_fcst);
    }

    const auto truth = stream_.truth(k);
    TURBDA_REQUIRE(!truth.empty(), "stream did not retain the truth state for this cycle");
    cm.rmse_prior = rmse_vs_truth(*ens_, truth);
    cm.spread_prior = ens_->mean_spread();

    // The increment staged D cycles ago lands now; its slot is the one this
    // cycle is about to reuse.
    if (D >= 1) apply_staged(k - D);

    CollectResult col;
    if (filter_ != nullptr) {
      col = collect_batches(k);
      cm.deadline_miss = !col.own_on_time;
      cm.obs_arrival_cycles = col.own_arrival;
      cm.batches_discarded = col.discarded;
      if (cm.deadline_miss) TURBDA_TRACE_INSTANT("status.deadline_miss");
    } else {
      discard_unconsumed(k);
    }

    const bool drain = D == 0 || k + 1 == cfg_.cycles;
    if (drain) {
      // Drain the ring in staged order, then this cycle's own batches, so
      // the ensemble reflects every admitted batch.
      for (int c = k - D + 1; c < k; ++c) apply_staged(c);
      assimilate_batches(*ens_, col.apply, k, cm);
    }
    // Without a drain, post metrics reflect this cycle's update step (the
    // lag-D increment); this cycle's own analysis lands at k+D.
    cm.rmse_post = rmse_vs_truth(*ens_, truth);
    cm.spread_post = ens_->mean_spread();
    if (hook_) {
      const auto mean = ens_->mean();
      hook_(k, mean);
    }

    if (!drain) {
      StagedSlot* slot = nullptr;
      if (!col.apply.empty()) {
        slot = &ring_[static_cast<std::size_t>(k % D)];
        TURBDA_REQUIRE(slot->cycle < 0, "overlap ring slot still occupied");
        slot->cycle = k;
        // Assignment keeps capacity, so the loop is allocation-free after
        // the first staging.
        for (auto* buf : {&prior_, &slot->increment}) {
          if (buf->has_value())
            (*buf)->data() = ens_->data();
          else
            buf->emplace(*ens_);
        }
      }

      // Fan the next window out over the pool: the stream's producer and the
      // member forecasts for k+1 run concurrently with the analysis below.
      // Per-member work is partition-independent, so this stays bitwise
      // identical for any pool size.
      const int k1 = k + 1;
      const std::vector<double> shared_err = draw_shared_error(k1);
      const auto t_fcst = Clock::now();
      std::vector<std::future<void>> tasks;
      tasks.push_back(pool.submit([this, k1] {
        TURBDA_SPAN("stream.produce");
        stream_.produce(k1);
      }));
      std::size_t par = std::max<std::size_t>(pool.size(), 1);
      if (cfg_.n_forecast_threads != 0) par = std::min(par, cfg_.n_forecast_threads);
      if (!forecast_model_.concurrent_safe()) par = 1;
      par = std::min(par, cfg_.n_members);
      const std::size_t chunk = (cfg_.n_members + par - 1) / par;
      for (std::size_t b = 0; b < cfg_.n_members; b += chunk) {
        const std::size_t e = std::min(b + chunk, cfg_.n_members);
        tasks.push_back(
            pool.submit([this, b, e, &shared_err] { forecast_block(b, e, shared_err); }));
      }

      // Inline analysis on the caller thread: its internal parallel_for
      // interleaves with the forecast tasks on the shared pool. Every task
      // is joined before any failure propagates — they borrow this frame.
      std::exception_ptr err;
      if (slot != nullptr) {
        try {
          assimilate_batches(*slot->increment, col.apply, k, cm);
        } catch (...) {
          err = std::current_exception();
        }
      }
      for (auto& t : tasks) {
        try {
          t.get();
        } catch (...) {
          if (!err) err = std::current_exception();
        }
      }
      if (err) std::rethrow_exception(err);
      cm.forecast_ms += ms_since(t_fcst);

      if (slot != nullptr) {
        double* inc = slot->increment->data().data();
        const double* prior = prior_->data().data();
        for (std::size_t i = 0, n = cfg_.n_members * ens_->dim(); i < n; ++i) inc[i] -= prior[i];
      }
    }

    cm.cycle_ms = ms_since(t_cycle);
    cm.pool_idle_frac = idle_probe.idle_frac();
    fill_ingest_delta(cm, ing0, stream_.ingest_counters());
    metrics.push_back(cm);
    maybe_checkpoint(k, metrics);
    if (cm.degraded) TURBDA_TRACE_INSTANT("status.degraded_cycle");
  }
}

std::vector<std::string> stream_metrics_columns() {
  const StreamCycleMetrics m;
  std::vector<std::string> cols;
  for_each_metric(m, [&](const char* name, const auto&) { cols.emplace_back(name); });
  return cols;
}

std::vector<double> stream_metrics_row(const StreamCycleMetrics& m) {
  std::vector<double> row;
  for_each_metric(m, [&](const char*, const auto& v) { row.push_back(static_cast<double>(v)); });
  return row;
}

void write_stream_metrics_csv(const std::string& path,
                              std::span<const StreamCycleMetrics> metrics) {
  const std::vector<std::string> cols = stream_metrics_columns();
  io::CsvWriter csv(path, cols,
                    "stream_metrics_schema=" + std::to_string(kStreamMetricsSchemaVersion));
  for (const auto& m : metrics) csv.row(stream_metrics_row(m));
}

double mean_rmse_post(std::span<const StreamCycleMetrics> metrics, int from_cycle) {
  double s = 0.0;
  std::size_t n = 0;
  for (const auto& m : metrics)
    if (m.cycle >= from_cycle) {
      s += m.rmse_post;
      ++n;
    }
  return n ? s / static_cast<double>(n) : 0.0;
}

int count_deadline_misses(std::span<const StreamCycleMetrics> metrics) {
  int n = 0;
  for (const auto& m : metrics) n += m.deadline_miss ? 1 : 0;
  return n;
}

}  // namespace turbda::stream
