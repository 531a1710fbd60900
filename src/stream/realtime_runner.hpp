// Deadline-aware cycling driver: turns the fast analysis (PR 1) and forecast
// (PR 2) halves into a real-time assimilation service driven by an
// ObservationStream.
//
// One cycle loop drives both schedules through a ring of analysis
// increments of depth D (D = 0 for Serial, D = overlap_depth for
// Overlapped):
//
//  - Serial (D = 0): forecast -> (wait for obs) -> analyze in place, one
//    cycle at a time. With a zero-latency in-order SyntheticStream sharing
//    the runner's seed this is the offline OSSE, and it reproduces the
//    historical in-line OSSE loop bitwise (test_stream's StreamOsse tests).
//
//  - Overlapped (D = K >= 1): after the member forecasts for cycle k land,
//    the ensemble is copied into ring slot k % D and the analysis for cycle
//    k runs inline on the caller thread, on that copy, while the next
//    window's member forecasts (and the stream's producer) run on the
//    ThreadPool. After the join the slot holds the increment post - prior,
//    which is added to the ensemble at cycle k+D — a D-window update lag,
//    the price of hiding analysis + delivery latency behind forecast
//    compute. The last cycle drains the ring in staged order and analyzes
//    in place, so the final ensemble reflects every batch.
//
//    The ring depth also sets the admission window: a straggler up to
//    max_stale_cycles + D - 1 cycles old is still applied, as a late
//    increment with forced age-dependent R inflation (counted as
//    late_applied), where D = 1 would drop it. Deeper overlap trades
//    increment freshness for tolerance of extreme delivery latency. All
//    admission decisions stay in virtual time, so any D is bitwise
//    reproducible across thread counts.
//
// Deadline semantics: the batch observing window k is "on time" if its
// virtual arrival stamp is <= (k + 1) + deadline_slack_cycles; an on-time
// batch is assimilated at its own cycle. A late batch falls back to
// forecast-only for that cycle and is assimilated at the first later cycle
// whose analysis point its arrival precedes — unless it is staler than
// max_stale_cycles, in which case it is discarded. All of these decisions
// compare virtual stamps, so degraded-delivery runs are bitwise repeatable
// across thread counts; wall-clock is only measured (per-cycle latency
// metrics), never an input to control flow.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "da/ensemble.hpp"
#include "da/filter.hpp"
#include "da/quality_control.hpp"
#include "models/forecast_model.hpp"
#include "models/model_error.hpp"
#include "stream/observation_stream.hpp"

namespace turbda::stream {

enum class Schedule {
  Serial,     ///< forecast and analysis strictly in sequence (OSSE-equivalent)
  Overlapped  ///< analysis overlapped with the next forecast (overlap_depth lag)
};

struct RealtimeConfig {
  std::size_t n_members = 20;
  int cycles = 60;
  double window_hours = 12.0;  ///< time axis for the metrics
  double init_spread = 1.0;    ///< initial member perturbation stddev
  std::uint64_t seed = 42;     ///< must match the stream's seed for OSSE replay
  /// Worker threads for the member forecast loop (0 = all pool workers,
  /// 1 = serial); bitwise identical for any value.
  std::size_t n_forecast_threads = 0;

  Schedule schedule = Schedule::Serial;
  /// Overlapped ring depth K (ignored by Serial): each analysis increment is
  /// applied K cycles after it was staged, stretching straggler admission by
  /// K-1 cycles (see the schedule notes above). A deep-late batch (age beyond
  /// max_stale_cycles) admitted through the ring gets r_scale >=
  /// 1 + 0.5 * age, clamped by da::kMaxRScale, even when QC is off — deep-late
  /// information is never taken at face value.
  int overlap_depth = 1;
  /// Grace period beyond the window end (in window units) before a batch
  /// counts as late. 0 admits exactly the zero-latency batches.
  double deadline_slack_cycles = 0.0;
  /// Discard batches older than this many cycles at their analysis point;
  /// younger stragglers are assimilated at a later cycle.
  int max_stale_cycles = 2;

  // ---- Fault tolerance ----------------------------------------------------

  /// Pre-analysis observation QC (finite / climatological-range /
  /// background-departure gates + age-dependent R inflation). When
  /// qc.stale_r_inflation > 0, the hard staleness discard above is replaced
  /// by inflation: every catch-up batch is assimilated with its R scaled by
  /// age, however old.
  da::QcConfig qc;

  /// Ensemble-spread watchdog, checked after each cycle's update (0 = off).
  /// Below the floor the perturbations are re-inflated (collapse recovery,
  /// with a deterministic re-seeding when the ensemble is fully degenerate);
  /// above the ceiling they are contracted (divergence recovery).
  double spread_floor = 0.0;
  double spread_ceiling = 0.0;

  /// Snapshot the run to this file every checkpoint_every cycles (both must
  /// be set). A failed write never aborts the run — see
  /// RealtimeRunner::last_checkpoint_status().
  std::string checkpoint_path;
  int checkpoint_every = 0;
};

/// Per-cycle record: the OSSE accuracy metrics plus delivery/deadline and
/// wall-clock pipeline telemetry. Every field is listed once more, in
/// for_each_metric below, which the CSV and the checkpoint codec iterate.
struct StreamCycleMetrics {
  int cycle = 0;
  double time_hours = 0.0;
  double rmse_prior = 0.0;
  double rmse_post = 0.0;
  double spread_prior = 0.0;
  double spread_post = 0.0;
  // Delivery telemetry (virtual time, deterministic).
  int batches_assimilated = 0;  ///< analyze() calls issued at this cycle
  int batches_discarded = 0;    ///< stragglers dropped by the staleness policy
  int max_batch_age = 0;        ///< oldest applied batch, in cycles
  bool deadline_miss = false;   ///< this window's own batch was late or lost
  double obs_arrival_cycles = -1.0;  ///< arrival stamp of this window's batch
  // Fault-tolerance telemetry (virtual time, deterministic).
  int obs_rejected = 0;        ///< observations excised by QC this cycle
  int batches_rejected = 0;    ///< whole batches refused (duplicate/truncated)
  double max_r_scale = 1.0;    ///< largest age-dependent R inflation applied
  int analysis_failures = 0;   ///< try_analyze calls that returned non-ok
  int solver_fallbacks = 0;    ///< state columns that kept the forecast
  int spread_recoveries = 0;   ///< spread-watchdog interventions
  bool degraded = false;       ///< any degradation happened this cycle
  // Live-ingestion telemetry (schema v3). late_applied is deterministic
  // (virtual-time admission); the ingest_* columns are per-cycle deltas of
  // the stream's transport counters — zero for in-process streams,
  // wall-clock-dependent for live transports.
  int late_applied = 0;           ///< batches applied with age > max_stale_cycles
  int ingest_reconnects = 0;      ///< transport reconnects during this cycle
  int ingest_frames_corrupt = 0;  ///< wire frames refused during this cycle
  int ingest_frames_resynced = 0; ///< frames recovered after garbage skips
  int ingest_queue_drops = 0;     ///< ingest-queue backpressure evictions
  // Wall-clock telemetry (measured, machine-dependent).
  double forecast_ms = 0.0;
  double analysis_ms = 0.0;
  double qc_ms = 0.0;          ///< quality-control time inside the analysis
  double checkpoint_ms = 0.0;  ///< periodic snapshot write after this cycle
  double cycle_ms = 0.0;
  /// Fraction of pool-worker capacity left idle over this cycle's wall time
  /// (1 - Δbusy / (wall * workers)); -1 when no pool workers exist.
  double pool_idle_frac = -1.0;
};

/// Calls f(name, m.field) for every StreamCycleMetrics field (int, double or
/// bool), in CSV column order, which is also the checkpoint's field order —
/// the single list of fields. Adding, removing or reordering a line changes
/// both formats: bump kStreamMetricsSchemaVersion and kCheckpointVersion.
template <class M, class F>
void for_each_metric(M& m, F&& f) {
  f("cycle", m.cycle);
  f("time_hours", m.time_hours);
  f("rmse_prior", m.rmse_prior);
  f("rmse_post", m.rmse_post);
  f("spread_prior", m.spread_prior);
  f("spread_post", m.spread_post);
  f("batches_assimilated", m.batches_assimilated);
  f("batches_discarded", m.batches_discarded);
  f("max_batch_age", m.max_batch_age);
  f("deadline_miss", m.deadline_miss);
  f("obs_arrival_cycles", m.obs_arrival_cycles);
  f("obs_rejected", m.obs_rejected);
  f("batches_rejected", m.batches_rejected);
  f("max_r_scale", m.max_r_scale);
  f("analysis_failures", m.analysis_failures);
  f("solver_fallbacks", m.solver_fallbacks);
  f("spread_recoveries", m.spread_recoveries);
  f("degraded", m.degraded);
  f("forecast_ms", m.forecast_ms);
  f("analysis_ms", m.analysis_ms);
  f("qc_ms", m.qc_ms);
  f("checkpoint_ms", m.checkpoint_ms);
  f("cycle_ms", m.cycle_ms);
  f("pool_idle_frac", m.pool_idle_frac);
  f("late_applied", m.late_applied);
  f("ingest_reconnects", m.ingest_reconnects);
  f("ingest_frames_corrupt", m.ingest_frames_corrupt);
  f("ingest_frames_resynced", m.ingest_frames_resynced);
  f("ingest_queue_drops", m.ingest_queue_drops);
}

/// Version of the StreamCycleMetrics CSV schema; bumped whenever columns are
/// added, removed or reordered. Written as a `# stream_metrics_schema=N`
/// comment line ahead of the CSV header.
// v3: live-ingestion columns (late_applied, ingest_*).
inline constexpr int kStreamMetricsSchemaVersion = 3;

/// Column names for write_stream_metrics_csv, in the exact emitted order.
[[nodiscard]] std::vector<std::string> stream_metrics_columns();
/// One CSV row (same order as stream_metrics_columns()); bools are 0 or 1.
[[nodiscard]] std::vector<double> stream_metrics_row(const StreamCycleMetrics& m);

/// Hook invoked after each cycle's update with (cycle, posterior mean).
using CycleHook = std::function<void(int, std::span<const double>)>;

class RealtimeRunner {
 public:
  /// `filter == nullptr` runs forecast-only (free run). A non-null
  /// `model_error` switches model error on: after each window's forecast,
  /// every member gets the same draw of it (see draw_shared_error).
  RealtimeRunner(RealtimeConfig cfg, ObservationStream& stream,
                 models::ForecastModel& forecast_model, da::Filter* filter,
                 const models::ModelErrorProcess* model_error = nullptr);

  /// Runs cfg.cycles windows. The ensemble starts as `base` + N(0,
  /// init_spread^2) member perturbations unless `initial_ensemble` is given.
  std::vector<StreamCycleMetrics> run(std::span<const double> base,
                                      const da::Ensemble* initial_ensemble = nullptr);

  /// Resumes a run from a snapshot written by this configuration (validated
  /// against the checkpoint's config echo; a mismatched or corrupt snapshot
  /// returns a non-ok Status without touching any state). On success,
  /// `metrics_out` holds the full per-cycle record — restored rows followed
  /// by the freshly-run remainder — and the continuation is bitwise
  /// identical to the uninterrupted run for any thread count. The stream
  /// must be freshly constructed (same config as the original run); its
  /// state is restored from the snapshot.
  Status resume(const std::string& path, std::vector<StreamCycleMetrics>& metrics_out);

  void set_post_analysis_hook(CycleHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] const da::Ensemble& ensemble() const;

  /// Outcome of the most recent periodic snapshot write (ok before any).
  [[nodiscard]] const Status& last_checkpoint_status() const { return checkpoint_status_; }

 private:
  struct CollectResult;

  /// Window-`cycle` model-error realization, added to every member (empty
  /// without a ModelErrorProcess).
  [[nodiscard]] std::vector<double> draw_shared_error(int cycle) const;
  /// Forecast + the window's model error (`shared_err`, empty when off) for
  /// the contiguous member block [b, e) — the single definition every ring
  /// depth uses, so the bitwise serial==overlapped invariant cannot drift
  /// apart. Each worker thread owns one block and advances it through
  /// ForecastModel::forecast_batch, the member-sequential loop; this fan-out
  /// is the forecast's only parallelism.
  void forecast_block(std::size_t b, std::size_t e, const std::vector<double>& shared_err);
  void forecast_members(int cycle);
  CollectResult collect_batches(int cycle);
  /// Free-run path: batches are produced but never analyzed — drain them so
  /// the stream's pending queue stays bounded.
  void discard_unconsumed(int cycle);

  /// QC + duplicate/truncation guards + try_analyze + degradation + spread
  /// watchdog for one cycle's batches, applied to `target` (the live
  /// ensemble when draining, a ring slot when staging). The one definition
  /// every ring depth shares, so fault handling cannot drift apart. A
  /// recoverable failure (non-ok try_analyze Status, e.g. a non-convergent
  /// transform) keeps the forecast for that batch and marks the cycle
  /// degraded; an exception escaping the filter aborts the run.
  void assimilate_batches(da::Ensemble& target, std::vector<ObsBatch>& batches, int cycle,
                          StreamCycleMetrics& cm);
  void apply_spread_guard(da::Ensemble& target, int cycle, StreamCycleMetrics& cm);
  /// Periodic snapshot at the end of cycle body `completed_cycle`; records
  /// its wall time on metrics.back().checkpoint_ms when a write happens.
  void maybe_checkpoint(int completed_cycle, std::vector<StreamCycleMetrics>& metrics);

  /// The cycle loop, from `start_cycle` (0, or a resumed snapshot's
  /// next_cycle) through cfg.cycles - 1.
  void run_cycles(int start_cycle, std::vector<StreamCycleMetrics>& metrics);
  /// Adds the increment staged at `cycle` to the ensemble, if one is pending.
  void apply_staged(int cycle);

  /// One ring entry: the analysis increment (post - prior) staged at
  /// `cycle` and applied depth_ cycles later; cycle < 0 marks a free slot.
  struct StagedSlot {
    int cycle = -1;
    std::optional<da::Ensemble> increment;
  };

  RealtimeConfig cfg_;
  /// Effective ring depth D: 0 for Serial, overlap_depth for Overlapped.
  int depth_;
  ObservationStream& stream_;
  models::ForecastModel& forecast_model_;
  da::Filter* filter_;
  const models::ModelErrorProcess* model_error_;
  CycleHook hook_;
  std::optional<da::Ensemble> ens_;
  std::optional<rng::Rng> rng_modelerr_;  ///< valid during run()
  std::optional<rng::Rng> rng_spread_;    ///< spread-guard re-seeding noise
  /// Duplicate guard: applied_[k] set once window k's batch is assimilated.
  std::vector<std::uint8_t> applied_;
  /// depth_ slots; the increment staged at cycle c lives in slot c % depth_.
  std::vector<StagedSlot> ring_;
  /// The ensemble as staged, shared by every slot (post - prior scratch).
  std::optional<da::Ensemble> prior_;
  Status checkpoint_status_;
};

/// Writes the per-cycle records as CSV (one row per cycle).
void write_stream_metrics_csv(const std::string& path,
                              std::span<const StreamCycleMetrics> metrics);

/// Scenario summary helpers for benches/examples.
[[nodiscard]] double mean_rmse_post(std::span<const StreamCycleMetrics> metrics,
                                    int from_cycle = 0);
[[nodiscard]] int count_deadline_misses(std::span<const StreamCycleMetrics> metrics);

}  // namespace turbda::stream
