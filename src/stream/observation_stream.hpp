// Real-time observation delivery — the subsystem behind the paper's
// "real-time data assimilation" claim.
//
// The offline OSSE assumed observations are available instantly and for
// free at every window. Operational streams are nothing like that: batches
// arrive with transmission/processing latency, jitter makes them land out of
// order, and entire windows drop out. This interface separates *what* is
// observed (the ObservationOperator + error model) from *when* it is
// delivered, so the cycling driver can schedule analyses around delivery
// instead of assuming it.
//
// Timing is expressed in virtual "cycle units" (1.0 = one assimilation
// window): every delivery decision the driver makes compares virtual arrival
// stamps against virtual deadlines, which keeps degraded-delivery scenarios
// bitwise reproducible across machines and thread counts. Wall-clock enters
// only as *measured* latency metrics, never as an input to control flow.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "da/observation.hpp"

namespace turbda::stream {

/// One delivery unit: the observation vector for a single assimilation
/// window, stamped with when it becomes available to the consumer.
struct ObsBatch {
  int cycle = 0;               ///< window index this batch observes
  double valid_cycles = 0.0;   ///< validity time in window units (cycle + 1)
  double arrival_cycles = 0.0; ///< virtual delivery time in window units
  std::vector<double> y;       ///< observed values (h(truth) + noise)
};

/// A source of observation batches, one per assimilation window.
///
/// Contract: the driver calls `produce(k)` exactly once per cycle, in
/// ascending order, to advance the producer (e.g. the synthetic truth run)
/// through window k; it then polls `collect(now)` at analysis points to
/// receive every batch whose arrival stamp has passed. `produce` may be
/// invoked from a worker thread concurrently with `collect`/`truth` calls
/// from the driver thread; implementations must synchronize their batch
/// queue accordingly.
class ObservationStream {
 public:
  virtual ~ObservationStream() = default;

  [[nodiscard]] virtual std::size_t obs_dim() const = 0;

  /// Forward operator that generated the batches (what the filter inverts).
  [[nodiscard]] virtual const da::ObservationOperator& h() const = 0;

  /// Observation-error model the batches were perturbed with.
  [[nodiscard]] virtual const da::DiagonalR& r() const = 0;

  /// Generate the batch observing window `cycle`, advancing any internal
  /// producer state. Called once per cycle, in order.
  virtual void produce(int cycle) = 0;

  /// Move every not-yet-collected batch with arrival_cycles <= now_cycles
  /// into `out`, ordered by batch cycle (stragglers first). Dropped batches
  /// never appear.
  virtual void collect(double now_cycles, std::vector<ObsBatch>& out) = 0;

  /// Replay/synthetic streams expose the truth state valid at the end of
  /// window `cycle` for verification metrics; live streams return an empty
  /// span. Only a bounded number of recent cycles is retained, and the
  /// returned view is valid only while the stream still retains that cycle:
  /// callers must consume it before issuing the produce() calls that could
  /// retire it (SyntheticStream keeps the last `truth_buffer` cycles, so a
  /// driver that stays within truth_buffer - 1 cycles of the producer is
  /// safe; do not hold the span across an unbounded producer run-ahead).
  [[nodiscard]] virtual std::span<const double> truth(int /*cycle*/) const { return {}; }

  /// Checkpoint support: append the stream's mutable state (producer
  /// counters, undelivered batches, truth buffer) to `out` so a restored
  /// stream replays the exact same deliveries. Returns false when the stream
  /// cannot be checkpointed — the checkpoint writer then refuses rather than
  /// silently snapshotting half a pipeline.
  ///
  /// The base-class default is that refusal: it returns false and MUST NOT
  /// append anything to `out` (it is not a "save nothing successfully"
  /// no-op). Implementations that do checkpoint append their bytes and
  /// return true; decorators forward to the wrapped stream so the blob is
  /// bitwise identical to the bare stream's whenever the decorator itself
  /// holds no state.
  virtual bool save_state(std::vector<std::uint8_t>& out) const {
    (void)out;
    return false;
  }

  /// Restores state written by save_state(); `in` holds exactly the bytes
  /// this stream appended. Returns false on malformed input, leaving the
  /// stream unspecified (callers abandon it on failure). The base-class
  /// default refuses every input (matching the save_state default) — it
  /// does not treat an empty blob as success.
  virtual bool restore_state(std::span<const std::uint8_t> in) {
    (void)in;
    return false;
  }

  /// Live-transport health counters, all zero for in-process streams.
  /// Decorators forward; the cycling driver diffs successive snapshots into
  /// the per-cycle `ingest_*` columns of StreamCycleMetrics.
  struct IngestCounters {
    std::uint64_t reconnects = 0;       ///< transport re-establishments after a drop
    std::uint64_t frames_corrupt = 0;   ///< wire frames refused (CRC/header damage)
    std::uint64_t frames_resynced = 0;  ///< frames recovered after skipping garbage
    std::uint64_t queue_drops = 0;      ///< batches evicted by queue backpressure
  };
  [[nodiscard]] virtual IngestCounters ingest_counters() const { return {}; }
};

}  // namespace turbda::stream
