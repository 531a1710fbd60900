// Deterministic fault injection for observation streams.
//
// FaultyStream decorates any ObservationStream and corrupts its batches the
// way real observing networks do: individual values turn into NaN/Inf or
// physically absurd magnitudes, a sensor channel freezes at its last value
// for several windows, a batch is transmitted twice, or arrives truncated.
// Every corruption decision comes from a Philox substream keyed by the
// batch's window index, so a fault scenario is a pure function of
// (seed, config) — bitwise reproducible across thread counts and runs,
// which is what lets the fault-tolerance tests assert exact QC decisions.
//
// The decorator intercepts batches at produce() time (delivery stamps pass
// through untouched — faults corrupt *content*, the delivery schedule stays
// the inner stream's) and replays the inner stream's arrival gating in its
// own collect().
//
// With every fault probability zero the decorator is fully transparent:
// produce/collect/save_state/restore_state forward straight to the inner
// stream, so runs — and checkpoint blobs — are bitwise identical to the
// undecorated stream's. Scenario harnesses can therefore keep the wrapper
// in place unconditionally and toggle faults by config alone.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "rng/rng.hpp"
#include "stream/batch_queue.hpp"
#include "stream/observation_stream.hpp"

namespace turbda::stream {

struct FaultConfig {
  std::uint64_t seed = 9001;

  // Per-element corruption probabilities (checked in this order; at most one
  // fires per element).
  double nan_prob = 0.0;      ///< value becomes NaN
  double inf_prob = 0.0;      ///< value becomes +/-Inf
  double outlier_prob = 0.0;  ///< value becomes physically absurd
  static constexpr double outlier_scale = 1e6;  ///< outlier magnitude: y -> (y + 1) * scale

  // Per-batch faults.
  double stuck_prob = 0.0;   ///< a random channel freezes at its current value
  int stuck_cycles = 3;      ///< how many windows the channel stays frozen
  double duplicate_prob = 0.0;         ///< batch transmitted a second time
  double duplicate_delay_cycles = 0.5; ///< extra delivery delay of the copy
  double truncate_prob = 0.0;          ///< batch arrives with half its values
};

/// Cumulative injection counters: how many values and batches each injector
/// actually broke, so a run can report its fault load next to what QC caught.
struct FaultCounters {
  std::uint64_t nan_values = 0;
  std::uint64_t inf_values = 0;
  std::uint64_t outlier_values = 0;
  std::uint64_t stuck_values = 0;       ///< elements overwritten by a frozen channel
  std::uint64_t batches_duplicated = 0;
  std::uint64_t batches_truncated = 0;
};

class FaultyStream final : public ObservationStream {
 public:
  FaultyStream(FaultConfig cfg, ObservationStream& inner);

  [[nodiscard]] std::size_t obs_dim() const override { return inner_.obs_dim(); }
  [[nodiscard]] const da::ObservationOperator& h() const override { return inner_.h(); }
  [[nodiscard]] const da::DiagonalR& r() const override { return inner_.r(); }
  [[nodiscard]] std::span<const double> truth(int cycle) const override {
    return inner_.truth(cycle);
  }

  void produce(int cycle) override;
  void collect(double now_cycles, std::vector<ObsBatch>& out) override;

  [[nodiscard]] FaultCounters counters() const;

  bool save_state(std::vector<std::uint8_t>& out) const override;
  bool restore_state(std::span<const std::uint8_t> in) override;

  [[nodiscard]] IngestCounters ingest_counters() const override {
    return inner_.ingest_counters();
  }

 private:
  /// All fault probabilities zero => pure passthrough decorator.
  [[nodiscard]] bool disabled() const {
    return cfg_.nan_prob == 0.0 && cfg_.inf_prob == 0.0 && cfg_.outlier_prob == 0.0 &&
           cfg_.stuck_prob == 0.0 && cfg_.duplicate_prob == 0.0 && cfg_.truncate_prob == 0.0;
  }
  /// Corrupts one batch in place; may append a duplicate to `extra`.
  /// Called with mu_ held.
  void corrupt(ObsBatch& b, std::vector<ObsBatch>& extra);

  FaultConfig cfg_;
  ObservationStream& inner_;
  rng::Rng rng_fault_;  ///< substream parent; keyed per batch cycle

  mutable std::mutex mu_;  ///< guards pending_, stuck_ and counters_
  BatchQueue pending_;
  /// channel -> (windows remaining, frozen value); std::map for
  /// deterministic iteration and serialization order.
  std::map<std::int32_t, std::pair<std::int32_t, double>> stuck_;
  FaultCounters counters_;
};

}  // namespace turbda::stream
