// Deterministic synthetic observation stream: a nature run observed through
// an ObservationOperator, replayed with a configurable delivery schedule
// (constant latency + uniform jitter, Bernoulli dropouts, hence possibly
// out-of-order arrivals).
//
// Two independent Philox substream families keep the scenario space
// reproducible:
//   - observation *values* come from substream(1) of the seed, exactly the
//     stream the offline OSSE used — so latency/jitter/dropout knobs change
//     only the delivery schedule, never the observed numbers;
//   - the delivery schedule (jitter draw + dropout coin) comes from
//     substream(3), keyed per cycle, so it is identical for any thread
//     count and any collection order.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "models/forecast_model.hpp"
#include "rng/rng.hpp"
#include "stream/batch_queue.hpp"
#include "stream/observation_stream.hpp"

namespace turbda::stream {

struct SyntheticStreamConfig {
  /// Must match the cycling driver's seed to reproduce the offline OSSE
  /// bitwise (the stream consumes substreams 1 and 3 of it; the driver
  /// consumes 0 and 2).
  std::uint64_t seed = 42;
  /// Mean delivery latency after the window closes, in window units.
  double latency_cycles = 0.0;
  /// Uniform jitter added to the latency: U[0, jitter_cycles). Large jitter
  /// relative to the window makes batches arrive out of order.
  double jitter_cycles = 0.0;
  /// Probability that a window's batch is lost entirely.
  double dropout_prob = 0.0;
  /// How many recent truth states to retain for truth()/verification.
  int truth_buffer = 8;
};

class SyntheticStream final : public ObservationStream {
 public:
  /// `truth_model` is advanced one window per produce() call starting from
  /// `truth0`. With the Overlapped schedule, produce() runs concurrently
  /// with ensemble forecasts: the truth model must then be a separate
  /// instance from the forecast model (the usual OSSE setup).
  SyntheticStream(SyntheticStreamConfig cfg, models::ForecastModel& truth_model,
                  const da::ObservationOperator& h, const da::DiagonalR& r,
                  std::span<const double> truth0);

  [[nodiscard]] std::size_t obs_dim() const override { return h_.obs_dim(); }
  [[nodiscard]] const da::ObservationOperator& h() const override { return h_; }
  [[nodiscard]] const da::DiagonalR& r() const override { return r_; }

  void produce(int cycle) override;
  void collect(double now_cycles, std::vector<ObsBatch>& out) override;
  [[nodiscard]] std::span<const double> truth(int cycle) const override;

  /// Truth state after the most recent produce(): an OSSE's final truth.
  [[nodiscard]] const std::vector<double>& latest_truth() const { return truth_; }

  /// Checkpointing: the RNG substream families are consumed statelessly (one
  /// derived stream per cycle), so the mutable state is just the truth
  /// state, the undelivered queue, the truth ring and the counters. The
  /// caller must reconstruct the stream with the same config / model /
  /// operator before restoring.
  bool save_state(std::vector<std::uint8_t>& out) const override;
  bool restore_state(std::span<const std::uint8_t> in) override;

 private:
  SyntheticStreamConfig cfg_;
  models::ForecastModel& truth_model_;
  const da::ObservationOperator& h_;
  const da::DiagonalR& r_;
  rng::Rng rng_obs_;       ///< substream(1): observation noise, keyed per cycle
  rng::Rng rng_delivery_;  ///< substream(3): delivery schedule, keyed per cycle
  std::vector<double> truth_;

  mutable std::mutex mu_;  ///< guards pending_, ring_ and the counters
  BatchQueue pending_;
  TruthRing ring_;
  int produced_ = 0;
  int dropped_ = 0;
};

}  // namespace turbda::stream
