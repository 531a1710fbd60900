// Live ObservationStream: frames from the TailStream transport, decoded,
// deduplicated and staged for the cycling driver.
//
// This is the piece that makes the RealtimeRunner's wall-clock path
// load-bearing: produce(k) *pumps the transport* — bounded reads, staleness
// detection, reopening a dead or replaced feed — until the feeder has
// published window k (or the produce timeout proves the feed dead), and
// collect() then gates the queued batches on their *virtual* arrival stamps
// exactly like the in-process streams do. Physical delivery decides what is
// in the queue; virtual stamps decide what each analysis admits. Over a
// finalized replay file the two coincide and a run is bitwise
// reproducible; over a followed file the feeder's timing genuinely gates
// delivery, which is the point.
//
// Duplicate policy: a restarted feeder replays windows it already sent
// (it cannot know what survived the crash), and a replaced file is read
// from the top. A full-shape batch for a window already handed to the
// driver is dropped here (the delivered-batch ledger); short/truncated
// batches always pass through so a later complete retransmission can still
// recover the window — the driver's own applied-batch guard stays the
// final arbiter.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "stream/batch_queue.hpp"
#include "stream/ingest/tail_stream.hpp"
#include "stream/ingest/wire.hpp"
#include "stream/observation_stream.hpp"

namespace turbda::stream::ingest {

struct IngestStreamConfig {
  static constexpr std::size_t queue_capacity = 256;
  int read_timeout_ms = 20;        ///< one transport poll slice
  int produce_timeout_ms = 30000;  ///< bound on produce()'s wait for a window
  /// No bytes (data or heartbeat) for this long while waiting => the feed is
  /// presumed dead and the file is reopened (it may have been replaced).
  int stale_after_ms = 2000;
  /// Truth ring depth (cycles), counted back from the window being
  /// produced. Truths decoded ahead of it are kept too, so one read never
  /// evicts a truth the consumer has not reached.
  int truth_buffer = 16;
};

/// Cumulative transport/decoder health (wire stats + stream-level events).
struct IngestStats {
  WireStats wire;
  std::uint64_t reconnects = 0;          ///< successful reopens
  std::uint64_t heartbeat_timeouts = 0;  ///< staleness teardowns
  std::uint64_t duplicates_dropped = 0;  ///< ledger-refused retransmissions
  std::uint64_t queue_drops = 0;         ///< backpressure evictions
  std::int32_t high_water_cycle = -1;    ///< latest window the feeder published
};

class IngestStream final : public ObservationStream {
 public:
  IngestStream(IngestStreamConfig cfg, std::unique_ptr<TailStream> source,
               const da::ObservationOperator& h, const da::DiagonalR& r);

  [[nodiscard]] std::size_t obs_dim() const override { return h_.obs_dim(); }
  [[nodiscard]] const da::ObservationOperator& h() const override { return h_; }
  [[nodiscard]] const da::DiagonalR& r() const override { return r_; }

  void produce(int cycle) override;
  void collect(double now_cycles, std::vector<ObsBatch>& out) override;
  [[nodiscard]] std::span<const double> truth(int cycle) const override;

  /// Checkpointable: the ledger, queue, truth ring and counters round-trip.
  /// The transport itself does not (a restored run reconnects/re-reads and
  /// relies on the ledger to dedup the replay), so resumed-run counter
  /// totals can exceed the uninterrupted run's — deterministically so for a
  /// given replay file.
  bool save_state(std::vector<std::uint8_t>& out) const override;
  bool restore_state(std::span<const std::uint8_t> in) override;

  [[nodiscard]] IngestCounters ingest_counters() const override;
  [[nodiscard]] IngestStats stats() const;

 private:
  /// True once window `cycle` is fully published on our side of the wire:
  /// the feed (an OSSE capture) interleaves truth frames, and the window-k
  /// truth must be in so verification metrics stay available.
  [[nodiscard]] bool window_complete(int cycle) const;
  /// Decode everything buffered, routing frames to queue/ring/high-water.
  /// `cycle` is the window produce() waits on: truths for cycles at or
  /// below `cycle - truth_buffer` are evicted and not re-admitted.
  void drain_decoder(int cycle);
  /// Reopens the transport, retrying every read_timeout_ms; gives up
  /// (throwing) only when the produce timeout budget runs out.
  void reconnect(double budget_ms);

  IngestStreamConfig cfg_;
  std::unique_ptr<TailStream> source_;
  const da::ObservationOperator& h_;
  const da::DiagonalR& r_;
  FrameDecoder decoder_;
  bool connected_once_ = false;

  mutable std::mutex mu_;  ///< guards queue_, ring_, delivered_, stats below
  BatchQueue queue_;       ///< drop-oldest at cfg_.queue_capacity
  TruthRing ring_;
  std::vector<std::uint8_t> delivered_;  ///< per-window delivered-batch ledger
  std::int32_t high_water_ = -1;
  std::uint64_t reconnects_ = 0;
  std::uint64_t heartbeat_timeouts_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  WireStats wire_base_;  ///< persisted totals from before a restore
};

}  // namespace turbda::stream::ingest
