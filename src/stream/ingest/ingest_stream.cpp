#include "stream/ingest/ingest_stream.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "telemetry/trace.hpp"

namespace turbda::stream::ingest {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

IngestStream::IngestStream(IngestStreamConfig cfg, std::unique_ptr<TailStream> source,
                           const da::ObservationOperator& h, const da::DiagonalR& r)
    : cfg_(cfg), source_(std::move(source)), h_(h), r_(r), queue_(cfg.queue_capacity) {
  TURBDA_REQUIRE(source_ != nullptr, "IngestStream needs a transport");
  TURBDA_REQUIRE(cfg_.read_timeout_ms > 0 && cfg_.produce_timeout_ms > 0 &&
                     cfg_.stale_after_ms >= cfg_.read_timeout_ms && cfg_.truth_buffer >= 1,
                 "bad IngestStream configuration");
}

bool IngestStream::window_complete(int cycle) const {
  std::lock_guard<std::mutex> lk(mu_);
  return high_water_ >= cycle && ring_.find(cycle) != nullptr;
}

void IngestStream::drain_decoder(int cycle) {
  const std::uint64_t corrupt_before = decoder_.stats().frames_corrupt;
  // Truth is kept relative to the consumer, not by count: one read can
  // decode more than truth_buffer windows ahead of `cycle`, and a count
  // bound would evict the truths the consumer has not reached yet.
  const int oldest_kept = cycle - cfg_.truth_buffer + 1;
  ring_.keep_from(oldest_kept);
  DecodedFrame f;
  while (decoder_.next(f)) {
    switch (f.kind) {
      case FrameKind::kObs:
        high_water_ = std::max(high_water_, f.obs.cycle);
        queue_.push(std::move(f.obs));
        break;
      case FrameKind::kTruth:
        high_water_ = std::max(high_water_, f.cycle);
        if (f.cycle >= oldest_kept) ring_.add(f.cycle, std::move(f.state));
        break;
      case FrameKind::kHeartbeat:
        high_water_ = std::max(high_water_, f.cycle);
        break;
    }
  }
  if (decoder_.stats().frames_corrupt > corrupt_before)
    TURBDA_TRACE_INSTANT("ingest.frame_corrupt");
}

void IngestStream::reconnect(double budget_ms) {
  const auto t0 = Clock::now();
  for (std::uint64_t attempts = 1;; ++attempts) {
    const Status s = source_->connect();
    if (s.ok()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (connected_once_) ++reconnects_;
      }
      if (connected_once_) TURBDA_TRACE_INSTANT("ingest.reconnect");
      connected_once_ = true;
      return;
    }
    TURBDA_REQUIRE(s.code() == StatusCode::kUnavailable,
                   "ingest transport failure — " << s.to_string());
    // Reopening a local file is all there is to retry: one poll slice apart.
    TURBDA_REQUIRE(ms_since(t0) + cfg_.read_timeout_ms <= budget_ms,
                   "ingest: transport did not come back within the produce timeout ("
                       << attempts << " attempts)");
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.read_timeout_ms));
  }
}

void IngestStream::produce(int cycle) {
  TURBDA_SPAN("ingest.produce");
  const auto t0 = Clock::now();
  const auto budget_left = [&] { return static_cast<double>(cfg_.produce_timeout_ms) - ms_since(t0); };

  // The truth ring is pruned on every call, not only when a read decodes
  // frames: a capture decoded in one read would otherwise keep every truth.
  {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.keep_from(cycle - cfg_.truth_buffer + 1);
  }
  if (!connected_once_) reconnect(budget_left());

  std::vector<std::uint8_t> rbuf(64 * 1024);
  double quiet_ms = 0.0;
  while (!window_complete(cycle)) {
    TURBDA_REQUIRE(!source_->exhausted(),
                   "ingest: feed ended before window " << cycle << " was published");
    TURBDA_REQUIRE(budget_left() > 0.0,
                   "ingest: window " << cycle << " not published within produce timeout");
    std::size_t got = 0;
    const Status s = source_->read_some(rbuf, cfg_.read_timeout_ms, got);
    if (s.ok() && got > 0) {
      quiet_ms = 0.0;
      std::lock_guard<std::mutex> lk(mu_);
      decoder_.feed(std::span<const std::uint8_t>(rbuf.data(), got));
      drain_decoder(cycle);
    } else if (s.code() == StatusCode::kTimeout) {
      quiet_ms += static_cast<double>(cfg_.read_timeout_ms);
      if (quiet_ms >= static_cast<double>(cfg_.stale_after_ms) && !source_->exhausted()) {
        // Heartbeats flow even through idle windows, so a silent feed is a
        // dead one: reopen the file, which picks up a replacement.
        TURBDA_TRACE_INSTANT("ingest.stale");
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++heartbeat_timeouts_;
        }
        source_->close();
        reconnect(budget_left());
        quiet_ms = 0.0;
      }
    } else if (s.code() == StatusCode::kUnavailable) {
      reconnect(budget_left());
      quiet_ms = 0.0;
    } else {
      TURBDA_REQUIRE(false, "ingest transport failure — " << s.to_string());
    }
  }
}

void IngestStream::collect(double now_cycles, std::vector<ObsBatch>& out) {
  TURBDA_SPAN("ingest.collect");
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ObsBatch> got;
  queue_.collect(now_cycles, got);
  for (ObsBatch& b : got) {
    // Ledger dedup applies only to full-shape batches: a truncated frame
    // must not block the complete retransmission that could recover it.
    if (b.cycle >= 0 && b.y.size() == h_.obs_dim()) {
      const auto c = static_cast<std::size_t>(b.cycle);
      if (c < delivered_.size() && delivered_[c] != 0) {
        ++duplicates_dropped_;
        continue;
      }
      if (c >= delivered_.size()) delivered_.resize(c + 1, 0);
      delivered_[c] = 1;
    }
    out.push_back(std::move(b));
  }
}

std::span<const double> IngestStream::truth(int cycle) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double>* state = ring_.find(cycle);
  return state != nullptr ? std::span<const double>(*state) : std::span<const double>();
}

bool IngestStream::save_state(std::vector<std::uint8_t>& out) const {
  std::lock_guard<std::mutex> lk(mu_);
  bytes::put_i32(out, high_water_);
  bytes::put_blob(out, delivered_);
  queue_.save(out);
  ring_.save(out);
  bytes::put_u64(out, reconnects_);
  bytes::put_u64(out, heartbeat_timeouts_);
  bytes::put_u64(out, duplicates_dropped_);
  bytes::put_u64(out, queue_.drops());
  const WireStats& w = decoder_.stats();
  bytes::put_u64(out, wire_base_.frames_decoded + w.frames_decoded);
  bytes::put_u64(out, wire_base_.frames_corrupt + w.frames_corrupt);
  bytes::put_u64(out, wire_base_.frames_resynced + w.frames_resynced);
  bytes::put_u64(out, wire_base_.bytes_discarded + w.bytes_discarded);
  bytes::put_u64(out, wire_base_.heartbeats + w.heartbeats);
  return true;
}

bool IngestStream::restore_state(std::span<const std::uint8_t> in) {
  bytes::Reader rd(in);
  const std::int32_t high_water = rd.i32();
  std::vector<std::uint8_t> delivered;
  BatchQueue pending(cfg_.queue_capacity);
  TruthRing ring;
  if (!rd.blob(delivered) || !pending.restore(rd, 0, h_.obs_dim()) ||
      !ring.restore(rd, 0, std::numeric_limits<std::size_t>::max()))
    return false;
  const std::uint64_t reconnects = rd.u64();
  const std::uint64_t hb_timeouts = rd.u64();
  const std::uint64_t dups = rd.u64();
  const std::uint64_t qdrops = rd.u64();
  WireStats base;
  base.frames_decoded = rd.u64();
  base.frames_corrupt = rd.u64();
  base.frames_resynced = rd.u64();
  base.bytes_discarded = rd.u64();
  base.heartbeats = rd.u64();
  if (!rd.done()) return false;

  std::lock_guard<std::mutex> lk(mu_);
  queue_ = std::move(pending);
  queue_.set_drops(qdrops);
  high_water_ = high_water;
  delivered_ = std::move(delivered);
  ring_ = std::move(ring);
  reconnects_ = reconnects;
  heartbeat_timeouts_ = hb_timeouts;
  duplicates_dropped_ = dups;
  // The decoder itself restarts from zero (fresh transport bytes); reported
  // totals continue from the snapshot.
  wire_base_ = base;
  return true;
}

ObservationStream::IngestCounters IngestStream::ingest_counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  const WireStats& w = decoder_.stats();
  IngestCounters c;
  c.reconnects = reconnects_;
  c.frames_corrupt = wire_base_.frames_corrupt + w.frames_corrupt;
  c.frames_resynced = wire_base_.frames_resynced + w.frames_resynced;
  c.queue_drops = queue_.drops();
  return c;
}

IngestStats IngestStream::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  const WireStats& w = decoder_.stats();
  IngestStats s;
  s.wire.frames_decoded = wire_base_.frames_decoded + w.frames_decoded;
  s.wire.frames_corrupt = wire_base_.frames_corrupt + w.frames_corrupt;
  s.wire.frames_resynced = wire_base_.frames_resynced + w.frames_resynced;
  s.wire.bytes_discarded = wire_base_.bytes_discarded + w.bytes_discarded;
  s.wire.heartbeats = wire_base_.heartbeats + w.heartbeats;
  s.reconnects = reconnects_;
  s.heartbeat_timeouts = heartbeat_timeouts_;
  s.duplicates_dropped = duplicates_dropped_;
  s.queue_drops = queue_.drops();
  s.high_water_cycle = high_water_;
  return s;
}

}  // namespace turbda::stream::ingest
