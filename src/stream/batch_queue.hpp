// What every observation stream holds between produce() and collect(): the
// queue of batches not yet delivered, the ring of recent truth states, and
// the byte layout of one ObsBatch, shared by the checkpoint blobs of
// SyntheticStream, FaultyStream and IngestStream and by the wire's kObs
// payload.
//
// Neither class locks: each stream guards them with its own mutex.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "stream/observation_stream.hpp"
#include "telemetry/trace.hpp"

namespace turbda::stream {

/// Appends `b`: i32 window, f64 valid and arrival stamps, then the values
/// as a length-prefixed f64 vector.
inline void put_batch(std::vector<std::uint8_t>& out, const ObsBatch& b) {
  bytes::put_i32(out, b.cycle);
  bytes::put_f64(out, b.valid_cycles);
  bytes::put_f64(out, b.arrival_cycles);
  bytes::put_f64_span(out, b.y);
}

/// Reads one batch written by put_batch; false on malformed input.
inline bool read_batch(bytes::Reader& rd, ObsBatch& b) {
  b.cycle = rd.i32();
  b.valid_cycles = rd.f64();
  b.arrival_cycles = rd.f64();
  return rd.f64_vec(b.y);
}

/// Batches waiting for their virtual arrival stamp, in the order they were
/// pushed.
///
/// With a capacity the queue applies drop-oldest backpressure: a push into a
/// full queue evicts the batch that has waited longest. In a real-time
/// assimilation loop the freshest window is the most valuable, and an old
/// batch not collected yet is the one the staleness policy would discount
/// hardest anyway. Every eviction is counted and traced, so a saturated
/// queue is visible, never silent.
class BatchQueue {
 public:
  /// `capacity` 0 leaves the queue unbounded.
  explicit BatchQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  void push(ObsBatch&& b) {
    if (capacity_ > 0 && q_.size() >= capacity_) {
      q_.pop_front();
      ++drops_;
      TURBDA_TRACE_INSTANT("ingest.queue_drop");
    }
    q_.push_back(std::move(b));
  }

  /// Moves every batch with arrival_cycles <= now into `out`, appended in
  /// window order (stragglers first): the ObservationStream::collect
  /// contract.
  void collect(double now_cycles, std::vector<ObsBatch>& out) {
    const std::size_t first = out.size();
    for (auto it = q_.begin(); it != q_.end();) {
      if (it->arrival_cycles <= now_cycles) {
        out.push_back(std::move(*it));
        it = q_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const ObsBatch& a, const ObsBatch& b) { return a.cycle < b.cycle; });
  }

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }
  void set_drops(std::uint64_t d) { drops_ = d; }

  /// Appends the batch count, then every batch (put_batch). The drop count
  /// is the owner's to save.
  void save(std::vector<std::uint8_t>& out) const {
    bytes::put_u64(out, q_.size());
    for (const ObsBatch& b : q_) put_batch(out, b);
  }

  /// Replaces the batches with those save() wrote; false on malformed input
  /// or a batch with fewer than `min_values` or more than `max_values`
  /// values.
  bool restore(bytes::Reader& rd, std::size_t min_values, std::size_t max_values) {
    const std::uint64_t n = rd.u64();
    std::deque<ObsBatch> q;
    for (std::uint64_t i = 0; i < n && rd.ok(); ++i) {
      ObsBatch b;
      if (!read_batch(rd, b) || b.y.size() < min_values || b.y.size() > max_values) return false;
      q.push_back(std::move(b));
    }
    if (!rd.ok()) return false;
    q_ = std::move(q);
    return true;
  }

 private:
  std::size_t capacity_;
  std::deque<ObsBatch> q_;
  std::uint64_t drops_ = 0;
};

/// The truth states of recent windows, oldest first.
class TruthRing {
 public:
  /// Drops every state of a window before `oldest`.
  void keep_from(int oldest) {
    std::erase_if(ring_, [oldest](const auto& e) { return e.first < oldest; });
  }

  /// Adds the state of window `cycle` unless the ring holds one already.
  void add(int cycle, std::vector<double> state) {
    if (find(cycle) == nullptr) ring_.emplace_back(cycle, std::move(state));
  }

  /// The state of window `cycle`, or nullptr. It stays valid until
  /// keep_from() drops that window or restore() replaces the ring.
  [[nodiscard]] const std::vector<double>* find(int cycle) const {
    for (const auto& [c, state] : ring_)
      if (c == cycle) return &state;
    return nullptr;
  }

  /// Appends the entry count, then each window (i32) and its state (a
  /// length-prefixed f64 vector).
  void save(std::vector<std::uint8_t>& out) const {
    bytes::put_u64(out, ring_.size());
    for (const auto& [c, state] : ring_) {
      bytes::put_i32(out, c);
      bytes::put_f64_span(out, state);
    }
  }

  /// Replaces the ring with what save() wrote; false on malformed input or
  /// a state whose size is outside [min_size, max_size].
  bool restore(bytes::Reader& rd, std::size_t min_size, std::size_t max_size) {
    const std::uint64_t n = rd.u64();
    std::deque<std::pair<int, std::vector<double>>> ring;
    for (std::uint64_t i = 0; i < n && rd.ok(); ++i) {
      const int c = rd.i32();
      std::vector<double> state;
      if (!rd.f64_vec(state) || state.size() < min_size || state.size() > max_size) return false;
      ring.emplace_back(c, std::move(state));
    }
    if (!rd.ok()) return false;
    ring_ = std::move(ring);
    return true;
  }

 private:
  std::deque<std::pair<int, std::vector<double>>> ring_;
};

}  // namespace turbda::stream
