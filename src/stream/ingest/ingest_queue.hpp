// Bounded staging queue between the wire decoder and the cycling driver.
//
// Backpressure policy is drop-oldest: when a slow consumer lets the queue
// fill, the batch that has waited longest is evicted to admit the new one —
// in a real-time assimilation loop the freshest window is always the most
// valuable, and an old batch that has not been collected yet is exactly the
// one the staleness policy would discount hardest anyway. Every eviction is
// counted and traced so a saturated queue is visible, never silent.
//
// One mutex guards the deque; pushes come from the produce() pump and pops
// from the driver's collect(), so contention is two threads at worst and
// the critical sections are a few pointer moves.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "stream/observation_stream.hpp"
#include "telemetry/trace.hpp"

namespace turbda::stream::ingest {

class IngestQueue {
 public:
  explicit IngestQueue(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

  /// Enqueues `b`; returns false when an older batch was evicted for room.
  bool push(ObsBatch&& b) {
    std::lock_guard<std::mutex> lk(mu_);
    bool evicted = false;
    if (q_.size() >= capacity_) {
      q_.pop_front();
      ++drops_;
      evicted = true;
      TURBDA_TRACE_INSTANT("ingest.queue_drop");
    }
    q_.push_back(std::move(b));
    return !evicted;
  }

  /// Moves every batch with arrival_cycles <= now into `out`, appended in
  /// window order (stragglers first) — the ObservationStream::collect
  /// contract.
  void collect(double now_cycles, std::vector<ObsBatch>& out) {
    std::lock_guard<std::mutex> lk(mu_);
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

  /// Snapshot of the still-queued batches (checkpointing).
  [[nodiscard]] std::vector<ObsBatch> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {q_.begin(), q_.end()};
  }

  void restore(std::vector<ObsBatch>&& batches) {
    std::lock_guard<std::mutex> lk(mu_);
    q_.assign(std::make_move_iterator(batches.begin()), std::make_move_iterator(batches.end()));
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
  }
  [[nodiscard]] std::uint64_t drops() const {
    std::lock_guard<std::mutex> lk(mu_);
    return drops_;
  }
  void set_drops(std::uint64_t d) {
    std::lock_guard<std::mutex> lk(mu_);
    drops_ = d;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<ObsBatch> q_;
  std::uint64_t drops_ = 0;
};

}  // namespace turbda::stream::ingest
