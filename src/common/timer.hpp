// Lightweight wall-clock timing utilities used by benches and profilers.
#pragma once

#include <chrono>

namespace turbda {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

  /// Milliseconds since construction or the last reset()/lap_ms(), and
  /// restarts the interval from the same clock read: back-to-back phases
  /// cost one clock read each.
  double lap_ms() {
    const Clock::time_point now = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(now - start_).count();
    start_ = now;
    return ms;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace turbda
