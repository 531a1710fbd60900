// Thread-local tracing spans — where cycle time goes. How much and how often
// live in the per-cycle record, stream::StreamCycleMetrics.
//
// Design constraints, in priority order:
//
//  1. Zero effect on numerical results. Spans only read the clock and write
//     into pre-sized per-thread buffers; no instrumented code path branches
//     on telemetry state, so every bitwise-determinism test must pass with
//     tracing enabled or disabled.
//  2. Near-zero overhead when disabled. TURBDA_SPAN compiles to one relaxed
//     atomic load and a predictable branch (a few ns); no allocation, no
//     clock read, no function call. Hot kernels (FFT plan execution, pool
//     tasks) can therefore stay instrumented in production builds.
//  3. No cross-thread contention when enabled. Each thread owns a
//     single-producer span ring buffer; recording takes two steady_clock
//     reads and one ring slot write. The registry mutex is touched once per
//     thread (first span) and at snapshot/export time only. When a ring
//     wraps, the oldest spans are overwritten and counted as dropped — a
//     bounded-memory tail, never a stall.
//
// Spans nest lexically via RAII and record their depth, so exports preserve
// the call-tree shape. The export format is Chrome trace-event JSON
// ("X" complete events + "i" instants), viewable in chrome://tracing or
// https://ui.perfetto.dev.
//
// Usage:
//   telemetry::TraceCollector::instance().enable();
//   { TURBDA_SPAN("letkf.eigh");  ...work...; }   // names must be literals
//   TURBDA_TRACE_INSTANT("status.deadline_miss");
//   telemetry::TraceCollector::instance().write_chrome_trace("trace.json");
//
// Snapshots and clear() are meant for quiescent points (between runs, after
// joining/idling worker threads): a snapshot taken while a wrapped ring is
// actively being overwritten may observe a torn oldest record.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace turbda::telemetry {

namespace detail {
/// Process-wide enable flag, constant-initialized so TURBDA_SPAN is safe
/// during static initialization. Read relaxed on every span entry.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True when span recording is active (one relaxed load).
[[nodiscard]] inline bool tracing_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// One recorded event. Span names must be string literals (or otherwise
/// outlive the collector): only the pointer is stored.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;   ///< start, ns since the collector epoch
  std::uint64_t dur_ns = 0;  ///< 0 for instants
  std::uint32_t depth = 0;   ///< lexical nesting depth at open
  bool instant = false;
};

/// Snapshot of one thread's buffer: records in completion order.
struct ThreadTrace {
  std::uint32_t tid = 0;     ///< stable per-registration small id
  std::string label;         ///< "main", "pool-worker-3", ...
  std::uint64_t dropped = 0; ///< spans overwritten by ring wrap-around
  std::vector<SpanRecord> spans;
};

class TraceSpan;

class TraceCollector {
 public:
  /// Process-wide collector (what TURBDA_SPAN records into).
  static TraceCollector& instance();

  /// Start/stop recording. enable() also re-anchors the time epoch so
  /// exported timestamps start near zero for the traced run.
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const { return tracing_enabled(); }

  /// Drops all recorded spans and thread registrations. Must not race
  /// active span recording (call at quiescent points).
  void clear();

  /// Ring capacity (spans per thread) for buffers registered after the
  /// call; pair with clear() to apply to every thread. Rounded up to 1.
  void set_capacity(std::size_t spans_per_thread);

  /// Nanoseconds since the collector epoch (for explicit complete events).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Zero-duration marker event on the calling thread (degradation events,
  /// watchdog firings, ...). No-op when disabled.
  void instant(const char* name);

  /// Record an explicit [t0_ns, t0_ns + dur_ns) span on the calling thread
  /// — for synthesized aggregate spans (e.g. LETKF per-phase totals laid
  /// out inside their chunk span). No-op when disabled.
  void complete(const char* name, std::uint64_t t0_ns, std::uint64_t dur_ns);

  /// Copies every thread's surviving records (completion order per thread).
  [[nodiscard]] std::vector<ThreadTrace> snapshot() const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  [[nodiscard]] std::string chrome_json() const;
  Status write_chrome_trace(const std::string& path) const;

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  struct Buf;  ///< per-thread ring (implementation detail, public for TLS)

 private:
  friend class TraceSpan;

  TraceCollector();
  ~TraceCollector();

  /// The calling thread's buffer, registering it on first use (and after
  /// clear(), via an epoch check).
  Buf& local_buf();
  void push(const SpanRecord& rec);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buf>> bufs_;
  std::size_t capacity_;
  std::uint32_t next_tid_ = 0;
  std::atomic<std::uint64_t> epoch_{1};
  std::chrono::steady_clock::time_point t0_;
};

/// Label the calling thread in traces ("main", "pool-worker-2", ...). Takes
/// effect at the thread's next (re-)registration; call before first span.
void set_thread_label(std::string label);

/// RAII span: records name/thread/start/duration into the calling thread's
/// ring on destruction. When tracing is disabled at construction this is one
/// atomic load — no clock read, nothing recorded.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!tracing_enabled()) [[likely]]
      return;
    begin(name);
  }
  ~TraceSpan() {
    if (armed_) end();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void begin(const char* name);  // out of line: the enabled path only
  void end();

  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  std::uint32_t depth_ = 0;
  bool armed_ = false;
};

}  // namespace turbda::telemetry

#define TURBDA_SPAN_CONCAT2(a, b) a##b
#define TURBDA_SPAN_CONCAT(a, b) TURBDA_SPAN_CONCAT2(a, b)

/// Trace the enclosing scope as a span named `name` (a string literal).
#define TURBDA_SPAN(name) \
  ::turbda::telemetry::TraceSpan TURBDA_SPAN_CONCAT(turbda_span_, __COUNTER__)(name)

/// Record a zero-duration marker event named `name` (a string literal).
#define TURBDA_TRACE_INSTANT(name) ::turbda::telemetry::TraceCollector::instance().instant(name)
