// Outside-in layer probes for the cycle benchmark's traced pass.
//
// Each probe is a forwarding decorator around one public interface the
// RealtimeRunner calls into — ForecastModel, Filter and ObservationStream —
// in the style of models::ScaledForecast. It forwards every virtual unchanged,
// so a traced run is bitwise identical to a bare one, and records one span per
// layer call (name, start, end, thread) into a SpanLog. The log stays in
// memory while the run is timed and is written out afterwards as Chrome
// trace-event JSON (the format tools/check_trace.py validates).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "da/filter.hpp"
#include "models/forecast_model.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/observation_stream.hpp"

namespace cyclebench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;  ///< static string: the layer call
  Clock::time_point begin, end;
  int tid;  ///< 0 = the thread that created the log
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()), threads_{std::this_thread::get_id()} {}

  void add(const char* name, Clock::time_point begin, Clock::time_point end) {
    const std::lock_guard<std::mutex> lk(mu_);
    const auto id = std::this_thread::get_id();
    auto it = std::find(threads_.begin(), threads_.end(), id);
    if (it == threads_.end()) it = threads_.insert(threads_.end(), id);
    spans_.push_back(Span{name, begin, end, static_cast<int>(it - threads_.begin())});
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Writes "X" events (microseconds since the log was created) plus the
  /// process/thread name metadata trace viewers need.
  bool write_chrome_trace(const std::string& path) const {
    const std::lock_guard<std::mutex> lk(mu_);
    std::ofstream f(path, std::ios::trunc);
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    f.precision(15);
    f << "{\"traceEvents\": [\n"
      << R"({"ph": "M", "pid": 1, "tid": 0, "name": "process_name", )"
      << R"("args": {"name": "cycle_bench"}})";
    for (std::size_t t = 0; t < threads_.size(); ++t)
      f << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": " << t
        << R"(, "name": "thread_name", "args": {"name": ")"
        << (t == 0 ? std::string("main") : "thread-" + std::to_string(t)) << "\"}}";
    for (const Span& s : spans_)
      f << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid << ", \"name\": \"" << s.name
        << "\", \"ts\": " << us(s.begin) << ", \"dur\": " << us(s.end) - us(s.begin) << "}";
    f << "\n]}\n";
    return f.good();
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards threads_ and spans_
  std::vector<std::thread::id> threads_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), name_(name), begin_(Clock::now()) {}
  ~ScopedSpan() { log_.add(name_, begin_, Clock::now()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  Clock::time_point begin_;
};

class ForecastProbe final : public turbda::models::ForecastModel {
 public:
  ForecastProbe(turbda::models::ForecastModel& inner, SpanLog& log) : inner_(inner), log_(log) {}

  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }
  void forecast(std::span<double> state) override {
    const ScopedSpan s(log_, "sqg.forecast");
    inner_.forecast(state);
  }
  void forecast_batch(std::span<double> states, std::size_t count) override {
    const ScopedSpan s(log_, "sqg.forecast_batch");
    inner_.forecast_batch(states, count);
  }
  [[nodiscard]] bool concurrent_safe() const override { return inner_.concurrent_safe(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  turbda::models::ForecastModel& inner_;
  SpanLog& log_;
};

class FilterProbe final : public turbda::da::Filter {
 public:
  /// try_analyze outcomes plus the global pool's busy time inside the calls.
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
    std::uint64_t pool_busy_ns = 0;
    double wall_ns = 0.0;
  };

  FilterProbe(turbda::da::Filter& inner, SpanLog& log) : inner_(inner), log_(log) {}

  void prepare(const turbda::da::ObservationOperator& h, const turbda::da::DiagonalR& r) override {
    const ScopedSpan s(log_, "da.prepare");
    inner_.prepare(h, r);
  }
  void analyze(turbda::da::Ensemble& ensemble, std::span<const double> y,
               const turbda::da::ObservationOperator& h, const turbda::da::DiagonalR& r) override {
    const ScopedSpan s(log_, "da.analyze");
    inner_.analyze(ensemble, y, h, r);
  }
  turbda::Status try_analyze(turbda::da::Ensemble& ensemble, std::span<const double> y,
                             const turbda::da::ObservationOperator& h,
                             const turbda::da::DiagonalR& r,
                             const turbda::da::AnalysisOptions& opts = {},
                             turbda::da::AnalysisStats* stats = nullptr) override {
    const auto& pool = turbda::parallel::global_pool();
    const std::uint64_t busy0 = pool.stats().busy_ns;
    const auto t0 = Clock::now();
    const turbda::Status st = inner_.try_analyze(ensemble, y, h, r, opts, stats);
    const auto t1 = Clock::now();
    log_.add("da.try_analyze", t0, t1);
    const std::lock_guard<std::mutex> lk(mu_);
    ++totals_.calls;
    if (!st.ok()) ++totals_.failed;
    totals_.pool_busy_ns += pool.stats().busy_ns - busy0;
    totals_.wall_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    return st;
  }
  bool save_state(std::vector<std::uint8_t>& out) const override { return inner_.save_state(out); }
  bool restore_state(std::span<const std::uint8_t> in) override { return inner_.restore_state(in); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Totals totals() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return totals_;
  }

 private:
  turbda::da::Filter& inner_;
  SpanLog& log_;
  mutable std::mutex mu_;  ///< guards totals_ (staged analyses run on pool workers)
  Totals totals_;
};

class StreamProbe final : public turbda::stream::ObservationStream {
 public:
  StreamProbe(turbda::stream::ObservationStream& inner, SpanLog& log) : inner_(inner), log_(log) {}

  [[nodiscard]] std::size_t obs_dim() const override { return inner_.obs_dim(); }
  [[nodiscard]] const turbda::da::ObservationOperator& h() const override { return inner_.h(); }
  [[nodiscard]] const turbda::da::DiagonalR& r() const override { return inner_.r(); }
  void produce(int cycle) override {
    const ScopedSpan s(log_, "stream.produce");
    inner_.produce(cycle);
  }
  void collect(double now_cycles, std::vector<turbda::stream::ObsBatch>& out) override {
    const ScopedSpan s(log_, "stream.collect");
    inner_.collect(now_cycles, out);
  }
  [[nodiscard]] std::span<const double> truth(int cycle) const override {
    return inner_.truth(cycle);
  }
  bool save_state(std::vector<std::uint8_t>& out) const override { return inner_.save_state(out); }
  bool restore_state(std::span<const std::uint8_t> in) override { return inner_.restore_state(in); }
  [[nodiscard]] IngestCounters ingest_counters() const override {
    return inner_.ingest_counters();
  }

 private:
  turbda::stream::ObservationStream& inner_;
  SpanLog& log_;
};

}  // namespace cyclebench
