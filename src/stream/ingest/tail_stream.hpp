// File-tailing transport: consume framed observation bytes appended to a
// file by a feeder process (the classic "drop files, tail them" ingestion
// topology), or replay a finalized recording deterministically.
//
// Two behaviors from one knob:
//   - follow mode (stop_at_eof = false): EOF means "no new bytes yet" — the
//     read reports kTimeout and the caller keeps polling; a missing or
//     replaced file reports kUnavailable and connect() reopens it (with the
//     caller's backoff), picking up where the byte offset left off.
//   - replay mode (stop_at_eof = true): the file is complete before the run
//     starts; EOF flips exhausted() and the consumer drains out. Replay is
//     fully deterministic, so one recorded (even deliberately corrupted)
//     wire capture reruns bitwise identically: the cycle benchmark replays
//     its captures this way, and test_ingest checks a replay against the
//     stream it was recorded from.
#pragma once

#include <cstdio>
#include <string>

#include "stream/ingest/ingest_source.hpp"

namespace turbda::stream::ingest {

struct TailStreamConfig {
  std::string path;
  bool stop_at_eof = false;
  /// Follow mode: one EOF-wait slice (bounded sleep before re-checking).
  static constexpr int poll_interval_ms = 10;
};

class TailStream final : public IngestSource {
 public:
  explicit TailStream(TailStreamConfig cfg);
  ~TailStream() override;

  TailStream(const TailStream&) = delete;
  TailStream& operator=(const TailStream&) = delete;

  Status connect() override;
  Status read_some(std::span<std::uint8_t> buf, int timeout_ms, std::size_t& got) override;
  void close() override;
  [[nodiscard]] bool exhausted() const override { return exhausted_; }

 private:
  TailStreamConfig cfg_;
  std::FILE* f_ = nullptr;
  long offset_ = 0;  ///< consumed bytes survive a reopen
  bool exhausted_ = false;
};

}  // namespace turbda::stream::ingest
