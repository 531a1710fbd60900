// File-tailing transport: consume framed observation bytes appended to a
// file by a feeder process (the classic "drop files, tail them" ingestion
// topology), or replay a finalized recording deterministically.
//
// Two behaviors from one knob:
//   - follow mode (stop_at_eof = false): EOF means "no new bytes yet" — the
//     read reports kTimeout and the caller keeps polling. A feeder restart
//     is survived by a reopen: when, at EOF, the path names another file (a
//     new one renamed over it) or a file shorter than what was consumed
//     (truncated in place), the read closes the file and reports
//     kUnavailable; connect() then reads it from byte 0, and the
//     IngestStream ledger drops the windows that replays.
//   - replay mode (stop_at_eof = true): the file is complete before the run
//     starts; EOF flips exhausted() and the consumer drains out. Replay is
//     fully deterministic, so one recorded (even deliberately corrupted)
//     wire capture reruns bitwise identically: the cycle benchmark replays
//     its captures this way, and test_ingest checks a replay against the
//     stream it was recorded from.
//
// Status vocabulary (precise on purpose, IngestStream branches on it):
//   Ok           — `got` bytes were read (> 0);
//   kTimeout     — nothing arrived within the wait; the feed may be idle or
//                  dead — staleness detection above decides which;
//   kUnavailable — the file is absent, unreadable or replaced; connect()
//                  again;
//   anything else — a non-retryable transport failure.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "common/status.hpp"

namespace turbda::stream::ingest {

struct TailStreamConfig {
  std::string path;
  bool stop_at_eof = false;
  /// Follow mode: one EOF-wait slice (bounded sleep before re-checking).
  static constexpr int poll_interval_ms = 10;
};

class TailStream {
 public:
  explicit TailStream(TailStreamConfig cfg);
  ~TailStream();

  TailStream(const TailStream&) = delete;
  TailStream& operator=(const TailStream&) = delete;

  /// Opens the file at the consumed offset, or at byte 0 when it is another
  /// file or a shorter one. kUnavailable while the file is absent.
  /// Idempotent when already open.
  Status connect();
  /// Reads up to buf.size() bytes, waiting at most timeout_ms for appends;
  /// kUnavailable, with the file closed, once the path names a replacement.
  Status read_some(std::span<std::uint8_t> buf, int timeout_ms, std::size_t& got);
  /// Closes the file; connect() reopens it.
  void close();
  /// True once a replay file has been read to its end; follow mode never is.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

 private:
  TailStreamConfig cfg_;
  std::FILE* f_ = nullptr;
  long offset_ = 0;  ///< consumed bytes survive a reopen of the same file
  dev_t dev_ = 0;    ///< identity of the file offset_ counts into
  ino_t ino_ = 0;
  bool exhausted_ = false;
};

}  // namespace turbda::stream::ingest
