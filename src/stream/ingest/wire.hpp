// CRC-framed little-endian wire protocol for live observation delivery.
//
// A live feed is a byte stream over an unreliable transport: connections die
// mid-frame, bytes flip in flight, and a reconnecting feeder retransmits
// windows it already sent. The framing mirrors the checkpoint file idiom
// (magic + format version + payload length + payload + CRC-32 trailer,
// common/bytes little-endian codec) so a consumer can *prove* a frame is
// intact before acting on it, and — unlike the checkpoint loader, which
// refuses and stops — the decoder here *resynchronizes*: a torn or corrupt
// frame is skipped byte-by-byte until the next magic boundary, the loss is
// counted, and decoding continues. Garbage can never turn into observations,
// only into `frames_corrupt` ticks.
//
// Three frame kinds share the framing:
//   kObs       — one ObsBatch (window index, validity/arrival stamps, values);
//   kTruth     — the nature-run state for a window (OSSE feeds only, so the
//                consumer can verify RMSE; operational feeds omit them);
//   kHeartbeat — feeder liveness + high-water window mark, so a consumer can
//                distinguish "link idle" from "link dead" and knows when a
//                window's delivery set is complete.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "stream/observation_stream.hpp"

namespace turbda::stream::ingest {

inline constexpr std::uint32_t kWireMagic = 0x424F4454u;  // "TDOB" LE
inline constexpr std::uint32_t kWireVersion = 1;
/// Header bytes ahead of the payload: magic + version + payload length.
inline constexpr std::size_t kWireHeaderBytes = 4 + 4 + 8;
/// Sanity bound used during resynchronization: a header whose length field
/// exceeds this is treated as corrupt rather than waited on forever.
inline constexpr std::uint64_t kMaxFramePayloadBytes = 1ull << 24;  // 16 MiB

enum class FrameKind : std::uint8_t {
  kObs = 1,
  kTruth = 2,
  kHeartbeat = 3,
};

/// One successfully decoded (CRC-verified) frame.
struct DecodedFrame {
  FrameKind kind = FrameKind::kHeartbeat;
  ObsBatch obs;               ///< kObs
  std::int32_t cycle = 0;     ///< kTruth: observed window; kHeartbeat: high-water mark
  std::vector<double> state;  ///< kTruth: nature-run state at end of `cycle`
  std::uint64_t seq = 0;      ///< kHeartbeat: feeder send sequence number
};

/// Cumulative decoder health counters: IngestStream::stats() reports them,
/// and the runner mirrors them into StreamCycleMetrics, so a damaged feed
/// shows up as counts instead of bad data.
struct WireStats {
  std::uint64_t frames_decoded = 0;   ///< CRC-verified frames handed out
  std::uint64_t frames_corrupt = 0;   ///< header/CRC/payload check failures
  std::uint64_t frames_resynced = 0;  ///< good frames found after discarding bytes
  std::uint64_t bytes_discarded = 0;  ///< bytes skipped hunting for a magic boundary
  std::uint64_t heartbeats = 0;       ///< kHeartbeat frames among frames_decoded
};

/// Appends one framed message (header + payload + CRC trailer) to `out`.
void encode_obs_frame(const ObsBatch& b, std::vector<std::uint8_t>& out);
void encode_truth_frame(std::int32_t cycle, std::span<const double> state,
                        std::vector<std::uint8_t>& out);
void encode_heartbeat_frame(std::int32_t high_water_cycle, std::uint64_t seq,
                            std::vector<std::uint8_t>& out);

/// Incremental resynchronizing decoder. Feed it transport bytes in whatever
/// chunks arrive; pull verified frames with next(). A frame split across
/// feed() calls is buffered until complete (a torn frame at a connection
/// drop is flushed as corrupt once fresher bytes rule it out).
class FrameDecoder {
 public:
  /// Appends raw transport bytes to the internal buffer.
  void feed(std::span<const std::uint8_t> data);

  /// Decodes the next verified frame into `out`. Returns false when the
  /// buffer holds no complete frame (call feed() with more bytes). Corrupt
  /// regions are skipped internally: next() never returns garbage.
  bool next(DecodedFrame& out);

  [[nodiscard]] const WireStats& stats() const { return stats_; }
  /// Most recent decode failure (kCorruptData for CRC/payload damage,
  /// kUnsupported for a future format version); ok before any.
  [[nodiscard]] const Status& last_error() const { return last_error_; }
  /// Bytes currently buffered (torn-frame tail awaiting more input).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  /// Drops `n` bytes from the scan position, recording the loss.
  void discard(std::size_t n);

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< scan offset into buf_ (compacted periodically)
  bool resyncing_ = false;  ///< bytes were discarded since the last good frame
  WireStats stats_;
  Status last_error_;
};

}  // namespace turbda::stream::ingest
