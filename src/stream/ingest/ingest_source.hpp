// Transport abstraction under the live-ingestion decoder.
//
// An IngestSource is a reconnectable byte pipe: the IngestStream pumps it
// with bounded-timeout reads, feeds whatever arrives to the FrameDecoder,
// and drives (re)connection itself through the Backoff policy. Keeping the
// interface at the byte level — not the frame level — means every fault the
// wire layer must survive (torn frames at a disconnect, partial reads,
// replayed bytes after a reconnect) flows through the same decoder path no
// matter the transport.
//
// Status vocabulary (precise on purpose, the caller branches on it):
//   Ok           — `got` bytes were read (> 0);
//   kTimeout     — nothing arrived within the wait; the link may be idle or
//                  dead — staleness detection above decides which;
//   kUnavailable — the link is down (peer closed, reset, not yet open);
//                  reconnect with backoff;
//   anything else — a non-retryable transport failure.
#pragma once

#include <cstdint>
#include <span>

#include "common/status.hpp"

namespace turbda::stream::ingest {

class IngestSource {
 public:
  virtual ~IngestSource() = default;

  /// (Re)establish the transport. kUnavailable when the peer is absent —
  /// retry after a backoff delay. Idempotent when already connected.
  virtual Status connect() = 0;

  /// Reads up to buf.size() bytes, waiting at most timeout_ms.
  virtual Status read_some(std::span<std::uint8_t> buf, int timeout_ms, std::size_t& got) = 0;

  /// Tears the transport down; connect() may bring it back.
  virtual void close() = 0;

  /// True once the source can never yield more bytes (e.g. a finalized
  /// replay file fully consumed). Live transports stay false forever.
  [[nodiscard]] virtual bool exhausted() const { return false; }
};

}  // namespace turbda::stream::ingest
