// Localhost TCP transport for live observation ingestion.
//
// SocketStream is the consumer side: it binds and listens on 127.0.0.1:port
// and treats each accepted feeder connection as the link. When the feeder
// dies, re-accepting the next connection IS the reconnect: the consumer owns
// the well-known port, so a restarted feeder finds it again (the usual
// operational topology).
//
// SocketWriter is the feeder side: a dialing client with send_all(). Both
// ends are plain blocking POSIX sockets driven through poll() timeouts so
// every wait is bounded and the caller's backoff policy stays in charge.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "stream/ingest/ingest_source.hpp"

namespace turbda::stream::ingest {

struct SocketStreamConfig {
  std::uint16_t port = 0;        ///< 0: the kernel picks one (bound_port())
  int connect_timeout_ms = 250;  ///< one accept wait slice
};

class SocketStream final : public IngestSource {
 public:
  explicit SocketStream(SocketStreamConfig cfg);
  ~SocketStream() override;

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  Status connect() override;
  Status read_some(std::span<std::uint8_t> buf, int timeout_ms, std::size_t& got) override;
  void close() override;

  /// Bound port once connect() has run (resolves port 0 to the kernel's
  /// pick).
  [[nodiscard]] std::uint16_t bound_port() const { return bound_port_; }

 private:
  Status ensure_listener();
  void close_conn();

  SocketStreamConfig cfg_;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::uint16_t bound_port_ = 0;
};

/// Feeder-side client: dial the consumer, push framed bytes.
class SocketWriter {
 public:
  SocketWriter() = default;
  ~SocketWriter();

  SocketWriter(const SocketWriter&) = delete;
  SocketWriter& operator=(const SocketWriter&) = delete;

  /// Dials host:port; kUnavailable while the listener is absent.
  Status connect(const std::string& host, std::uint16_t port, int timeout_ms = 250);
  /// Writes the whole span; kUnavailable when the peer went away mid-send.
  Status send_all(std::span<const std::uint8_t> data);
  void close();

 private:
  int fd_ = -1;
};

}  // namespace turbda::stream::ingest
