#include "stream/ingest/socket_stream.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace turbda::stream::ingest {

namespace {

Status errno_status(StatusCode code, const char* what) {
  return Status(code, std::string(what) + ": " + std::strerror(errno));
}

/// Bounded wait for readability/writability; 1 ready, 0 timeout, -1 error.
int poll_fd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r >= 0 || errno != EINTR) return r;
  }
}

}  // namespace

SocketStream::SocketStream(SocketStreamConfig cfg) : cfg_(cfg) {}

SocketStream::~SocketStream() { close(); }

Status SocketStream::ensure_listener() {
  if (listen_fd_ >= 0) return Status::Ok();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status(StatusCode::kFailed, "socket()");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status s = errno_status(StatusCode::kFailed, "bind()");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 1) != 0) {
    const Status s = errno_status(StatusCode::kFailed, "listen()");
    ::close(fd);
    return s;
  }
  socklen_t alen = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0)
    bound_port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  return Status::Ok();
}

Status SocketStream::connect() {
  if (conn_fd_ >= 0) return Status::Ok();
  const Status s = ensure_listener();
  if (!s.ok()) return s;
  const int r = poll_fd(listen_fd_, POLLIN, cfg_.connect_timeout_ms);
  if (r < 0) return errno_status(StatusCode::kFailed, "poll(listen)");
  if (r == 0) return Status(StatusCode::kUnavailable, "no feeder connection pending");
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return errno_status(StatusCode::kUnavailable, "accept()");
  conn_fd_ = fd;
  return Status::Ok();
}

Status SocketStream::read_some(std::span<std::uint8_t> buf, int timeout_ms, std::size_t& got) {
  got = 0;
  if (conn_fd_ < 0) return Status(StatusCode::kUnavailable, "not connected");
  const int r = poll_fd(conn_fd_, POLLIN, timeout_ms);
  if (r < 0) {
    close_conn();
    return errno_status(StatusCode::kUnavailable, "poll(conn)");
  }
  if (r == 0) return Status(StatusCode::kTimeout, "no bytes within timeout");
  const ssize_t n = ::recv(conn_fd_, buf.data(), buf.size(), 0);
  if (n > 0) {
    got = static_cast<std::size_t>(n);
    return Status::Ok();
  }
  close_conn();
  if (n == 0) return Status(StatusCode::kUnavailable, "peer closed the connection");
  return errno_status(StatusCode::kUnavailable, "recv()");
}

void SocketStream::close_conn() {
  if (conn_fd_ >= 0) {
    ::close(conn_fd_);
    conn_fd_ = -1;
  }
}

void SocketStream::close() {
  close_conn();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

SocketWriter::~SocketWriter() { close(); }

Status SocketWriter::connect(const std::string& host, std::uint16_t port, int timeout_ms) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status(StatusCode::kFailed, "socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(StatusCode::kInvalidArgument, "bad host address: " + host);
  }
  // Non-blocking dial bounded by poll: a dead listener must cost one
  // timeout slice, not a kernel-default multi-second connect stall.
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return Status(StatusCode::kUnavailable, "listener not reachable");
  }
  const int r = poll_fd(fd, POLLOUT, timeout_ms);
  int soerr = 0;
  socklen_t slen = sizeof soerr;
  if (r <= 0 || ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0 || soerr != 0) {
    ::close(fd);
    return Status(StatusCode::kUnavailable, "connect() did not complete");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) & ~O_NONBLOCK);
  // The feeder pushes many small frames under pacing; without NODELAY the
  // kernel would batch them behind ACKs and skew delivery timing.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  return Status::Ok();
}

Status SocketWriter::send_all(std::span<const std::uint8_t> data) {
  if (fd_ < 0) return Status(StatusCode::kUnavailable, "not connected");
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      close();
      return errno_status(StatusCode::kUnavailable, "send()");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

void SocketWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace turbda::stream::ingest
