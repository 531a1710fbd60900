#include "stream/ingest/tail_stream.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace turbda::stream::ingest {

TailStream::TailStream(TailStreamConfig cfg) : cfg_(cfg) {}

TailStream::~TailStream() { close(); }

Status TailStream::connect() {
  if (f_ != nullptr) return Status::Ok();
  std::FILE* f = std::fopen(cfg_.path.c_str(), "rb");
  if (f == nullptr)
    return Status(StatusCode::kUnavailable, "tail file not present: " + cfg_.path);
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0) {
    std::fclose(f);
    return Status(StatusCode::kUnavailable, "tail file not readable: " + cfg_.path);
  }
  // fseek past EOF succeeds, so a replaced file must be recognized by its
  // identity: another file (renamed over the path) or a shorter one
  // (truncated in place) is read from the top; the ledger drops the
  // windows that replays.
  if (st.st_dev != dev_ || st.st_ino != ino_ || st.st_size < offset_) offset_ = 0;
  dev_ = st.st_dev;
  ino_ = st.st_ino;
  if (std::fseek(f, offset_, SEEK_SET) != 0) {
    std::fclose(f);
    return Status(StatusCode::kUnavailable, "tail file not seekable: " + cfg_.path);
  }
  f_ = f;
  return Status::Ok();
}

Status TailStream::read_some(std::span<std::uint8_t> buf, int timeout_ms, std::size_t& got) {
  got = 0;
  if (f_ == nullptr) return Status(StatusCode::kUnavailable, "tail file not open");
  int waited_ms = 0;
  for (;;) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), f_);
    if (n > 0) {
      got = n;
      offset_ += static_cast<long>(n);
      return Status::Ok();
    }
    if (std::ferror(f_) != 0) {
      close();
      return Status(StatusCode::kUnavailable, "tail read error: " + cfg_.path);
    }
    if (cfg_.stop_at_eof) {
      exhausted_ = true;
      return Status(StatusCode::kTimeout, "replay file fully consumed");
    }
    // EOF in follow mode: a feeder restart that renamed a new file over the
    // path, or truncated this one, is seen here, and the caller's reopen
    // reads it from byte 0 within one poll slice instead of after a
    // staleness timeout.
    struct stat st {};
    if (::stat(cfg_.path.c_str(), &st) == 0 &&
        (st.st_dev != dev_ || st.st_ino != ino_ || st.st_size < offset_)) {
      close();
      return Status(StatusCode::kUnavailable, "tail file replaced: " + cfg_.path);
    }
    if (waited_ms >= timeout_ms)
      return Status(StatusCode::kTimeout, "no appended bytes within timeout");
    // EOF in follow mode: clear the latched EOF flag and wait for appends.
    std::clearerr(f_);
    const int slice = std::min(cfg_.poll_interval_ms, std::max(timeout_ms - waited_ms, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    waited_ms += slice;
    std::fseek(f_, offset_, SEEK_SET);
  }
}

void TailStream::close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

}  // namespace turbda::stream::ingest
