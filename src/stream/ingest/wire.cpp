#include "stream/ingest/wire.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "stream/batch_queue.hpp"
#include "stream/checkpoint.hpp"  // crc32

namespace turbda::stream::ingest {

namespace {

void frame(std::vector<std::uint8_t>& payload, std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + payload.size() + kWireHeaderBytes + 4);
  bytes::put_u32(out, kWireMagic);
  bytes::put_u32(out, kWireVersion);
  bytes::put_u64(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  bytes::put_u32(out, crc32(payload));
}

}  // namespace

void encode_obs_frame(const ObsBatch& b, std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(FrameKind::kObs));
  put_batch(payload, b);
  frame(payload, out);
}

void encode_truth_frame(std::int32_t cycle, std::span<const double> state,
                        std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(FrameKind::kTruth));
  bytes::put_i32(payload, cycle);
  bytes::put_f64_span(payload, state);
  frame(payload, out);
}

void encode_heartbeat_frame(std::int32_t high_water_cycle, std::uint64_t seq,
                            std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(FrameKind::kHeartbeat));
  bytes::put_i32(payload, high_water_cycle);
  bytes::put_u64(payload, seq);
  frame(payload, out);
}

void FrameDecoder::feed(std::span<const std::uint8_t> data) {
  // Compact lazily: only when the dead prefix dominates the buffer, so
  // steady-state decoding does not memmove per frame.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameDecoder::discard(std::size_t n) {
  pos_ += n;
  stats_.bytes_discarded += n;
  resyncing_ = true;
}

bool FrameDecoder::next(DecodedFrame& out) {
  for (;;) {
    // Hunt for the magic boundary, shedding garbage byte-by-byte.
    while (buf_.size() - pos_ >= 4) {
      const std::uint32_t m = static_cast<std::uint32_t>(buf_[pos_]) |
                              static_cast<std::uint32_t>(buf_[pos_ + 1]) << 8 |
                              static_cast<std::uint32_t>(buf_[pos_ + 2]) << 16 |
                              static_cast<std::uint32_t>(buf_[pos_ + 3]) << 24;
      if (m == kWireMagic) break;
      discard(1);
    }
    if (buf_.size() - pos_ < kWireHeaderBytes) return false;

    bytes::Reader hdr(std::span<const std::uint8_t>(buf_).subspan(pos_, kWireHeaderBytes));
    (void)hdr.u32();  // magic, verified above
    const std::uint32_t version = hdr.u32();
    const std::uint64_t len = hdr.u64();
    if (version != kWireVersion) {
      last_error_ = Status(StatusCode::kUnsupported,
                           "wire frame has format version " + std::to_string(version));
      ++stats_.frames_corrupt;
      discard(1);  // step past this magic byte and rescan
      continue;
    }
    if (len > kMaxFramePayloadBytes) {
      // An implausible length is almost certainly a corrupted header; waiting
      // for 2^60 bytes would wedge the stream, so treat it as damage.
      last_error_ = Status(StatusCode::kCorruptData, "wire frame length implausible");
      ++stats_.frames_corrupt;
      discard(1);
      continue;
    }
    const std::size_t total = kWireHeaderBytes + static_cast<std::size_t>(len) + 4;
    if (buf_.size() - pos_ < total) return false;  // torn frame: wait for more bytes

    const auto payload = std::span<const std::uint8_t>(buf_).subspan(
        pos_ + kWireHeaderBytes, static_cast<std::size_t>(len));
    bytes::Reader tr(std::span<const std::uint8_t>(buf_).subspan(
        pos_ + kWireHeaderBytes + static_cast<std::size_t>(len), 4));
    if (crc32(payload) != tr.u32()) {
      last_error_ = Status(StatusCode::kCorruptData, "wire frame CRC mismatch");
      ++stats_.frames_corrupt;
      discard(1);  // the real next frame may start inside this span — rescan
      continue;
    }

    bytes::Reader pr(payload);
    const auto kind = static_cast<FrameKind>(pr.u8());
    out = DecodedFrame{};
    out.kind = kind;
    bool parsed = false;
    switch (kind) {
      case FrameKind::kObs:
        parsed = read_batch(pr, out.obs) && pr.done();
        break;
      case FrameKind::kTruth:
        out.cycle = pr.i32();
        parsed = pr.f64_vec(out.state) && pr.done();
        break;
      case FrameKind::kHeartbeat:
        out.cycle = pr.i32();
        out.seq = pr.u64();
        parsed = pr.done();
        break;
      default:
        break;
    }
    if (!parsed) {
      // CRC-valid but structurally malformed (unknown kind / bad layout):
      // an incompatible producer, not line noise — still skipped safely.
      last_error_ = Status(StatusCode::kCorruptData, "wire frame payload malformed");
      ++stats_.frames_corrupt;
      discard(1);
      continue;
    }

    pos_ += total;
    ++stats_.frames_decoded;
    if (kind == FrameKind::kHeartbeat) ++stats_.heartbeats;
    if (resyncing_) {
      ++stats_.frames_resynced;
      resyncing_ = false;
    }
    return true;
  }
}

}  // namespace turbda::stream::ingest
