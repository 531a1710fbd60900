#include "stream/checkpoint.hpp"

#include <array>
#include <fstream>
#include <type_traits>

#include "common/bytes.hpp"

namespace turbda::stream {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

// The v5 encoding of one row: each for_each_metric field in order, int as
// i32, double as f64, bool as one byte.
void put_metrics(std::vector<std::uint8_t>& out, const StreamCycleMetrics& m) {
  for_each_metric(m, [&](const char*, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      out.push_back(v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, int>) {
      bytes::put_i32(out, v);
    } else {
      static_assert(std::is_same_v<T, double>, "metric fields are int, double or bool");
      bytes::put_f64(out, v);
    }
  });
}

void read_metrics(bytes::Reader& rd, StreamCycleMetrics& m) {
  for_each_metric(m, [&](const char*, auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = rd.u8() != 0;
    } else if constexpr (std::is_same_v<T, int>) {
      v = rd.i32();
    } else {
      v = rd.f64();
    }
  });
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status save_checkpoint(const std::string& path, const CheckpointData& data) {
  // The payload's size, reserved once: the fixed fields, the length-prefixed
  // vectors and blobs, and the metric rows (one probe row gives their size).
  std::vector<std::uint8_t> row;
  put_metrics(row, StreamCycleMetrics{});
  std::size_t size = 3 * 8 + 3 * 4 + 7 * 8 + data.rng_modelerr.size() +
                     8 * data.ensemble.size() + data.applied.size() +
                     data.stream_state.size() + data.filter_state.size() +
                     data.metrics.size() * row.size();
  for (const auto& s : data.ring) size += 4 + 8 + 8 * s.increment.size();
  std::vector<std::uint8_t> payload;
  payload.reserve(size);
  bytes::put_u64(payload, data.seed);
  bytes::put_u64(payload, data.n_members);
  bytes::put_u64(payload, data.dim);
  bytes::put_i32(payload, data.cycles);
  bytes::put_i32(payload, data.overlap_depth);
  bytes::put_i32(payload, data.next_cycle);
  bytes::put_blob(payload, data.rng_modelerr);
  bytes::put_f64_span(payload, data.ensemble);
  bytes::put_u64(payload, data.ring.size());
  for (const auto& s : data.ring) {
    bytes::put_i32(payload, s.cycle);
    bytes::put_f64_span(payload, s.increment);
  }
  bytes::put_blob(payload, data.applied);
  bytes::put_blob(payload, data.stream_state);
  bytes::put_blob(payload, data.filter_state);
  bytes::put_u64(payload, data.metrics.size());
  for (const auto& m : data.metrics) put_metrics(payload, m);

  std::vector<std::uint8_t> header, trailer;
  bytes::put_u32(header, kCheckpointMagic);
  bytes::put_u32(header, kCheckpointVersion);
  bytes::put_u64(header, payload.size());
  bytes::put_u32(trailer, crc32(payload));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status(StatusCode::kIoError, "cannot open checkpoint file for write: " + path);
  for (const auto* part : {&header, &payload, &trailer})
    out.write(reinterpret_cast<const char*>(part->data()),
              static_cast<std::streamsize>(part->size()));
  out.flush();
  if (!out) return Status(StatusCode::kIoError, "checkpoint write failed: " + path);
  return Status::Ok();
}

Status load_checkpoint(const std::string& path, CheckpointData& data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status(StatusCode::kIoError, "cannot open checkpoint file: " + path);
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());

  bytes::Reader rd(file);
  const std::uint32_t magic = rd.u32();
  if (!rd.ok()) return Status(StatusCode::kCorruptData, "checkpoint truncated: no header");
  if (magic != kCheckpointMagic)
    return Status(StatusCode::kCorruptData, "not a checkpoint file (bad magic)");
  const std::uint32_t version = rd.u32();
  if (version != kCheckpointVersion)
    return Status(StatusCode::kUnsupported,
                  "unsupported checkpoint format version " + std::to_string(version) +
                      " (expected " + std::to_string(kCheckpointVersion) + ")");
  const std::uint64_t len = rd.u64();
  const auto payload = rd.raw(len);
  const std::uint32_t stored_crc = rd.u32();
  if (!rd.done())
    return Status(StatusCode::kCorruptData, "checkpoint truncated or has trailing bytes");
  if (crc32(payload) != stored_crc)
    return Status(StatusCode::kCorruptData, "checkpoint CRC mismatch — file is corrupt");

  bytes::Reader pr(payload);
  data.seed = pr.u64();
  data.n_members = pr.u64();
  data.dim = pr.u64();
  data.cycles = pr.i32();
  data.overlap_depth = pr.i32();
  data.next_cycle = pr.i32();
  if (!pr.blob(data.rng_modelerr) || !pr.f64_vec(data.ensemble))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  const std::uint64_t n_ring = pr.u64();
  data.ring.clear();
  for (std::uint64_t i = 0; i < n_ring && pr.ok(); ++i) {
    CheckpointData::StagedSlotData s;
    s.cycle = pr.i32();
    if (!pr.f64_vec(s.increment))
      return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
    data.ring.push_back(std::move(s));
  }
  if (!pr.blob(data.applied) || !pr.blob(data.stream_state) || !pr.blob(data.filter_state))
    return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  const std::uint64_t n_metrics = pr.u64();
  data.metrics.clear();
  for (std::uint64_t i = 0; i < n_metrics && pr.ok(); ++i) {
    StreamCycleMetrics m;
    read_metrics(pr, m);
    data.metrics.push_back(m);
  }
  if (!pr.done()) return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  if (data.ensemble.size() != data.n_members * data.dim)
    return Status(StatusCode::kCorruptData, "checkpoint ensemble size inconsistent");
  for (const auto& s : data.ring)
    if (s.increment.size() != data.ensemble.size())
      return Status(StatusCode::kCorruptData, "checkpoint staged slot inconsistent");
  return Status::Ok();
}

}  // namespace turbda::stream
