#include "stream/checkpoint.hpp"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/bytes.hpp"

namespace turbda::stream {

namespace {

// Slicing-by-8 tables for the reflected polynomial: kCrc[0] is the bytewise
// table, and kCrc[s][b] is the register after byte b and then s zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::size_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Advances the running CRC register `c` over `data`, eight bytes per step
/// (the caller inverts before the first piece and after the last). The
/// word load is little-endian, which bytes.hpp asserts of the host.
std::uint32_t crc32_update(std::uint32_t c, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^ kCrc[5][(lo >> 16) & 0xFFu] ^
        kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

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

/// False on a bool byte other than 0 or 1: put_metrics never writes one.
bool read_metrics(bytes::Reader& rd, StreamCycleMetrics& m) {
  bool flags_ok = true;
  for_each_metric(m, [&](const char*, auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t b = rd.u8();
      flags_ok = flags_ok && b <= 1;
      v = b != 0;
    } else if constexpr (std::is_same_v<T, int>) {
      v = rd.i32();
    } else {
      v = rd.f64();
    }
  });
  return flags_ok;
}

/// The payload on its way to the file: each piece is folded into the
/// running CRC and written as it comes. Small fields are staged by the
/// bytes:: writers; double arrays and blobs go straight from the caller's
/// vectors, so nothing the size of the snapshot is allocated.
struct PayloadSink {
  explicit PayloadSink(std::ofstream& f) : file(f) {}

  std::ofstream& file;
  std::vector<std::uint8_t> staged;
  std::uint32_t crc = 0xFFFFFFFFu;

  /// Writes `b` outside the CRC.
  void write(std::span<const std::uint8_t> b) {
    file.write(reinterpret_cast<const char*>(b.data()), static_cast<std::streamsize>(b.size()));
  }
  /// Folds the staged fields, then `bulk`, into the CRC and writes them.
  void emit(std::span<const std::uint8_t> bulk = {}) {
    for (const auto piece : {std::span<const std::uint8_t>(staged), bulk}) {
      crc = crc32_update(crc, piece);
      write(piece);
    }
    staged.clear();
  }
  /// The bytes bytes::put_blob writes.
  void blob(std::span<const std::uint8_t> v) {
    bytes::put_u64(staged, v.size());
    emit(v);
  }
  /// The bytes bytes::put_f64_span writes.
  void f64_span(std::span<const double> v) {
    bytes::put_u64(staged, v.size());
    emit({reinterpret_cast<const std::uint8_t*>(v.data()), 8 * v.size()});
  }
};

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return crc32_update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

Status save_checkpoint(const std::string& path, const CheckpointData& data) {
  // The payload's size, for the header: the fixed fields, the
  // length-prefixed vectors and blobs, and the metric rows (one probe row
  // gives their size).
  std::vector<std::uint8_t> row;
  put_metrics(row, StreamCycleMetrics{});
  std::size_t size = 3 * 8 + 3 * 4 + 7 * 8 + data.rng_modelerr.size() +
                     8 * data.ensemble.size() + data.applied.size() +
                     data.stream_state.size() + data.filter_state.size() +
                     data.metrics.size() * row.size();
  for (const auto& s : data.ring) size += 4 + 8 + 8 * s.increment.size();

  // Written beside the live snapshot and renamed over it, so a process
  // killed mid-write leaves the last good snapshot in place.
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return Status(StatusCode::kIoError, "cannot open checkpoint file for write: " + tmp);
  PayloadSink sink(out);
  std::vector<std::uint8_t> frame;  // the header, then the trailer
  bytes::put_u32(frame, kCheckpointMagic);
  bytes::put_u32(frame, kCheckpointVersion);
  bytes::put_u64(frame, size);
  sink.write(frame);

  bytes::put_u64(sink.staged, data.seed);
  bytes::put_u64(sink.staged, data.n_members);
  bytes::put_u64(sink.staged, data.dim);
  bytes::put_i32(sink.staged, data.cycles);
  bytes::put_i32(sink.staged, data.overlap_depth);
  bytes::put_i32(sink.staged, data.next_cycle);
  sink.blob(data.rng_modelerr);
  sink.f64_span(data.ensemble);
  bytes::put_u64(sink.staged, data.ring.size());
  for (const auto& s : data.ring) {
    bytes::put_i32(sink.staged, s.cycle);
    sink.f64_span(s.increment);
  }
  sink.blob(data.applied);
  sink.blob(data.stream_state);
  sink.blob(data.filter_state);
  bytes::put_u64(sink.staged, data.metrics.size());
  for (const auto& m : data.metrics) {
    put_metrics(sink.staged, m);
    sink.emit();
  }
  sink.emit();

  frame.clear();
  bytes::put_u32(frame, sink.crc ^ 0xFFFFFFFFu);
  sink.write(frame);
  out.close();
  std::error_code ec;
  if (!out) {
    std::filesystem::remove(tmp, ec);
    return Status(StatusCode::kIoError, "checkpoint write failed: " + tmp);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status(StatusCode::kIoError, "cannot replace checkpoint file: " + path);
  }
  return Status::Ok();
}

Status load_checkpoint(const std::string& path, CheckpointData& data) {
  std::error_code ec;
  const auto size = static_cast<std::size_t>(std::filesystem::file_size(path, ec));
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return Status(StatusCode::kIoError, "cannot open checkpoint file: " + path);
  const auto file = std::make_unique_for_overwrite<std::uint8_t[]>(size);  // the read fills it
  if (!in.read(reinterpret_cast<char*>(file.get()), static_cast<std::streamsize>(size)))
    return Status(StatusCode::kIoError, "checkpoint read failed: " + path);

  bytes::Reader rd({file.get(), size});
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
    if (!read_metrics(pr, m))
      return Status(StatusCode::kCorruptData, "checkpoint metrics flag is neither 0 nor 1");
    data.metrics.push_back(m);
  }
  if (!pr.done()) return Status(StatusCode::kCorruptData, "checkpoint payload malformed");
  // Checked by division first: n_members * dim can wrap to the ensemble's size.
  if ((data.dim != 0 && data.n_members > std::numeric_limits<std::uint64_t>::max() / data.dim) ||
      data.ensemble.size() != data.n_members * data.dim)
    return Status(StatusCode::kCorruptData, "checkpoint ensemble size inconsistent");
  for (const auto& s : data.ring)
    if (s.increment.size() != data.ensemble.size())
      return Status(StatusCode::kCorruptData, "checkpoint staged slot inconsistent");
  return Status::Ok();
}

}  // namespace turbda::stream
