#include "stream/checkpoint.hpp"

#include <array>
#include <fstream>

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

void put_metrics(std::vector<std::uint8_t>& out, const StreamCycleMetrics& m) {
  bytes::put_i32(out, m.cycle);
  bytes::put_f64(out, m.time_hours);
  bytes::put_f64(out, m.rmse_prior);
  bytes::put_f64(out, m.rmse_post);
  bytes::put_f64(out, m.spread_prior);
  bytes::put_f64(out, m.spread_post);
  bytes::put_i32(out, m.batches_assimilated);
  bytes::put_i32(out, m.batches_discarded);
  bytes::put_i32(out, m.max_batch_age);
  out.push_back(m.deadline_miss ? 1 : 0);
  bytes::put_f64(out, m.obs_arrival_cycles);
  bytes::put_i32(out, m.obs_rejected);
  bytes::put_i32(out, m.batches_rejected);
  bytes::put_f64(out, m.max_r_scale);
  bytes::put_i32(out, m.analysis_failures);
  bytes::put_i32(out, m.solver_fallbacks);
  bytes::put_i32(out, m.spread_recoveries);
  out.push_back(m.degraded ? 1 : 0);
  bytes::put_f64(out, m.forecast_ms);
  bytes::put_f64(out, m.analysis_ms);
  bytes::put_f64(out, m.qc_ms);
  bytes::put_f64(out, m.checkpoint_ms);
  bytes::put_f64(out, m.cycle_ms);
  bytes::put_f64(out, m.pool_idle_frac);
  bytes::put_i32(out, m.late_applied);
  bytes::put_i32(out, m.ingest_reconnects);
  bytes::put_i32(out, m.ingest_frames_corrupt);
  bytes::put_i32(out, m.ingest_frames_resynced);
  bytes::put_i32(out, m.ingest_queue_drops);
}

void read_metrics(bytes::Reader& rd, StreamCycleMetrics& m) {
  m.cycle = rd.i32();
  m.time_hours = rd.f64();
  m.rmse_prior = rd.f64();
  m.rmse_post = rd.f64();
  m.spread_prior = rd.f64();
  m.spread_post = rd.f64();
  m.batches_assimilated = rd.i32();
  m.batches_discarded = rd.i32();
  m.max_batch_age = rd.i32();
  m.deadline_miss = rd.u8() != 0;
  m.obs_arrival_cycles = rd.f64();
  m.obs_rejected = rd.i32();
  m.batches_rejected = rd.i32();
  m.max_r_scale = rd.f64();
  m.analysis_failures = rd.i32();
  m.solver_fallbacks = rd.i32();
  m.spread_recoveries = rd.i32();
  m.degraded = rd.u8() != 0;
  m.forecast_ms = rd.f64();
  m.analysis_ms = rd.f64();
  m.qc_ms = rd.f64();
  m.checkpoint_ms = rd.f64();
  m.cycle_ms = rd.f64();
  m.pool_idle_frac = rd.f64();
  m.late_applied = rd.i32();
  m.ingest_reconnects = rd.i32();
  m.ingest_frames_corrupt = rd.i32();
  m.ingest_frames_resynced = rd.i32();
  m.ingest_queue_drops = rd.i32();
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status save_checkpoint(const std::string& path, const CheckpointData& data) {
  std::vector<std::uint8_t> payload;
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

  std::vector<std::uint8_t> file;
  file.reserve(payload.size() + 20);
  bytes::put_u32(file, kCheckpointMagic);
  bytes::put_u32(file, kCheckpointVersion);
  bytes::put_u64(file, payload.size());
  file.insert(file.end(), payload.begin(), payload.end());
  bytes::put_u32(file, crc32(payload));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status(StatusCode::kIoError, "cannot open checkpoint file for write: " + path);
  out.write(reinterpret_cast<const char*>(file.data()), static_cast<std::streamsize>(file.size()));
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
