// Checkpoint/restart tests: the snapshot format (CRC, version, refusal of
// corrupt files, seeded mutations of a whole snapshot), Rng state
// round-trips, and the hard invariant that a resumed cycling run continues
// *bitwise identically* to the uninterrupted one — for both schedules,
// across thread counts, and under fault injection with QC active.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "bitwise_equal.hpp"
#include "mutation.hpp"
#include "common/bytes.hpp"
#include "da/ensf.hpp"
#include "da/etkf.hpp"
#include "models/lorenz96.hpp"
#include "models/model_error.hpp"
#include "rng/rng.hpp"
#include "stream/checkpoint.hpp"
#include "stream/faulty_stream.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"

namespace turbda {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;

constexpr std::size_t kDim = 40;

std::vector<double> spun_up_truth() {
  Lorenz96Config mc;
  mc.dim = kDim;
  std::vector<double> truth0(mc.dim, 8.0);
  truth0[0] += 0.01;
  Lorenz96 spin(mc);
  for (int i = 0; i < 300; ++i) spin.step(truth0);
  return truth0;
}

enum class FilterKind { Etkf, Ensf };

std::unique_ptr<da::Filter> make_filter(FilterKind kind) {
  if (kind == FilterKind::Ensf) return std::make_unique<da::EnSF>(da::EnsfConfig::stabilized());
  return std::make_unique<da::ETKF>(da::EtkfConfig{.rtps = 0.4});
}

struct CkptRun {
  std::vector<stream::StreamCycleMetrics> metrics;
  da::Ensemble ens{2, kDim};
  Status ckpt_status = Status::Ok();
  Status resume_status = Status::Ok();
};

/// One full stack (models + stream [+ faults] + filter + runner). `resume`
/// empty runs from scratch; otherwise the run continues from that snapshot.
CkptRun run_stack(stream::SyntheticStreamConfig sc, stream::RealtimeConfig rc,
                  const stream::FaultConfig* fc, FilterKind kind, bool model_error = false,
                  const std::string& resume = {}) {
  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 10;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(kDim);
  da::DiagonalR r(kDim, 1.0);
  models::ModelErrorProcess me(models::ModelErrorConfig{.reference_scale = 1.0});
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream inner(sc, truth_model, h, r, truth0);
  std::optional<stream::FaultyStream> faulty;
  stream::ObservationStream* s = &inner;
  if (fc != nullptr) {
    faulty.emplace(*fc, inner);
    s = &*faulty;
  }
  auto filter = make_filter(kind);
  stream::RealtimeRunner runner(rc, *s, fcst_model, filter.get(), model_error ? &me : nullptr);
  CkptRun out;
  if (resume.empty()) {
    out.metrics = runner.run(truth0);
  } else {
    out.resume_status = runner.resume(resume, out.metrics);
    if (!out.resume_status.ok()) return out;
  }
  out.ens = runner.ensemble();
  out.ckpt_status = runner.last_checkpoint_status();
  return out;
}

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

// ----------------------------------------------------------- primitives ----

TEST(Checkpoint, Crc32MatchesKnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(stream::crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(stream::crc32({}), 0x00000000u);
}

/// The definition the table-driven crc32 must equal: one byte at a time,
/// one shift-and-xor per bit.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Checkpoint, Crc32MatchesBytewiseDefinition) {
  std::mt19937_64 gen(2024);
  std::vector<std::uint8_t> buf(3u << 20);
  for (auto& b : buf) b = static_cast<std::uint8_t>(gen());
  const std::span<const std::uint8_t> all(buf);
  // Every tail length past the eight-byte steps, at every start alignment.
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 300; ++len)
      ASSERT_EQ(stream::crc32(all.subspan(off, len)), crc32_bytewise(all.subspan(off, len)))
          << "offset " << off << " length " << len;
  EXPECT_EQ(stream::crc32(all), crc32_bytewise(all));
}

TEST(Checkpoint, RngStateRoundTripsMidSequence) {
  rng::Rng a(12345);
  std::vector<double> warm(7);
  for (auto& v : warm) v = a.gaussian();  // odd count: a cached pair is live

  std::vector<std::uint8_t> state;
  a.save_state(state);
  EXPECT_EQ(state.size(), rng::Rng::kStateBytes);

  std::vector<double> expect(32);
  for (auto& v : expect) v = a.gaussian();

  rng::Rng b(999);  // deliberately different seed; state must fully override
  ASSERT_TRUE(b.load_state(state));
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(b.gaussian(), expect[i]) << i;

  // Malformed state is refused.
  rng::Rng c(1);
  std::vector<std::uint8_t> junk(rng::Rng::kStateBytes - 1, 0);
  EXPECT_FALSE(c.load_state(junk));
}

/// A record with a distinct value in every field, set by name; the bools
/// flip between rows.
stream::StreamCycleMetrics distinct_row(int r) {
  const double b = 100.0 * r;
  const int i = 100 * r;
  return {.cycle = r, .time_hours = b + 1.5, .rmse_prior = b + 2.25, .rmse_post = b + 3.125,
          .spread_prior = b + 4.0625, .spread_post = b + 5.03125, .batches_assimilated = i + 6,
          .batches_discarded = i + 7, .max_batch_age = i + 8, .deadline_miss = r == 0,
          .obs_arrival_cycles = b + 9.5, .obs_rejected = i + 10, .batches_rejected = i + 11,
          .max_r_scale = b + 12.5, .analysis_failures = i + 13, .solver_fallbacks = i + 14,
          .spread_recoveries = i + 15, .degraded = r != 0, .late_applied = i + 16,
          .ingest_reconnects = i + 17, .ingest_frames_corrupt = i + 18,
          .ingest_frames_resynced = i + 19, .ingest_queue_drops = i + 20,
          .forecast_ms = b + 21.5, .analysis_ms = b + 22.5, .qc_ms = b + 23.5,
          .checkpoint_ms = b + 24.5, .cycle_ms = b + 25.5, .pool_idle_frac = 0.25 + 0.5 * r};
}

TEST(Checkpoint, FormatV5BytesArePinnedAndEveryMetricRoundTrips) {
  stream::CheckpointData d;
  d.seed = 0x0123456789abcdefULL;
  d.n_members = 2;
  d.dim = 3;
  d.cycles = 4;
  d.overlap_depth = 1;
  d.next_cycle = 2;
  d.rng_modelerr = {1, 2, 3, 4, 5};
  d.ensemble = {0.5, -1.25, 2.0, 3.5, -4.75, 6.0};
  d.ring.push_back({1, {0.125, 0.25, 0.375, 0.5, 0.625, 0.75}});
  d.applied = {1, 1, 0, 0};
  d.stream_state = {9, 8, 7};
  d.filter_state = {6, 5};
  d.metrics = {distinct_row(0), distinct_row(1)};

  const std::string path = temp_path("ckpt_format.bin");
  ASSERT_TRUE(stream::save_checkpoint(path, d).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                       std::istreambuf_iterator<char>());
  // The bytes format v5 writes for this snapshot: a change to the row
  // layout must come with a kCheckpointVersion bump and a new pin.
  // The CRC skips the 4-byte trailer, because a CRC-32 taken over data
  // followed by that data's own CRC-32 is the same whatever the data.
  ASSERT_EQ(file.size(), 558u);
  EXPECT_EQ(stream::crc32(std::span(file).first(file.size() - 4)), 0xfccbe00cu);

  stream::CheckpointData back;
  ASSERT_TRUE(stream::load_checkpoint(path, back).ok());
  ASSERT_EQ(back.metrics.size(), d.metrics.size());
  for (std::size_t k = 0; k < d.metrics.size(); ++k) {
    // Every field, the wall-clock ones included, as its CSV cell's bits.
    const auto want = stream::stream_metrics_row(d.metrics[k]);
    const auto got = stream::stream_metrics_row(back.metrics[k]);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]), std::bit_cast<std::uint64_t>(want[i]))
          << "row " << k << " column " << i;
  }
  std::remove(path.c_str());
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), 8 * a.size()) == 0;
}

TEST(Checkpoint, MultiMiBSnapshotRoundTripsAndTrailerIsCrcOfPayload) {
  // ~6 MB of doubles in three arrays, with odd sizes everywhere, so the
  // streamed CRC's eight-byte steps straddle every piece boundary. The
  // doubles are random bit patterns, NaN payloads and subnormals among
  // them, and must come back as they went in.
  std::mt19937_64 gen(7);
  const auto random_doubles = [&gen](std::size_t n) {
    std::vector<double> v(n);
    for (auto& x : v) x = std::bit_cast<double>(gen());
    return v;
  };
  const auto random_bytes = [&gen](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& x : v) x = static_cast<std::uint8_t>(gen());
    return v;
  };
  stream::CheckpointData d;
  d.seed = 99;
  d.n_members = 13;
  d.dim = 20011;
  d.cycles = 9;
  d.overlap_depth = 2;
  d.next_cycle = 5;
  d.rng_modelerr = random_bytes(rng::Rng::kStateBytes);
  d.ensemble = random_doubles(d.n_members * d.dim);
  d.ring.push_back({3, random_doubles(d.n_members * d.dim)});
  d.ring.push_back({4, random_doubles(d.n_members * d.dim)});
  d.applied = random_bytes(9);
  d.stream_state = random_bytes(1001);
  d.filter_state = random_bytes(3);
  d.metrics = {distinct_row(0), distinct_row(1), distinct_row(2)};

  const std::string path = temp_path("ckpt_large.bin");
  ASSERT_TRUE(stream::save_checkpoint(path, d).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const auto file = file_bytes(path);
  ASSERT_GT(file.size(), 3 * 8 * d.ensemble.size());
  bytes::Reader tr{std::span(file).last(4)};
  EXPECT_EQ(tr.u32(), stream::crc32(std::span(file).subspan(16, file.size() - 20)));

  stream::CheckpointData back;
  ASSERT_TRUE(stream::load_checkpoint(path, back).ok());
  EXPECT_EQ(back.seed, d.seed);
  EXPECT_EQ(back.n_members, d.n_members);
  EXPECT_EQ(back.dim, d.dim);
  EXPECT_EQ(back.cycles, d.cycles);
  EXPECT_EQ(back.overlap_depth, d.overlap_depth);
  EXPECT_EQ(back.next_cycle, d.next_cycle);
  EXPECT_EQ(back.rng_modelerr, d.rng_modelerr);
  EXPECT_TRUE(same_bits(back.ensemble, d.ensemble));
  ASSERT_EQ(back.ring.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(back.ring[k].cycle, d.ring[k].cycle);
    EXPECT_TRUE(same_bits(back.ring[k].increment, d.ring[k].increment)) << "slot " << k;
  }
  EXPECT_EQ(back.applied, d.applied);
  EXPECT_EQ(back.stream_state, d.stream_state);
  EXPECT_EQ(back.filter_state, d.filter_state);
  expect_metrics_bitwise_equal(d.metrics, back.metrics);
  std::remove(path.c_str());
}

// -------------------------------------------------------- bitwise resume ---

TEST(Checkpoint, SerialResumeIsBitwiseIdentical) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 18;
  rc.n_members = 10;

  const auto uninterrupted = run_stack(sc, rc, nullptr, FilterKind::Etkf, true);

  const std::string path = temp_path("ckpt_serial.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 7;  // snapshots at cycles 7 and 14
  const auto with_ckpt = run_stack(sc, rc_ck, nullptr, FilterKind::Etkf, true);

  // Checkpointing itself must not perturb the run.
  ASSERT_TRUE(with_ckpt.ckpt_status.ok()) << with_ckpt.ckpt_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, with_ckpt.ens);
  expect_metrics_bitwise_equal(uninterrupted.metrics, with_ckpt.metrics);

  // A fresh stack resumed from the last snapshot (cycle 14) must land on the
  // identical final state and reconstruct the full metrics history.
  const auto resumed = run_stack(sc, rc_ck, nullptr, FilterKind::Etkf, true, path);
  ASSERT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, resumed.ens);
  expect_metrics_bitwise_equal(uninterrupted.metrics, resumed.metrics);
  std::remove(path.c_str());
}

TEST(Checkpoint, EnsfFilterStateSurvivesResume) {
  // EnSF keeps a cross-cycle analysis counter (its noise substream key); a
  // resume that failed to restore it would diverge immediately.
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 16;

  const auto uninterrupted = run_stack(sc, rc, nullptr, FilterKind::Ensf);

  const std::string path = temp_path("ckpt_ensf.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 4;  // snapshots at cycles 4 and 8
  const auto with_ckpt = run_stack(sc, rc_ck, nullptr, FilterKind::Ensf);
  ASSERT_TRUE(with_ckpt.ckpt_status.ok()) << with_ckpt.ckpt_status.to_string();

  const auto resumed = run_stack(sc, rc_ck, nullptr, FilterKind::Ensf, false, path);
  ASSERT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, resumed.ens);
  expect_metrics_bitwise_equal(uninterrupted.metrics, resumed.metrics);
  std::remove(path.c_str());
}

/// The hard case: delivery jitter, every value and batch injector and QC
/// all active (overlapped: the pipeline mid-flight, staged increments live),
/// and the resuming process uses a different forecast thread count than the
/// process that wrote the snapshot.
void expect_faulty_resume_bitwise(stream::Schedule schedule) {
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 0.4;
  sc.jitter_cycles = 0.5;
  stream::RealtimeConfig rc;
  rc.cycles = 16;
  rc.n_members = 12;
  rc.schedule = schedule;
  rc.qc.enabled = true;
  rc.qc.bg_sigma = 5.0;
  rc.qc.stale_r_inflation = 0.5;
  rc.n_forecast_threads = 1;

  stream::FaultConfig fc;
  fc.nan_prob = 0.05;
  fc.inf_prob = 0.02;
  fc.outlier_prob = 0.03;
  fc.stuck_prob = 0.3;
  fc.duplicate_prob = 0.3;
  fc.truncate_prob = 0.15;

  const auto uninterrupted = run_stack(sc, rc, &fc, FilterKind::Etkf);

  const std::string path = temp_path("ckpt_faulty.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 5;  // last snapshot at cycle 15 (mid-pipeline when overlapped)
  const auto with_ckpt = run_stack(sc, rc_ck, &fc, FilterKind::Etkf);
  ASSERT_TRUE(with_ckpt.ckpt_status.ok()) << with_ckpt.ckpt_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, with_ckpt.ens);

  auto rc_resume = rc_ck;
  rc_resume.n_forecast_threads = 0;  // all pool workers this time
  const auto resumed = run_stack(sc, rc_resume, &fc, FilterKind::Etkf, false, path);
  ASSERT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
  expect_bitwise_equal(uninterrupted.ens, resumed.ens);
  expect_metrics_bitwise_equal(uninterrupted.metrics, resumed.metrics);
  std::remove(path.c_str());
}

TEST(Checkpoint, SerialFaultyResumeAcrossThreadCounts) {
  expect_faulty_resume_bitwise(stream::Schedule::Serial);
}

TEST(Checkpoint, OverlappedFaultyResumeAcrossThreadCounts) {
  expect_faulty_resume_bitwise(stream::Schedule::Overlapped);
}

// ------------------------------------------------------ refusal paths ------

/// Writes one real snapshot and returns its bytes.
std::vector<char> make_snapshot(const std::string& path) {
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  rc.checkpoint_path = path;
  rc.checkpoint_every = 5;
  const auto r = run_stack(sc, rc, nullptr, FilterKind::Etkf);
  EXPECT_TRUE(r.ckpt_status.ok());
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, CorruptSnapshotsAreRefusedWithPreciseStatus) {
  const std::string path = temp_path("ckpt_corrupt.bin");
  const auto good = make_snapshot(path);
  ASSERT_GT(good.size(), 40u);
  stream::CheckpointData data;

  // Pristine file loads.
  ASSERT_TRUE(stream::load_checkpoint(path, data).ok());

  // Bit flip inside the payload: CRC mismatch.
  auto flipped = good;
  flipped[24] = static_cast<char>(flipped[24] ^ 0x40);
  write_bytes(path, flipped);
  Status s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_NE(s.message().find("CRC"), std::string::npos) << s.to_string();

  // Truncated file.
  auto truncated = good;
  truncated.resize(good.size() - 11);
  write_bytes(path, truncated);
  EXPECT_EQ(stream::load_checkpoint(path, data).code(), StatusCode::kCorruptData);

  // Trailing garbage.
  auto padded = good;
  padded.push_back('x');
  write_bytes(path, padded);
  EXPECT_EQ(stream::load_checkpoint(path, data).code(), StatusCode::kCorruptData);

  // Wrong magic.
  auto bad_magic = good;
  bad_magic[0] = 'X';
  write_bytes(path, bad_magic);
  s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kCorruptData);
  EXPECT_NE(s.message().find("magic"), std::string::npos) << s.to_string();

  // Future format version.
  auto future = good;
  future[4] = static_cast<char>(future[4] + 1);
  write_bytes(path, future);
  s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.to_string();

  std::remove(path.c_str());
}

TEST(Checkpoint, LyingEnsembleCountIsCorruptData) {
  // A CRC-valid snapshot whose ensemble claims 2^61 + 1 doubles: 8 * n wraps
  // to 8, which must not pass for "enough bytes left".
  stream::CheckpointData d;
  d.n_members = 2;
  d.dim = 3;
  d.rng_modelerr = {1, 2, 3, 4, 5};
  d.ensemble = {0.5, -1.25, 2.0, 3.5, -4.75, 6.0};
  const std::string path = temp_path("ckpt_lying_count.bin");
  ASSERT_TRUE(stream::save_checkpoint(path, d).ok());
  auto file = file_bytes(path);
  // Header 16, seed/members/dim 24, cycles/depth/next 12, the 5-byte RNG blob.
  const std::size_t at = 16 + 24 + 12 + 8 + d.rng_modelerr.size();
  std::vector<std::uint8_t> count;
  bytes::put_u64(count, d.ensemble.size());
  ASSERT_TRUE(std::equal(count.begin(), count.end(), file.begin() + static_cast<long>(at)));
  count.clear();
  bytes::put_u64(count, (std::uint64_t{1} << 61) + 1);
  std::copy(count.begin(), count.end(), file.begin() + static_cast<long>(at));
  std::vector<std::uint8_t> crc;
  bytes::put_u32(crc, stream::crc32(std::span(file).subspan(16, file.size() - 20)));
  std::copy(crc.begin(), crc.end(), file.end() - 4);
  write_bytes(path, {file.begin(), file.end()});

  stream::CheckpointData back;
  Status s = Status::Ok();
  EXPECT_NO_THROW(s = stream::load_checkpoint(path, back));
  EXPECT_EQ(s.code(), StatusCode::kCorruptData) << s.to_string();

  // A member count whose product with dim wraps to the ensemble's size, 0.
  stream::CheckpointData wrap;
  wrap.n_members = std::uint64_t{1} << 63;
  wrap.dim = 2;
  ASSERT_TRUE(stream::save_checkpoint(path, wrap).ok());
  EXPECT_EQ(stream::load_checkpoint(path, back).code(), StatusCode::kCorruptData);
  std::remove(path.c_str());
}

TEST(Checkpoint, MutatedSnapshotsNeverThrowAndSaveBackToTheirOwnBytes) {
  // A fixed budget of seeded mutations (mutation.hpp: bit flips,
  // truncations, lying counts, splices) of one valid snapshot, fed to
  // load_checkpoint three ways: as damage to the whole file, which the
  // header and the CRC must refuse; as damage to the payload resealed under
  // a true length and a valid CRC, which reaches the payload decoder; and as
  // a lying header length. load_checkpoint never throws, and a snapshot it
  // accepts saves back to exactly the bytes it was read from. Mutation i
  // draws from substream i of the seed.
  constexpr std::uint64_t kSeed = 0x5EED2025;
  constexpr int kMutations = 3000;
  SCOPED_TRACE(testing::Message() << "fuzz seed 0x" << std::hex << kSeed);

  stream::CheckpointData d;
  d.seed = 7;
  d.n_members = 2;
  d.dim = 3;
  d.cycles = 6;
  d.overlap_depth = 2;
  d.next_cycle = 3;
  d.rng_modelerr = {1, 2, 3, 4, 5};
  d.ensemble = {0.5, -1.25, 2.0, 3.5, -4.75, 6.0};
  d.ring.push_back({1, {0.125, 0.25, 0.375, 0.5, 0.625, 0.75}});
  d.ring.push_back({2, {-0.125, -0.25, -0.375, -0.5, -0.625, -0.75}});
  d.applied = {1, 1, 1, 0, 0, 0};
  d.stream_state = {9, 8, 7};
  d.filter_state = {6, 5};
  d.metrics = {distinct_row(0), distinct_row(1), distinct_row(2)};
  const std::string path = temp_path("ckpt_fuzz.bin");
  const std::string resaved = temp_path("ckpt_fuzz_resaved.bin");
  ASSERT_TRUE(stream::save_checkpoint(path, d).ok());
  const std::vector<std::uint8_t> file = file_bytes(path);
  const std::vector<std::uint8_t> payload(file.begin() + 16, file.end() - 4);
  const auto file_counts = count_offsets(file);
  const auto payload_counts = count_offsets(payload);
  const auto seal = [](const std::vector<std::uint8_t>& p) {
    std::vector<std::uint8_t> out;
    bytes::put_u32(out, stream::kCheckpointMagic);
    bytes::put_u32(out, stream::kCheckpointVersion);
    bytes::put_u64(out, p.size());
    out.insert(out.end(), p.begin(), p.end());
    bytes::put_u32(out, stream::crc32(p));
    return out;
  };
  ASSERT_TRUE(seal(payload) == file);

  const rng::Rng root(kSeed);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    Mutator mut(root.substream(static_cast<std::uint64_t>(i)));
    std::vector<std::uint8_t> bytes = file;
    switch (mut.below(6)) {
      case 0:
      case 1:
        mut.mutate(bytes, file_counts, file);
        break;
      case 2:
        mut.lie_at(bytes, 8);  // the header's payload length
        break;
      default: {
        std::vector<std::uint8_t> p = payload;
        mut.mutate(p, payload_counts, payload);
        bytes = seal(p);
        break;
      }
    }
    write_bytes(path, {bytes.begin(), bytes.end()});
    stream::CheckpointData back;
    Status s = Status::Ok();
    ASSERT_NO_THROW(s = stream::load_checkpoint(path, back));
    if (!s.ok()) continue;
    ++accepted;
    ASSERT_TRUE(stream::save_checkpoint(resaved, back).ok());
    ASSERT_TRUE(file_bytes(resaved) == bytes) << "an accepted snapshot saves back to other bytes";
  }
  EXPECT_GT(accepted, 0);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(Checkpoint, FailedSaveLeavesThePreviousSnapshotInPlace) {
  const std::string path = temp_path("ckpt_replace.bin");
  const std::string tmp = path + ".tmp";
  const auto good = make_snapshot(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));  // every periodic save renamed its file
  stream::CheckpointData d;
  ASSERT_TRUE(stream::load_checkpoint(path, d).ok());
  auto newer = d;
  ++newer.next_cycle;

  // A directory where the temporary file goes: the write cannot start.
  std::filesystem::create_directory(tmp);
  EXPECT_EQ(stream::save_checkpoint(path, newer).code(), StatusCode::kIoError);
  std::filesystem::remove(tmp);
  stream::CheckpointData back;
  ASSERT_TRUE(stream::load_checkpoint(path, back).ok());
  EXPECT_EQ(back.next_cycle, d.next_cycle);
  const auto kept = file_bytes(path);
  ASSERT_EQ(kept.size(), good.size());
  EXPECT_EQ(std::memcmp(kept.data(), good.data(), kept.size()), 0);

  // A non-empty directory where the snapshot goes: the write succeeds, the
  // rename fails, and the temporary file is removed.
  const std::string dir_path = temp_path("ckpt_replace_dir");
  std::filesystem::create_directories(dir_path + "/occupied");
  EXPECT_EQ(stream::save_checkpoint(dir_path, newer).code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir_path + ".tmp"));
  EXPECT_TRUE(std::filesystem::exists(dir_path + "/occupied"));
  std::filesystem::remove_all(dir_path);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsIoError) {
  stream::CheckpointData data;
  const Status s = stream::load_checkpoint(temp_path("does_not_exist.bin"), data);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(Checkpoint, MismatchedConfigurationIsRefusedOnResume) {
  const std::string path = temp_path("ckpt_mismatch.bin");
  (void)make_snapshot(path);

  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  rc.seed = 777;  // different seed than the snapshot's config echo
  const auto r = run_stack(sc, rc, nullptr, FilterKind::Etkf, false, path);
  EXPECT_EQ(r.resume_status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Checkpoint, MetricsRowsOutOfStepWithTheCycleIndexAreRefused) {
  // CRC-valid snapshots (load, edit, re-save) whose record is not one row
  // per completed cycle in order: resuming them would leave row k != cycle k.
  const std::string path = temp_path("ckpt_rows.bin");
  (void)make_snapshot(path);  // next_cycle 5, rows for cycles 0..4
  stream::CheckpointData good;
  ASSERT_TRUE(stream::load_checkpoint(path, good).ok());
  ASSERT_EQ(good.metrics.size(), 5u);

  auto dropped = good;
  dropped.metrics.erase(dropped.metrics.begin() + 2);
  auto renumbered = good;
  renumbered.metrics[3].cycle = 4;
  stream::SyntheticStreamConfig sc;
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  for (const auto* bad : {&dropped, &renumbered}) {
    ASSERT_TRUE(stream::save_checkpoint(path, *bad).ok());
    const auto r = run_stack(sc, rc, nullptr, FilterKind::Etkf, false, path);
    EXPECT_EQ(r.resume_status.code(), StatusCode::kCorruptData) << r.resume_status.to_string();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, PreviousFormatVersionIsRefused) {
  const std::string path = temp_path("ckpt_v4.bin");
  auto old = make_snapshot(path);
  ASSERT_GT(old.size(), 8u);
  // Restamp the little-endian version field as 4, the last format whose
  // SyntheticStream state carried a dropped-batch counter.
  old[4] = 4;
  old[5] = old[6] = old[7] = 0;
  write_bytes(path, old);
  stream::CheckpointData data;
  const Status s = stream::load_checkpoint(path, data);
  EXPECT_EQ(s.code(), StatusCode::kUnsupported);
  EXPECT_NE(s.message().find("version 4"), std::string::npos) << s.to_string();
  std::remove(path.c_str());
}

/// The make_snapshot configuration under a given schedule (ring depth 1 when
/// overlapped).
stream::RealtimeConfig schedule_config(stream::Schedule schedule, const std::string& path) {
  stream::RealtimeConfig rc;
  rc.cycles = 10;
  rc.n_members = 8;
  rc.schedule = schedule;
  rc.checkpoint_path = path;
  rc.checkpoint_every = 5;
  return rc;
}

TEST(Checkpoint, OverlappedSnapshotIsRefusedBySerialResume) {
  const std::string path = temp_path("ckpt_k1_to_serial.bin");
  stream::SyntheticStreamConfig sc;
  const auto w = run_stack(sc, schedule_config(stream::Schedule::Overlapped, path), nullptr,
                           FilterKind::Etkf);
  ASSERT_TRUE(w.ckpt_status.ok()) << w.ckpt_status.to_string();
  const auto r = run_stack(sc, schedule_config(stream::Schedule::Serial, path), nullptr,
                           FilterKind::Etkf, false, path);
  EXPECT_EQ(r.resume_status.code(), StatusCode::kInvalidArgument) << r.resume_status.to_string();
  std::remove(path.c_str());
}

TEST(Checkpoint, SerialSnapshotIsRefusedByOverlappedResume) {
  const std::string path = temp_path("ckpt_serial_to_k1.bin");
  stream::SyntheticStreamConfig sc;
  const auto w =
      run_stack(sc, schedule_config(stream::Schedule::Serial, path), nullptr, FilterKind::Etkf);
  ASSERT_TRUE(w.ckpt_status.ok()) << w.ckpt_status.to_string();
  const auto r = run_stack(sc, schedule_config(stream::Schedule::Overlapped, path), nullptr,
                           FilterKind::Etkf, false, path);
  EXPECT_EQ(r.resume_status.code(), StatusCode::kInvalidArgument) << r.resume_status.to_string();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace turbda
