// Live-ingestion tests: the CRC-framed wire protocol (round-trip, torn and
// corrupt frames, resynchronization, version/length refusal, and a seeded
// mutation run over a whole capture), bounded drop-oldest queueing, the
// TailStream transport (replay; follow mode reopening a file renamed over
// its path or truncated in place) feeding IngestStream (dedup ledger, a
// followed feed that survives mid-frame feeder restarts, save/restore),
// and the deep-overlap (K > 1) RealtimeRunner schedule — late batches a K=1
// run drops are applied with age-dependent R inflation, bitwise reproducibly
// across thread counts and through a v5 checkpoint/resume, and a damaged wire
// capture replayed through IngestStream cycles bitwise like the
// SyntheticStream it was recorded from. The save_state bytes of the three
// checkpointable streams are pinned to recorded constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bitwise_equal.hpp"
#include "common/bytes.hpp"
#include "fnv1a.hpp"
#include "da/etkf.hpp"
#include "models/lorenz96.hpp"
#include "rng/rng.hpp"
#include "stream/batch_queue.hpp"
#include "stream/checkpoint.hpp"
#include "stream/faulty_stream.hpp"
#include "stream/ingest/ingest_stream.hpp"
#include "stream/ingest/tail_stream.hpp"
#include "stream/ingest/wire.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"
#include "telemetry/trace.hpp"

namespace turbda {
namespace {

using models::Lorenz96;
using models::Lorenz96Config;
namespace ingest = stream::ingest;

// --------------------------------------------------------------- fixture ---

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

/// A small deterministic batch for wire-level tests.
stream::ObsBatch make_batch(int cycle, std::size_t dim = 8) {
  stream::ObsBatch b;
  b.cycle = cycle;
  b.valid_cycles = static_cast<double>(cycle) + 1.0;
  b.arrival_cycles = static_cast<double>(cycle) + 1.0;
  b.y.resize(dim);
  for (std::size_t i = 0; i < dim; ++i)
    b.y[i] = static_cast<double>(cycle) * 100.0 + static_cast<double>(i);
  return b;
}

std::vector<double> make_truth(int cycle, std::size_t dim = 8) {
  std::vector<double> v(dim);
  for (std::size_t i = 0; i < dim; ++i)
    v[i] = static_cast<double>(cycle) * 1000.0 + static_cast<double>(i);
  return v;
}

void expect_batches_equal(const stream::ObsBatch& a, const stream::ObsBatch& b) {
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.valid_cycles, b.valid_cycles);
  EXPECT_EQ(a.arrival_cycles, b.arrival_cycles);
  ASSERT_EQ(a.y.size(), b.y.size());
  EXPECT_EQ(0, std::memcmp(a.y.data(), b.y.data(), a.y.size() * sizeof(double)));
}

// ------------------------------------------------------------ wire frames ---

TEST(Wire, RoundTripAllFrameKinds) {
  const auto b = make_batch(7);
  const auto t = make_truth(7);
  std::vector<std::uint8_t> bytes;
  ingest::encode_obs_frame(b, bytes);
  ingest::encode_truth_frame(7, t, bytes);
  ingest::encode_heartbeat_frame(7, 42, bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.kind, ingest::FrameKind::kObs);
  expect_batches_equal(b, f.obs);
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.kind, ingest::FrameKind::kTruth);
  EXPECT_EQ(f.cycle, 7);
  ASSERT_EQ(f.state.size(), t.size());
  EXPECT_EQ(0, std::memcmp(f.state.data(), t.data(), t.size() * sizeof(double)));
  ASSERT_TRUE(dec.next(f));
  ASSERT_EQ(f.kind, ingest::FrameKind::kHeartbeat);
  EXPECT_EQ(f.cycle, 7);
  EXPECT_EQ(f.seq, 42u);
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.stats().frames_decoded, 3u);
  EXPECT_EQ(dec.stats().frames_corrupt, 0u);
  EXPECT_EQ(dec.stats().heartbeats, 1u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Wire, ByteAtATimeFeedingDecodesIdentically) {
  std::vector<std::uint8_t> bytes;
  for (int w = 0; w < 3; ++w) ingest::encode_obs_frame(make_batch(w), bytes);

  ingest::FrameDecoder dec;
  std::vector<stream::ObsBatch> got;
  ingest::DecodedFrame f;
  for (std::uint8_t byte : bytes) {
    dec.feed({&byte, 1});
    while (dec.next(f)) got.push_back(std::move(f.obs));
  }
  ASSERT_EQ(got.size(), 3u);
  for (int w = 0; w < 3; ++w) expect_batches_equal(make_batch(w), got[static_cast<std::size_t>(w)]);
  EXPECT_EQ(dec.stats().frames_corrupt, 0u);
  EXPECT_EQ(dec.stats().bytes_discarded, 0u);
}

TEST(Wire, CorruptFrameIsSkippedAndDecoderResyncs) {
  std::vector<std::uint8_t> bytes, middle;
  ingest::encode_obs_frame(make_batch(0), bytes);
  ingest::encode_obs_frame(make_batch(1), middle);
  middle[ingest::kWireHeaderBytes + 1] ^= 0xFFu;  // payload damage => CRC fails
  bytes.insert(bytes.end(), middle.begin(), middle.end());
  ingest::encode_obs_frame(make_batch(2), bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  std::vector<int> cycles;
  while (dec.next(f)) cycles.push_back(f.obs.cycle);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0], 0);
  EXPECT_EQ(cycles[1], 2);
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_GE(dec.stats().frames_resynced, 1u);
  EXPECT_GT(dec.stats().bytes_discarded, 0u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kCorruptData);
}

TEST(Wire, GarbagePrefixNeverDecodesAndGoodFrameResyncs) {
  std::vector<std::uint8_t> bytes(512);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 7 + 1) % 251);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.stats().frames_decoded, 0u);
  EXPECT_GT(dec.stats().bytes_discarded, 0u);

  std::vector<std::uint8_t> good;
  ingest::encode_obs_frame(make_batch(3), good);
  dec.feed(good);
  ASSERT_TRUE(dec.next(f));
  expect_batches_equal(make_batch(3), f.obs);
  EXPECT_GE(dec.stats().frames_resynced, 1u);
}

TEST(Wire, FutureFormatVersionIsRefusedNotParsed) {
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ingest::FrameKind::kHeartbeat));
  bytes::put_i32(payload, 5);
  bytes::put_u64(payload, 1);
  std::vector<std::uint8_t> bytes;
  bytes::put_u32(bytes, ingest::kWireMagic);
  bytes::put_u32(bytes, ingest::kWireVersion + 1);
  bytes::put_u64(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes::put_u32(bytes, stream::crc32(payload));
  ingest::encode_heartbeat_frame(9, 1, bytes);  // good frame behind the bad one

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.kind, ingest::FrameKind::kHeartbeat);
  EXPECT_EQ(f.cycle, 9);
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kUnsupported);
}

TEST(Wire, ImplausibleLengthIsTreatedAsCorruption) {
  std::vector<std::uint8_t> bytes;
  bytes::put_u32(bytes, ingest::kWireMagic);
  bytes::put_u32(bytes, ingest::kWireVersion);
  bytes::put_u64(bytes, ingest::kMaxFramePayloadBytes + 1);  // would wedge forever
  ingest::encode_heartbeat_frame(4, 2, bytes);

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_EQ(f.cycle, 4);
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kCorruptData);
}

TEST(Wire, LyingDoubleCountIsCountedCorruptNotThrown) {
  // A CRC-valid truth frame whose state claims 2^61 + 1 doubles, with eight
  // bytes behind the count: 8 * n wraps to 8, which must not pass for
  // "enough bytes left".
  std::vector<std::uint8_t> payload;
  payload.push_back(static_cast<std::uint8_t>(ingest::FrameKind::kTruth));
  bytes::put_i32(payload, 2);
  bytes::put_u64(payload, (std::uint64_t{1} << 61) + 1);
  bytes::put_f64(payload, 1.5);
  std::vector<std::uint8_t> bytes;
  bytes::put_u32(bytes, ingest::kWireMagic);
  bytes::put_u32(bytes, ingest::kWireVersion);
  bytes::put_u64(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes::put_u32(bytes, stream::crc32(payload));
  ingest::encode_truth_frame(3, make_truth(3), bytes);  // good frame behind the bad one

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  bool decoded = false;
  EXPECT_NO_THROW(decoded = dec.next(f));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(f.kind, ingest::FrameKind::kTruth);
  EXPECT_EQ(f.cycle, 3);
  EXPECT_EQ(f.state, make_truth(3));
  EXPECT_EQ(dec.stats().frames_corrupt, 1u);
  EXPECT_EQ(dec.last_error().code(), StatusCode::kCorruptData);
}

TEST(Wire, TornFrameRecoveredFromRetransmission) {
  // A connection died mid-frame; the reconnecting feeder retransmits the
  // whole frame. The torn prefix must be shed, the retransmission decoded.
  std::vector<std::uint8_t> whole;
  ingest::encode_obs_frame(make_batch(5), whole);
  std::vector<std::uint8_t> bytes(whole.begin(), whole.begin() + static_cast<long>(whole.size() / 2));
  bytes.insert(bytes.end(), whole.begin(), whole.end());

  ingest::FrameDecoder dec;
  dec.feed(bytes);
  ingest::DecodedFrame f;
  ASSERT_TRUE(dec.next(f));
  expect_batches_equal(make_batch(5), f.obs);
  EXPECT_FALSE(dec.next(f));
  EXPECT_GE(dec.stats().frames_corrupt, 1u);
  EXPECT_GE(dec.stats().frames_resynced, 1u);
}

// ------------------------------------------------------ decoder mutations ---

/// The bytes `f` was decoded from, if it came from an encoder: every frame
/// kind encodes canonically, so a decoded frame re-encodes to its source.
std::vector<std::uint8_t> reencode(const ingest::DecodedFrame& f) {
  std::vector<std::uint8_t> out;
  switch (f.kind) {
    case ingest::FrameKind::kObs:
      ingest::encode_obs_frame(f.obs, out);
      break;
    case ingest::FrameKind::kTruth:
      ingest::encode_truth_frame(f.cycle, f.state, out);
      break;
    case ingest::FrameKind::kHeartbeat:
      ingest::encode_heartbeat_frame(f.cycle, f.seq, out);
      break;
  }
  return out;
}

TEST(Wire, MutatedCapturesNeverThrowAndDecodeOnlySourceFrames) {
  // A fixed budget of seeded mutations of one valid capture: bit flips,
  // truncations, frame-length lies, splices of valid frames, and payload
  // damage resealed with a valid CRC (bit flips, or a lying value count:
  // CRC-valid garbage for the payload parsers). Each mutant is fed in
  // random-sized chunks. next() must never throw, every frame it returns
  // must be bytewise a source frame (or the resealed one), and the frames
  // wholly ahead of the first changed byte must all come out, in order.
  // Mutation i draws from substream i of the seed, so a failure replays
  // alone.
  constexpr std::uint64_t kSeed = 0x5EED2024;
  constexpr int kMutations = 2000;
  SCOPED_TRACE(testing::Message() << "fuzz seed 0x" << std::hex << kSeed);

  std::vector<std::vector<std::uint8_t>> frames;
  std::uint64_t seq = 0;
  for (int w = 0; w < 4; ++w) {
    frames.emplace_back();
    ingest::encode_obs_frame(make_batch(w), frames.back());
    frames.emplace_back();
    ingest::encode_truth_frame(w, make_truth(w), frames.back());
    frames.emplace_back();
    ingest::encode_heartbeat_frame(w, seq++, frames.back());
  }
  std::vector<std::uint8_t> capture;
  std::vector<std::size_t> starts;  // frame i spans [starts[i], starts[i + 1])
  for (const auto& f : frames) {
    starts.push_back(capture.size());
    capture.insert(capture.end(), f.begin(), f.end());
  }
  starts.push_back(capture.size());

  const rng::Rng root(kSeed);
  for (int i = 0; i < kMutations; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    rng::Rng rng = root.substream(static_cast<std::uint64_t>(i));
    const auto below = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng.next_u64() % n);
    };
    // A count that lies: plausible (it may hold back the frames behind a
    // header that carries it), just past the frame bound, one whose byte
    // size 8 n wraps to a few bytes, or one near 2^64.
    const auto lying_count = [&]() -> std::uint64_t {
      switch (below(4)) {
        case 0:
          return below(ingest::kMaxFramePayloadBytes + 1);
        case 1:
          return ingest::kMaxFramePayloadBytes + 1 + below(1u << 20);
        case 2:
          return (std::uint64_t{1} << (61 + below(3))) + below(16);
        default:
          return ~std::uint64_t{0} - below(64);
      }
    };
    std::vector<std::uint8_t> bytes = capture;
    std::vector<std::uint8_t> resealed;
    std::size_t first_changed = bytes.size();
    switch (below(5)) {
      case 0:  // bit flips
        for (std::size_t n = 1 + below(8); n > 0; --n) {
          const std::size_t at = below(bytes.size());
          bytes[at] ^= static_cast<std::uint8_t>(1u << below(8));
          first_changed = std::min(first_changed, at);
        }
        break;
      case 1: {  // truncation: a torn tail, or a lost span
        const std::size_t at = below(bytes.size());
        const std::size_t len = below(2) == 0 ? bytes.size() - at : 1 + below(bytes.size() - at);
        const auto first = bytes.begin() + static_cast<long>(at);
        bytes.erase(first, first + static_cast<long>(len));
        first_changed = at;
        break;
      }
      case 2: {  // a frame length that lies
        const std::size_t at = starts[below(frames.size())] + 8;
        const std::uint64_t lie = lying_count();
        for (std::size_t b = 0; b < 8; ++b)
          bytes[at + b] = static_cast<std::uint8_t>(lie >> (8 * b));
        first_changed = at;
        break;
      }
      case 3: {  // splice: a valid frame, or its head, inserted anywhere
        const auto& f = frames[below(frames.size())];
        const std::size_t len = below(2) == 0 ? f.size() : 1 + below(f.size());
        const std::size_t at = below(bytes.size() + 1);
        bytes.insert(bytes.begin() + static_cast<long>(at), f.begin(),
                     f.begin() + static_cast<long>(len));
        first_changed = at;
        break;
      }
      default: {  // payload damage under a recomputed CRC
        const std::size_t k = below(frames.size());
        std::vector<std::uint8_t> payload(frames[k].begin() + ingest::kWireHeaderBytes,
                                          frames[k].end() - 4);
        // An obs payload counts its values at byte 21, a truth payload its
        // state at byte 5 (a heartbeat's sequence number sits there).
        const std::size_t count_at =
            payload[0] == static_cast<std::uint8_t>(ingest::FrameKind::kObs) ? 21 : 5;
        if (below(2) == 0) {
          const std::uint64_t lie = lying_count();
          for (std::size_t b = 0; b < 8; ++b)
            payload[count_at + b] = static_cast<std::uint8_t>(lie >> (8 * b));
        } else {
          for (std::size_t n = 1 + below(3); n > 0; --n)
            payload[below(payload.size())] ^= static_cast<std::uint8_t>(1u << below(8));
        }
        resealed.assign(frames[k].begin(), frames[k].begin() + ingest::kWireHeaderBytes);
        resealed.insert(resealed.end(), payload.begin(), payload.end());
        bytes::put_u32(resealed, stream::crc32(payload));
        std::copy(resealed.begin(), resealed.end(), bytes.begin() + static_cast<long>(starts[k]));
        first_changed = starts[k];
        break;
      }
    }

    ingest::FrameDecoder dec;
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t pos = 0; pos < bytes.size();) {
      const std::size_t n = std::min(bytes.size() - pos, 1 + below(96));
      dec.feed(std::span<const std::uint8_t>(bytes).subspan(pos, n));
      pos += n;
      ingest::DecodedFrame f;
      for (;;) {
        bool more = false;
        ASSERT_NO_THROW(more = dec.next(f));
        if (!more) break;
        out.push_back(reencode(f));
      }
    }
    for (const auto& f : out)
      ASSERT_TRUE(f == resealed || std::find(frames.begin(), frames.end(), f) != frames.end())
          << "decoded a frame of " << f.size() << " bytes that no encoder wrote";
    std::size_t intact = 0;
    while (intact < frames.size() && starts[intact + 1] <= first_changed) ++intact;
    ASSERT_GE(out.size(), intact);
    for (std::size_t k = 0; k < intact; ++k) ASSERT_EQ(out[k], frames[k]) << "frame " << k;
    EXPECT_EQ(dec.stats().frames_decoded, out.size());
  }
}

// ------------------------------------------------------------- batch queue ---

TEST(BatchQueue, DropOldestUnderBackpressure) {
  stream::BatchQueue q(3);
  for (int w = 0; w < 5; ++w) {
    auto b = make_batch(w);
    b.arrival_cycles = 0.0;
    q.push(std::move(b));
    EXPECT_EQ(q.drops(), w < 3 ? 0u : static_cast<std::uint64_t>(w - 2)) << "window " << w;
  }
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.drops(), 2u);
  std::vector<stream::ObsBatch> out;
  q.collect(10.0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].cycle, 2);  // the two oldest were evicted
  EXPECT_EQ(out[1].cycle, 3);
  EXPECT_EQ(out[2].cycle, 4);
}

TEST(BatchQueue, CollectGatesOnArrivalAndSortsByCycle) {
  stream::BatchQueue q(8);
  // Pushed out of order; gated by virtual arrival, delivered in cycle order.
  q.push(make_batch(2));  // arrival 3.0
  q.push(make_batch(0));  // arrival 1.0
  q.push(make_batch(1));  // arrival 2.0
  std::vector<stream::ObsBatch> out;
  q.collect(2.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].cycle, 0);
  EXPECT_EQ(out[1].cycle, 1);
  q.collect(10.0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].cycle, 2);
  EXPECT_EQ(q.size(), 0u);
}

// ----------------------------------------------- tail replay + IngestStream ---

constexpr std::size_t kObsDim = 8;

void append_window(int w, std::vector<std::uint8_t>& out, std::uint64_t& seq) {
  ingest::encode_obs_frame(make_batch(w, kObsDim), out);
  ingest::encode_truth_frame(w, make_truth(w, kObsDim), out);
  ingest::encode_heartbeat_frame(w, seq++, out);
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

ingest::IngestStreamConfig replay_config() {
  ingest::IngestStreamConfig ic;
  ic.read_timeout_ms = 5;
  ic.stale_after_ms = 1000;
  ic.produce_timeout_ms = 10000;
  return ic;
}

std::unique_ptr<ingest::TailStream> make_tail(const std::string& path) {
  ingest::TailStreamConfig tc;
  tc.path = path;
  tc.stop_at_eof = true;
  return std::make_unique<ingest::TailStream>(tc);
}

TEST(IngestStream, TailReplayDeliversEveryWindowWithTruth) {
  const std::string path = temp_path("ingest_replay.bin");
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  for (int w = 0; w <= 5; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(replay_config(), make_tail(path), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 5; ++k) {
    s.produce(k);
    const auto t = s.truth(k);
    ASSERT_EQ(t.size(), kObsDim) << "cycle " << k;
    const auto want = make_truth(k, kObsDim);
    EXPECT_EQ(0, std::memcmp(t.data(), want.data(), want.size() * sizeof(double)));
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  ASSERT_EQ(got.size(), 6u);
  for (int w = 0; w <= 5; ++w)
    expect_batches_equal(make_batch(w, kObsDim), got[static_cast<std::size_t>(w)]);
  const auto st = s.stats();
  EXPECT_EQ(st.wire.frames_corrupt, 0u);
  EXPECT_EQ(st.duplicates_dropped, 0u);
  EXPECT_EQ(st.high_water_cycle, 5);
  std::remove(path.c_str());
}

TEST(IngestStream, ReplayLongerThanTruthBufferPublishesEveryWindow) {
  // Small windows: the first read decodes the whole file, more windows than
  // the truth buffer holds. None of them may be evicted before the
  // consumer reaches it.
  const std::string path = temp_path("ingest_replay_long.bin");
  const ingest::IngestStreamConfig ic = replay_config();
  const int windows = ic.truth_buffer + 8;
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  for (int w = 0; w < windows; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(ic, make_tail(path), h, r);
  for (int k = 0; k < windows; ++k) {
    s.produce(k);
    const auto t = s.truth(k);
    ASSERT_EQ(t.size(), kObsDim) << "cycle " << k;
    const auto want = make_truth(k, kObsDim);
    EXPECT_EQ(0, std::memcmp(t.data(), want.data(), want.size() * sizeof(double)))
        << "cycle " << k;
  }
  std::remove(path.c_str());
}

TEST(IngestStream, ReplaySurvivesCorruptionAndDropsDuplicates) {
  const std::string path = temp_path("ingest_replay_corrupt.bin");
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  append_window(0, bytes, seq);
  // A duplicate retransmission of window 0 that lands two cycles later.
  {
    auto dup = make_batch(0, kObsDim);
    dup.arrival_cycles = 2.5;
    ingest::encode_obs_frame(dup, bytes);
  }
  // Window 1's first copy is damaged in flight; a good retransmission follows.
  {
    std::vector<std::uint8_t> torn;
    ingest::encode_obs_frame(make_batch(1, kObsDim), torn);
    torn[ingest::kWireHeaderBytes + 3] ^= 0xFFu;
    bytes.insert(bytes.end(), torn.begin(), torn.end());
  }
  append_window(1, bytes, seq);
  for (std::size_t i = 0; i < 37; ++i)  // line noise between windows
    bytes.push_back(static_cast<std::uint8_t>((i * 11 + 5) % 249));
  append_window(2, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(replay_config(), make_tail(path), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 2; ++k) {
    s.produce(k);
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  s.collect(10.0, got);  // drain the delayed duplicate past its arrival stamp
  ASSERT_EQ(got.size(), 3u);
  for (int w = 0; w <= 2; ++w)
    expect_batches_equal(make_batch(w, kObsDim), got[static_cast<std::size_t>(w)]);
  const auto st = s.stats();
  EXPECT_GE(st.wire.frames_corrupt, 1u);
  EXPECT_GE(st.wire.frames_resynced, 1u);
  EXPECT_GE(st.duplicates_dropped, 1u);
  const auto ic = s.ingest_counters();
  EXPECT_EQ(ic.frames_corrupt, st.wire.frames_corrupt);
  EXPECT_EQ(ic.frames_resynced, st.wire.frames_resynced);
  std::remove(path.c_str());
}

TEST(IngestStream, SaveRestoreKeepsLedgerAcrossTransportReplay) {
  // The transport does not checkpoint: a restored consumer re-reads the feed
  // from the top (here: a restarted feeder rewrote the file, replaying the
  // windows it already sent) and must rely on the delivered-batch ledger to
  // refuse them.
  const std::string path = temp_path("ingest_restore.bin");
  std::vector<std::uint8_t> bytes;
  std::uint64_t seq = 0;
  for (int w = 0; w <= 1; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(replay_config(), make_tail(path), h, r);
  std::vector<stream::ObsBatch> got;
  for (int k = 0; k <= 1; ++k) {
    s.produce(k);
    s.collect(static_cast<double>(k) + 1.0, got);
  }
  ASSERT_EQ(got.size(), 2u);
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(s.save_state(blob));
  const auto saved = s.stats();
  EXPECT_EQ(saved.wire.frames_decoded, 6u);  // 2 windows x (obs, truth, heartbeat)

  // Feeder restart: the file now replays windows 0-1 and continues with 2-3.
  bytes.clear();
  seq = 0;
  for (int w = 0; w <= 3; ++w) append_window(w, bytes, seq);
  write_file(path, bytes);

  ingest::IngestStream resumed(replay_config(), make_tail(path), h, r);
  ASSERT_TRUE(resumed.restore_state(blob));
  std::vector<stream::ObsBatch> got2;
  for (int k = 2; k <= 3; ++k) {
    resumed.produce(k);
    resumed.collect(static_cast<double>(k) + 1.0, got2);
  }
  ASSERT_EQ(got2.size(), 2u);
  EXPECT_EQ(got2[0].cycle, 2);
  EXPECT_EQ(got2[1].cycle, 3);
  const auto st = resumed.stats();
  EXPECT_GE(st.duplicates_dropped, 2u);  // re-read windows 0 and 1 were refused
  // Wire totals continue from the snapshot instead of resetting.
  EXPECT_GE(st.wire.frames_decoded, saved.wire.frames_decoded + 12);
  std::remove(path.c_str());
}

// ------------------------------------------------ followed file, restarts ---

std::vector<std::uint8_t> byte_pattern(std::size_t n, std::uint8_t salt) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 13 + salt);
  return v;
}

void append_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

/// The feeder's restart: a complete new file renamed over the path.
void replace_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  write_file(path + ".tmp", bytes);
  ASSERT_EQ(0, std::rename((path + ".tmp").c_str(), path.c_str()));
}

/// Everything a followed file holds past the stream's offset.
std::vector<std::uint8_t> read_available(ingest::TailStream& t) {
  std::vector<std::uint8_t> out, buf(64);
  for (;;) {
    std::size_t got = 0;
    const Status s = t.read_some(buf, 1, got);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kTimeout) << s.to_string();
      return out;
    }
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<long>(got));
  }
}

TEST(TailStream, FollowRereadsAFileRenamedOverThePath) {
  const std::string path = temp_path("tail_renamed.bin");
  const auto first = byte_pattern(100, 1);
  write_file(path, first);
  ingest::TailStream t({.path = path, .stop_at_eof = false});
  ASSERT_TRUE(t.connect().ok());
  EXPECT_EQ(read_available(t), first);

  // A restarted feeder renames a shorter file over the path, then appends:
  // both are read whole, from its byte 0.
  const auto second = byte_pattern(60, 2);
  replace_file(path, second);
  t.close();
  ASSERT_TRUE(t.connect().ok());
  EXPECT_EQ(read_available(t), second);
  const auto appended = byte_pattern(70, 3);
  append_file(path, appended);
  EXPECT_EQ(read_available(t), appended);

  // A replacement longer than the consumed offset is a new file too.
  const auto third = byte_pattern(200, 4);
  replace_file(path, third);
  t.close();
  ASSERT_TRUE(t.connect().ok());
  EXPECT_EQ(read_available(t), third);
  std::remove(path.c_str());
}

TEST(TailStream, FollowRereadsAFileTruncatedInPlace) {
  const std::string path = temp_path("tail_truncated.bin");
  const auto first = byte_pattern(100, 5);
  write_file(path, first);
  ingest::TailStream t({.path = path, .stop_at_eof = false});
  ASSERT_TRUE(t.connect().ok());
  EXPECT_EQ(read_available(t), first);

  // The same file, rewritten shorter: a reopen reads it from byte 0.
  const auto second = byte_pattern(40, 6);
  write_file(path, second);
  EXPECT_TRUE(read_available(t).empty());
  t.close();
  ASSERT_TRUE(t.connect().ok());
  EXPECT_EQ(read_available(t), second);

  // The same file at the same length or longer keeps its offset.
  const auto appended = byte_pattern(30, 7);
  append_file(path, appended);
  t.close();
  ASSERT_TRUE(t.connect().ok());
  EXPECT_EQ(read_available(t), appended);
  std::remove(path.c_str());
}

TEST(IngestStream, FollowSurvivesFeederRestartsAndCorruptFrames) {
  // A feeder thread writes the followed file and dies mid-frame kKills
  // times. Each restart replays the last two windows it sent, then adds
  // one: most rewrite the file from the top (a temporary file renamed over
  // the path), one appends after the torn frame. The feeder waits on the
  // consumer's progress, never on a timed sleep, so the consumer sees every
  // dead feed and every rotation.
  const std::string path = temp_path("ingest_follow.bin");
  std::remove(path.c_str());
  constexpr int kKills = 3;
  constexpr int kAppendingRestart = 2;

  ingest::IngestStreamConfig ic;
  ic.read_timeout_ms = 5;
  ic.stale_after_ms = 50;
  ic.produce_timeout_ms = 20000;
  da::IdentityObs h(kObsDim);
  da::DiagonalR r(kObsDim, 1.0);
  ingest::IngestStream s(
      ic, std::make_unique<ingest::TailStream>(ingest::TailStreamConfig{.path = path}), h, r);

  auto& tracer = telemetry::TraceCollector::instance();
  tracer.enable();
  std::atomic<int> delivered{-1};  // the last window the consumer collected
  std::atomic<bool> consumer_failed{false};
  std::thread feeder([&] {
    const auto wait_for = [&](const auto& done) {
      while (!done() && !consumer_failed.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    std::uint64_t seq = 0;
    const auto torn_heartbeat = [&](int w, std::vector<std::uint8_t>& out) {
      std::vector<std::uint8_t> torn;
      ingest::encode_heartbeat_frame(w, seq++, torn);
      out.insert(out.end(), torn.begin(), torn.begin() + static_cast<long>(torn.size() / 2));
    };
    // The first run: window 0 once corrupted and once intact, then window 1,
    // then the first kill.
    std::vector<std::uint8_t> buf;
    ingest::encode_obs_frame(make_batch(0, kObsDim), buf);
    buf[ingest::kWireHeaderBytes + 2] ^= 0xFFu;
    append_window(0, buf, seq);
    append_window(1, buf, seq);
    torn_heartbeat(1, buf);
    replace_file(path, buf);
    for (int restart = 1; restart <= kKills; ++restart) {
      wait_for([&] { return delivered.load() >= restart; });
      // A restarted feeder cannot know what survived: replay, then continue
      // (and die again, but for the last time).
      buf.clear();
      append_window(restart - 1, buf, seq);
      append_window(restart, buf, seq);
      append_window(restart + 1, buf, seq);
      if (restart < kKills) torn_heartbeat(restart + 1, buf);
      if (restart == kAppendingRestart) {
        // This one comes back after the consumer has given the dead feed
        // up and reopened the file.
        const std::uint64_t before = s.stats().reconnects;
        wait_for([&] { return s.stats().reconnects > before; });
        append_file(path, buf);
      } else {
        replace_file(path, buf);
      }
    }
  });

  std::vector<stream::ObsBatch> got;
  try {
    for (int k = 0; k <= kKills + 1; ++k) {
      s.produce(k);
      s.collect(static_cast<double>(k) + 1.0, got);
      delivered.store(k);
    }
  } catch (const std::exception& e) {
    consumer_failed.store(true);
    ADD_FAILURE() << e.what();
  }
  feeder.join();
  tracer.disable();
  std::vector<std::string> traced;
  for (const auto& thread : tracer.snapshot())
    for (const auto& span : thread.spans) traced.emplace_back(span.name);
  tracer.clear();
  for (const char* name : {"ingest.produce", "ingest.collect", "ingest.frame_corrupt",
                           "ingest.reconnect", "ingest.stale"})
    EXPECT_NE(std::find(traced.begin(), traced.end(), name), traced.end()) << name;

  ASSERT_EQ(got.size(), static_cast<std::size_t>(kKills + 2));
  for (int w = 0; w <= kKills + 1; ++w)
    expect_batches_equal(make_batch(w, kObsDim), got[static_cast<std::size_t>(w)]);
  const auto st = s.stats();
  EXPECT_GE(st.reconnects, static_cast<std::uint64_t>(kKills));
  EXPECT_GE(st.heartbeat_timeouts, static_cast<std::uint64_t>(kKills));
  EXPECT_GE(st.wire.frames_corrupt, 1u);
  EXPECT_GE(st.duplicates_dropped, 1u);  // the replayed windows
  std::remove(path.c_str());
}

// ------------------------------------------------- deep-overlap scheduling ---

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

/// Encodes window `w`'s wire traffic: every batch the stream released, truth
/// retransmits for the last three windows, and the heartbeat that publishes
/// the window. A deterministic coin prefixes a quarter of the frames with a
/// damaged copy (and sometimes a run of garbage bytes); the clean frame
/// follows at once, so the decoder's CRC check and resynchronization run
/// without starving the consumer of data.
void encode_window_frames(stream::SyntheticStream& s, int w, rng::Rng& wire_rng,
                          std::uint64_t& seq, std::vector<std::uint8_t>& out) {
  std::vector<stream::ObsBatch> got;
  s.collect(std::numeric_limits<double>::infinity(), got);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& b : got) {
    frames.emplace_back();
    ingest::encode_obs_frame(b, frames.back());
  }
  for (int t = std::max(0, w - 2); t <= w; ++t) {
    frames.emplace_back();
    ingest::encode_truth_frame(t, s.truth(t), frames.back());
  }
  frames.emplace_back();
  ingest::encode_heartbeat_frame(w, seq++, frames.back());

  for (const auto& f : frames) {
    if (wire_rng.bernoulli(0.25)) {
      std::vector<std::uint8_t> bad = f;
      bad[ingest::kWireHeaderBytes + 1] ^= 0x5A;  // payload damage: the CRC must catch it
      out.insert(out.end(), bad.begin(), bad.end());
      if (wire_rng.bernoulli(0.5))  // plus line noise the decoder has to hunt through
        for (std::size_t i = 0; i < 24; ++i)
          out.push_back(static_cast<std::uint8_t>((i * 7 + 1) % 251));
    }
    out.insert(out.end(), f.begin(), f.end());
  }
}

/// Which stream feeds the runner: the SyntheticStream itself, or an
/// IngestStream replaying a damaged wire capture recorded from it.
enum class Feed { kSynthetic, kWireReplay };

struct RunResult {
  std::vector<stream::StreamCycleMetrics> metrics;
  da::Ensemble ens{2, kDim};
  ingest::IngestStats ingest_stats;  ///< kWireReplay only
  Status resume_status = Status::Ok();
};

/// Cycles the deep-overlap Lorenz-96 stack from scratch, or from the
/// snapshot at `resume` when it is non-empty. `use_filter = false` gives the
/// free run.
RunResult run_deep(stream::SyntheticStreamConfig sc, stream::RealtimeConfig rc,
                   Feed feed = Feed::kSynthetic, const std::string& resume = {},
                   bool use_filter = true) {
  Lorenz96Config mc;
  mc.dim = kDim;
  // Shorter windows than the K=1 stream tests: a deep pipeline applies each
  // increment K windows after it was computed, so the window length bounds
  // how much chaotic decorrelation the increment suffers before landing.
  mc.steps_per_window = 5;
  Lorenz96 truth_model(mc), fcst_model(mc);
  da::IdentityObs h(mc.dim);
  da::DiagonalR r(mc.dim, 1.0);
  da::ETKF filter(da::EtkfConfig{.rtps = 0.4});
  const auto truth0 = spun_up_truth();
  stream::SyntheticStream synthetic(sc, truth_model, h, r, truth0);
  std::optional<ingest::IngestStream> wire;
  stream::ObservationStream* s = &synthetic;
  const std::string capture = temp_path("deep_capture.bin");
  if (feed == Feed::kWireReplay) {
    rng::Rng wire_rng = rng::Rng(sc.seed).substream(13);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> bytes;
    for (int w = 0; w < rc.cycles; ++w) {
      synthetic.produce(w);
      encode_window_frames(synthetic, w, wire_rng, seq, bytes);
    }
    write_file(capture, bytes);
    wire.emplace(replay_config(), make_tail(capture), h, r);
    s = &*wire;
  }
  stream::RealtimeRunner runner(rc, *s, fcst_model, use_filter ? &filter : nullptr);
  RunResult out;
  if (resume.empty())
    out.metrics = runner.run(truth0);
  else
    out.resume_status = runner.resume(resume, out.metrics);
  if (out.resume_status.ok()) out.ens = runner.ensemble();
  if (wire.has_value()) {
    out.ingest_stats = wire->stats();
    std::remove(capture.c_str());
  }
  return out;
}

double mean_tail_rmse(const std::vector<stream::StreamCycleMetrics>& m, std::size_t tail = 10) {
  double sum = 0.0;
  const std::size_t n = std::min(tail, m.size());
  for (std::size_t k = m.size() - n; k < m.size(); ++k) sum += m[k].rmse_post;
  return sum / static_cast<double>(n);
}

/// Delivery scenario whose every batch is exactly 3 cycles old at delivery —
/// one cycle past max_stale_cycles = 2, inside the K = 2 stretched window.
stream::SyntheticStreamConfig very_late_scenario() {
  stream::SyntheticStreamConfig sc;
  sc.latency_cycles = 2.6;
  sc.jitter_cycles = 0.3;
  return sc;
}

/// Ring depth `depth` (0 = the Serial schedule).
stream::RealtimeConfig deep_config(int depth) {
  stream::RealtimeConfig rc;
  rc.cycles = 20;
  rc.n_members = 10;
  rc.schedule = depth == 0 ? stream::Schedule::Serial : stream::Schedule::Overlapped;
  rc.overlap_depth = std::max(depth, 1);
  rc.max_stale_cycles = 2;
  return rc;
}

TEST(DeepOverlap, AppliesLateBatchesAnEquallyConfiguredK1RunDrops) {
  const auto k1 = run_deep(very_late_scenario(), deep_config(1));
  const auto k2 = run_deep(very_late_scenario(), deep_config(2));

  int k1_late = 0, k1_dropped = 0, k2_late = 0, k2_dropped = 0, k2_applied = 0;
  double k2_max_r = 1.0;
  for (const auto& m : k1.metrics) {
    k1_late += m.late_applied;
    k1_dropped += m.batches_discarded;
  }
  for (const auto& m : k2.metrics) {
    k2_late += m.late_applied;
    k2_dropped += m.batches_discarded;
    k2_applied += m.batches_assimilated;
    k2_max_r = std::max(k2_max_r, m.max_r_scale);
  }
  EXPECT_EQ(k1_late, 0);      // K=1 cannot admit age-3 stragglers...
  EXPECT_GT(k1_dropped, 0);   // ...so it drops them
  EXPECT_GT(k2_late, 0);      // K=2 applies them as late increments
  EXPECT_EQ(k2_dropped, 0);
  EXPECT_GT(k2_applied, 0);
  // Age-dependent R inflation: age 3 at the runner's slope 0.5 => r_scale 2.5.
  EXPECT_GE(k2_max_r, 2.5);
  // The down-weighted late increments may or may not beat a pure forecast
  // (that depends on the window length); what the schedule guarantees is
  // that they are admitted, discounted, and never destabilize the run.
  for (const auto& m : k2.metrics) ASSERT_TRUE(std::isfinite(m.rmse_post)) << m.cycle;
}

TEST(DeepOverlap, WireReplayIsBitwiseTheSyntheticStream) {
  // The capture carries every delivery with its virtual arrival stamp, so
  // replaying it through the decoder, the ledger and the queue must cycle
  // exactly like the stream it was recorded from — at every ring depth,
  // through a quarter of damaged frames. The K=1/K=2 straggler assertions
  // above therefore hold over the wire too.
  for (const int depth : {0, 1, 2, 3}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    const auto synthetic = run_deep(very_late_scenario(), deep_config(depth));
    const auto replay = run_deep(very_late_scenario(), deep_config(depth), Feed::kWireReplay);
    expect_bitwise_equal(synthetic.ens, replay.ens);
    // The replay decodes damaged frames by design, so only its ingest_*
    // transport counters may differ from the synthetic run.
    expect_metrics_bitwise_equal(synthetic.metrics, replay.metrics, "ingest_");
    EXPECT_GT(replay.ingest_stats.wire.frames_corrupt, 0u);
    EXPECT_GT(replay.ingest_stats.wire.frames_resynced, 0u);
  }
}

TEST(DeepOverlap, PromptDeliveryStillBeatsFreeRun) {
  stream::SyntheticStreamConfig sc;  // instant delivery
  const auto assimilated = run_deep(sc, deep_config(2));
  const auto free_run = run_deep(sc, deep_config(2), Feed::kSynthetic, {}, false);
  int late = 0, dropped = 0;
  for (const auto& m : assimilated.metrics) {
    late += m.late_applied;
    dropped += m.batches_discarded;
  }
  EXPECT_EQ(late, 0);
  EXPECT_EQ(dropped, 0);
  EXPECT_LT(mean_tail_rmse(assimilated.metrics), mean_tail_rmse(free_run.metrics));
}

TEST(DeepOverlap, BitwiseInvariantToThreadCount) {
  auto rc1 = deep_config(2);
  rc1.n_forecast_threads = 1;
  auto rc4 = deep_config(2);
  rc4.n_forecast_threads = 4;
  const auto a = run_deep(very_late_scenario(), rc1);
  const auto b = run_deep(very_late_scenario(), rc4);
  expect_bitwise_equal(a.ens, b.ens);
  expect_metrics_bitwise_equal(a.metrics, b.metrics);
}

/// A mid-run snapshot of a K = `depth` run, resumed at 1 and 4 threads, lands
/// bitwise on the uninterrupted run. Every batch is three windows late, so at
/// the snapshot (cycle 7) the increments staged at cycles 7 - depth .. 6 are
/// still pending. Returns the snapshot for format checks.
stream::CheckpointData expect_deep_resume_bitwise(int depth, Feed feed) {
  const auto sc = very_late_scenario();
  auto rc = deep_config(depth);
  rc.cycles = 12;
  const auto uninterrupted = run_deep(sc, rc, feed);

  const std::string path = temp_path("ckpt_deep.bin");
  auto rc_ck = rc;
  rc_ck.checkpoint_path = path;
  rc_ck.checkpoint_every = 7;  // one snapshot, mid-run, with analyses in flight
  const auto with_ckpt = run_deep(sc, rc_ck, feed);
  expect_bitwise_equal(uninterrupted.ens, with_ckpt.ens);

  stream::CheckpointData data;
  EXPECT_TRUE(stream::load_checkpoint(path, data).ok());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    auto rc_res = rc_ck;
    rc_res.n_forecast_threads = threads;
    const auto resumed = run_deep(sc, rc_res, feed, path);
    EXPECT_TRUE(resumed.resume_status.ok()) << resumed.resume_status.to_string();
    expect_bitwise_equal(uninterrupted.ens, resumed.ens);
    expect_metrics_bitwise_equal(uninterrupted.metrics, resumed.metrics);
  }
  std::remove(path.c_str());
  return data;
}

TEST(DeepOverlap, CheckpointResumeIsBitwiseAcrossThreadCounts) {
  // Over the synthetic stream and over the wire replay, whose restored
  // stream re-reads the capture from the top and relies on its ledger.
  for (const Feed feed : {Feed::kSynthetic, Feed::kWireReplay}) {
    SCOPED_TRACE(feed == Feed::kSynthetic ? "synthetic" : "wire replay");
    // The snapshot carries the staged-analysis ring (v5 format) — cycles 5
    // and 6 had analyses staged but not yet applied when it was written.
    const auto data = expect_deep_resume_bitwise(2, feed);
    EXPECT_EQ(data.overlap_depth, 2);
    EXPECT_EQ(data.next_cycle, 7);
    EXPECT_GE(data.ring.size(), 1u);
  }
}

TEST(DeepOverlap, ResumeRefusesOverlapDepthMismatch) {
  const auto sc = very_late_scenario();
  auto rc = deep_config(2);
  rc.cycles = 12;
  const std::string path = temp_path("ckpt_deep_mismatch.bin");
  rc.checkpoint_path = path;
  rc.checkpoint_every = 7;
  (void)run_deep(sc, rc);

  auto rc_bad = rc;
  rc_bad.overlap_depth = 3;
  EXPECT_FALSE(run_deep(sc, rc_bad, Feed::kSynthetic, path).resume_status.ok());
  std::remove(path.c_str());
}

TEST(DeepOverlap, K3CheckpointResumeIsBitwiseAcrossThreadCounts) {
  // Cycles 4, 5 and 6 each staged an increment that lands at 7, 8 and 9 —
  // three pending slots in the file.
  const auto data = expect_deep_resume_bitwise(3, Feed::kSynthetic);
  EXPECT_EQ(data.overlap_depth, 3);
  EXPECT_EQ(data.next_cycle, 7);
  ASSERT_EQ(data.ring.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(data.ring[static_cast<std::size_t>(i)].cycle, 4 + i);
}

// -------------------------------------------------- pinned stream bytes ---

/// FNV-1a over every batch in order: window, both stamps and the values.
std::uint64_t hash_batches(const std::vector<stream::ObsBatch>& batches) {
  Fnv1a h;
  for (const auto& b : batches)
    h.add(std::vector<double>{static_cast<double>(b.cycle), b.valid_cycles, b.arrival_cycles})
        .add(b.y);
  return h.value();
}

/// Restores `blob` into a freshly built stream and saves it again: the same
/// bytes must come back.
void expect_restore_resaves(stream::ObservationStream& fresh,
                            const std::vector<std::uint8_t>& blob) {
  ASSERT_TRUE(fresh.restore_state(blob));
  std::vector<std::uint8_t> again;
  ASSERT_TRUE(fresh.save_state(again));
  EXPECT_TRUE(again == blob);
}

TEST(StreamCheckpoint, SaveStateBytesMatchRecordedConstants) {
  // The three checkpointable streams, each collected partway so batches are
  // still in flight: a SyntheticStream with latency, jitter (out-of-order
  // arrivals), dropouts and a short truth ring; the same stream under every
  // content fault; and an IngestStream replaying a capture recorded from it
  // with duplicated obs frames. Their save_state bytes, the capture and the
  // collected batches are pinned to constants recorded before the streams
  // shared one batch queue, truth ring and batch codec. An FMA build
  // (TURBDA_NATIVE) may contract Lorenz-96's multiply-adds, which moves
  // every value, so there only the restore round trips are checked.
  stream::SyntheticStreamConfig sc;
  sc.seed = 5;
  sc.latency_cycles = 0.4;
  sc.jitter_cycles = 1.7;
  sc.dropout_prob = 0.2;
  sc.truth_buffer = 5;
  Lorenz96Config mc;
  mc.dim = kDim;
  mc.steps_per_window = 5;
  da::IdentityObs h(kDim);
  da::DiagonalR r(kDim, 1.0);
  const auto truth0 = spun_up_truth();
  constexpr int kWindows = 12;
  const auto drive = [](stream::ObservationStream& s) {
    std::vector<stream::ObsBatch> got;
    for (int k = 0; k < kWindows; ++k) {
      s.produce(k);
      s.collect(static_cast<double>(k) + 1.0, got);
    }
    return got;
  };
  const auto save = [](const stream::ObservationStream& s) {
    std::vector<std::uint8_t> blob;
    EXPECT_TRUE(s.save_state(blob));
    return blob;
  };

  Lorenz96 m_syn(mc), m_syn2(mc);
  stream::SyntheticStream syn(sc, m_syn, h, r, truth0);
  const auto syn_got = drive(syn);
  const auto syn_blob = save(syn);
  stream::SyntheticStream syn2(sc, m_syn2, h, r, truth0);
  expect_restore_resaves(syn2, syn_blob);

  stream::FaultConfig fc;
  fc.nan_prob = 0.05;
  fc.outlier_prob = 0.05;
  fc.stuck_prob = 0.5;
  fc.duplicate_prob = 0.4;
  fc.truncate_prob = 0.3;
  Lorenz96 m_inner(mc), m_inner2(mc);
  stream::SyntheticStream inner(sc, m_inner, h, r, truth0);
  stream::FaultyStream faulty(fc, inner);
  const auto faulty_got = drive(faulty);
  const auto faulty_blob = save(faulty);
  stream::SyntheticStream inner2(sc, m_inner2, h, r, truth0);
  stream::FaultyStream faulty2(fc, inner2);
  expect_restore_resaves(faulty2, faulty_blob);

  Lorenz96 m_rec(mc);
  stream::SyntheticStream rec(sc, m_rec, h, r, truth0);
  std::vector<std::uint8_t> capture;
  std::uint64_t seq = 0;
  for (int w = 0; w < kWindows; ++w) {
    rec.produce(w);
    std::vector<stream::ObsBatch> sent;
    rec.collect(std::numeric_limits<double>::infinity(), sent);
    for (const auto& b : sent) {
      ingest::encode_obs_frame(b, capture);
      if (b.cycle % 3 == 0) ingest::encode_obs_frame(b, capture);  // a retransmission
    }
    ingest::encode_truth_frame(w, rec.truth(w), capture);
    ingest::encode_heartbeat_frame(w, seq++, capture);
  }
  const std::string path = temp_path("pinned_capture.bin");
  write_file(path, capture);
  ingest::IngestStreamConfig ic = replay_config();
  ic.truth_buffer = 5;
  ingest::IngestStream wire(ic, make_tail(path), h, r);
  const auto wire_got = drive(wire);
  const auto wire_blob = save(wire);
  EXPECT_GE(wire.stats().duplicates_dropped, 1u);
  // The capture fits one read, so produce(0) decodes every truth; the ring
  // still holds only the last truth_buffer windows.
  int truths_held = 0;
  for (int k = 0; k < kWindows; ++k) truths_held += wire.truth(k).empty() ? 0 : 1;
  EXPECT_EQ(truths_held, ic.truth_buffer);
  EXPECT_FALSE(wire.truth(kWindows - 1).empty());
  ingest::IngestStream wire2(ic, make_tail(path), h, r);
  expect_restore_resaves(wire2, wire_blob);
  std::remove(path.c_str());

#if !defined(__FMA__)
  EXPECT_EQ(Fnv1a().add(syn_blob).value(), 0x3db3702bc433bf5eull);
  EXPECT_EQ(hash_batches(syn_got), 0xd43ec981b28f6651ull);
  EXPECT_EQ(Fnv1a().add(faulty_blob).value(), 0x3a3f45da88ffc51dull);
  EXPECT_EQ(hash_batches(faulty_got), 0x226cd8af46a1ee12ull);
  EXPECT_EQ(Fnv1a().add(capture).value(), 0x9fc3c1cbb274d0c3ull);
  EXPECT_EQ(Fnv1a().add(wire_blob).value(), 0x33007ad1c0c1bca0ull);
  EXPECT_EQ(hash_batches(wire_got), 0xd43ec981b28f6651ull);
#endif
}

// -------------------------------------------------------- metrics schema ---

TEST(StreamMetrics, IngestColumnsPresentAndRowAligned) {
  const auto cols = stream::stream_metrics_columns();
  stream::StreamCycleMetrics m;
  m.late_applied = 3;
  m.ingest_reconnects = 1;
  m.ingest_frames_corrupt = 2;
  m.ingest_frames_resynced = 2;
  m.ingest_queue_drops = 4;
  const auto row = stream::stream_metrics_row(m);
  ASSERT_EQ(cols.size(), row.size());
  const auto col = [&](const std::string& name) {
    for (std::size_t i = 0; i < cols.size(); ++i)
      if (cols[i] == name) return row[i];
    ADD_FAILURE() << "missing column " << name;
    return -1.0;
  };
  EXPECT_EQ(col("late_applied"), 3.0);
  EXPECT_EQ(col("ingest_reconnects"), 1.0);
  EXPECT_EQ(col("ingest_frames_corrupt"), 2.0);
  EXPECT_EQ(col("ingest_frames_resynced"), 2.0);
  EXPECT_EQ(col("ingest_queue_drops"), 4.0);
}

}  // namespace
}  // namespace turbda
