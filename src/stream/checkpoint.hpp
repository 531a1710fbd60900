// Versioned, integrity-checked snapshots of a cycling run.
//
// A real-time assimilation service must survive being killed: the snapshot
// captures everything the RealtimeRunner needs to continue *bitwise
// identically* — the ensemble, the cycle index, the overlap ring's pending
// analysis increments, the duplicate-batch guard, the stream's
// undelivered queue and truth ring, the filter's cross-cycle state and the
// metrics rows already produced. The file format is little-endian with a
// magic tag, a format version and a CRC-32 trailer over the payload, so a
// truncated, corrupted or future-format file is *refused* with a precise
// Status instead of silently resuming from garbage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "stream/realtime_runner.hpp"

namespace turbda::stream {

inline constexpr std::uint32_t kCheckpointMagic = 0x4B434454u;  // "TDCK" LE
// v2: StreamCycleMetrics grew qc_ms / checkpoint_ms / pool_idle_frac.
// v3: overlap_depth config echo + deep-overlap staged-analysis ring;
//     StreamCycleMetrics grew late_applied / ingest_* columns.
// v4: one ring for every depth: overlap_depth echoes the effective depth
//     (0 = Serial), ring entries hold {cycle, increment}; the schedule byte
//     and the K = 1 prior/post buffers are gone.
// v5: SyntheticStream's state no longer holds a dropped-batch counter.
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Everything a snapshot holds. The config echo fields let resume() refuse a
/// checkpoint taken under a different setup instead of diverging silently.
struct CheckpointData {
  // Config echo.
  std::uint64_t seed = 0;
  std::uint64_t n_members = 0;
  std::uint64_t dim = 0;
  std::int32_t cycles = 0;
  std::int32_t overlap_depth = 0;  ///< effective ring depth D (0 = Serial)

  std::int32_t next_cycle = 0;  ///< first cycle the resumed run executes

  std::vector<std::uint8_t> rng_modelerr;  ///< Rng::kStateBytes
  std::vector<double> ensemble;            ///< n_members * dim, member-major

  /// Analysis increments staged but not yet applied at the snapshot point,
  /// in staged order. Empty for Serial runs.
  struct StagedSlotData {
    std::int32_t cycle = -1;
    std::vector<double> increment;  ///< post - prior, n_members * dim
  };
  std::vector<StagedSlotData> ring;

  std::vector<std::uint8_t> applied;  ///< per-window duplicate guard, size cycles
  std::vector<std::uint8_t> stream_state;
  std::vector<std::uint8_t> filter_state;
  std::vector<StreamCycleMetrics> metrics;  ///< rows already produced
};

/// CRC-32 (IEEE, reflected 0xEDB88320) over `data`, eight bytes per table
/// step; the wire codec frames with it too.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Streams header + payload + CRC into `path + ".tmp"`, folding each piece
/// into the CRC as it is written (the double arrays straight from `data`),
/// then renames that file over `path`. The replace is atomic against the
/// process dying mid-write, which leaves the previous snapshot in place,
/// but not against power loss: nothing is fsync'd. Returns kIoError, with
/// the temporary file removed, when the write or the rename fails.
[[nodiscard]] Status save_checkpoint(const std::string& path, const CheckpointData& data);

/// Validates magic, version, length and CRC before decoding; on any failure
/// returns a non-ok Status and leaves `data` unspecified.
[[nodiscard]] Status load_checkpoint(const std::string& path, CheckpointData& data);

}  // namespace turbda::stream
