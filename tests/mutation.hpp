// Seeded byte mutations for the decoder fuzz tests (checkpoint files and the
// streams' state blobs). A Mutator draws from one rng::Rng, so a test that
// gives mutant i substream i of a fixed seed replays any failure alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"

namespace turbda {

/// Offsets whose eight bytes read as a little-endian value below 2^16: every
/// length prefix of a bytes:: encoding, plus whatever other fields happen
/// to look like one. These are where a lying count is written.
inline std::vector<std::size_t> count_offsets(std::span<const std::uint8_t> bytes) {
  std::vector<std::size_t> at;
  for (std::size_t o = 0; o + 8 <= bytes.size(); ++o) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(bytes[o + b]) << (8 * b);
    if (v < (1u << 16)) at.push_back(o);
  }
  return at;
}

class Mutator {
 public:
  explicit Mutator(rng::Rng rng) : rng_(rng) {}

  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(rng_.next_u64() % n); }

  /// A count that lies about `truth`: off by a few, plausible but wrong, one
  /// whose byte size 8 n wraps to a few bytes, or one near 2^64.
  std::uint64_t lying_count(std::uint64_t truth) {
    switch (below(4)) {
      case 0:
        return below(2) == 0 ? truth + 1 + below(3) : truth - 1 - below(3);
      case 1:
        return below(1u << 16);
      case 2:
        return (std::uint64_t{1} << (61 + below(3))) + below(16);
      default:
        return ~std::uint64_t{0} - below(64);
    }
  }

  /// Writes lying_count over the eight little-endian bytes at `at`.
  void lie_at(std::vector<std::uint8_t>& bytes, std::size_t at) {
    std::uint64_t truth = 0;
    for (std::size_t b = 0; b < 8; ++b) truth |= static_cast<std::uint64_t>(bytes[at + b]) << (8 * b);
    const std::uint64_t lie = lying_count(truth);
    for (std::size_t b = 0; b < 8; ++b) bytes[at + b] = static_cast<std::uint8_t>(lie >> (8 * b));
  }

  /// One mutation of `bytes` (non-empty): bit flips, a truncation (a torn
  /// tail or a lost span), a lying count at one of `counts` (offsets of
  /// eight readable bytes), or a splice of a piece of `donor`.
  void mutate(std::vector<std::uint8_t>& bytes, std::span<const std::size_t> counts,
              std::span<const std::uint8_t> donor) {
    switch (below(4)) {
      case 0:
        for (std::size_t n = 1 + below(8); n > 0; --n)
          bytes[below(bytes.size())] ^= static_cast<std::uint8_t>(1u << below(8));
        break;
      case 1: {
        const std::size_t at = below(bytes.size());
        const std::size_t len = below(2) == 0 ? bytes.size() - at : 1 + below(bytes.size() - at);
        const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(at);
        bytes.erase(first, first + static_cast<std::ptrdiff_t>(len));
        break;
      }
      case 2:
        if (!counts.empty()) {
          lie_at(bytes, counts[below(counts.size())]);
          break;
        }
        [[fallthrough]];
      default: {
        const std::size_t from = below(donor.size());
        const std::size_t len = 1 + below(donor.size() - from);
        const auto piece = donor.subspan(from, len);
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(below(bytes.size() + 1)),
                     piece.begin(), piece.end());
        break;
      }
    }
  }

 private:
  rng::Rng rng_;
};

}  // namespace turbda
