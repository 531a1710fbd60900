// User-facing RNG built on Philox4x32-10: uniform, Gaussian, integer and
// Bernoulli draws plus derived independent sub-streams.
//
// gaussian() and fill_gaussian() are the scalar reference: Box–Muller with
// libm log/sin/cos, one Philox block per pair. They seed every benchmark
// input, so their bits never change. fill_gaussian_lanes() reads the same
// blocks and uniforms through a dispatched lane kernel that computes log,
// sqrt and sin/cos in float: each value is the reference's at float
// precision (README, "EnSF analysis", gives the measured bound), and its
// bits are the same at every SIMD level.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/math_utils.hpp"
#include "rng/philox.hpp"
#include "simd/kernels.hpp"

namespace turbda::rng {

/// Counter-based random stream. Copyable; each copy continues independently
/// from its current counter. `substream(i)` derives a statistically
/// independent stream (distinct key), used to give every ensemble member /
/// rank / filter cycle its own reproducible randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0)
      : key_{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32)},
        ctr_{0, 0, static_cast<std::uint32_t>(stream), static_cast<std::uint32_t>(stream >> 32)} {}

  /// Derive an independent stream; (seed, stream) pairs never collide across
  /// distinct `i` for a fixed parent.
  [[nodiscard]] Rng substream(std::uint64_t i) const {
    // Mix the substream index into the key with splitmix64-style avalanche.
    std::uint64_t z = (static_cast<std::uint64_t>(key_[1]) << 32 | key_[0]) + 0x9E3779B97F4A7C15ull * (i + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    Rng r(z, (static_cast<std::uint64_t>(ctr_[3]) << 32) | ctr_[2]);
    return r;
  }

  /// Next raw 32-bit value.
  std::uint32_t next_u32() {
    if (buf_pos_ == 4) refill();
    return buf_[buf_pos_++];
  }

  std::uint64_t next_u64() {
    const std::uint64_t lo = next_u32();
    const std::uint64_t hi = next_u32();
    return (hi << 32) | lo;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box–Muller (cached pair).
  double gaussian() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    // Avoid log(0): map to (0,1].
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    cached_ = r * std::sin(kTwoPi * u2);
    have_cached_ = true;
    return r * std::cos(kTwoPi * u2);
  }

  double gaussian(double mean, double stddev) { return mean + stddev * gaussian(); }

  /// Fill a span with iid standard normals.
  void fill_gaussian(std::span<double> out, double mean = 0.0, double stddev = 1.0) {
    for (double& x : out) x = gaussian(mean, stddev);
  }

  /// Fill a span with iid standard normals through the lane kernel
  /// (simd::Kernels::gaussian_pairs). A cached half goes to out[0];
  /// whole pairs then come from the kernel, one Philox block each, and an
  /// odd last value from gaussian(), which caches its sin half. A stream left
  /// partway through a block by uniform() or next_u32() falls back to
  /// fill_gaussian(). Either way each value matches fill_gaussian()'s at
  /// float precision, and the stream ends where fill_gaussian() leaves it.
  void fill_gaussian_lanes(std::span<double> out) {
    std::size_t i = 0;
    if (have_cached_ && !out.empty()) out[i++] = gaussian();
    if (buf_pos_ != 4) {
      fill_gaussian(out.subspan(i));
      return;
    }
    const std::size_t pairs = (out.size() - i) / 2;
    if (pairs > 0) {
      const auto word_pair = [](std::uint32_t lo, std::uint32_t hi) {
        return static_cast<std::uint64_t>(hi) << 32 | lo;
      };
      const std::uint64_t block = word_pair(ctr_[0], ctr_[1]);
      simd::active_kernels().gaussian_pairs(out.data() + i, pairs, block,
                                            word_pair(ctr_[2], ctr_[3]),
                                            word_pair(key_[0], key_[1]));
      const std::uint64_t next = block + pairs;  // the carry refill() applies
      ctr_[0] = static_cast<std::uint32_t>(next);
      ctr_[1] = static_cast<std::uint32_t>(next >> 32);
      i += 2 * pairs;
    }
    if (i < out.size()) out[i] = gaussian();
  }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free-enough method with rejection
    // to remove modulo bias.
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher–Yates shuffle of index span.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Exact serialized size of the generator state (checkpoint/restart).
  static constexpr std::size_t kStateBytes =
      2 * sizeof(std::uint32_t) +  // key
      4 * sizeof(std::uint32_t) +  // counter
      4 * sizeof(std::uint32_t) +  // output buffer
      sizeof(std::int32_t) +       // buffer position
      sizeof(double) +             // cached Box–Muller value
      1;                           // have_cached flag

  /// Appends the complete generator state (key, counter, buffered outputs,
  /// cached Gaussian) to `out`; restoring it with load_state() continues the
  /// stream bitwise from this exact point.
  void save_state(std::vector<std::uint8_t>& out) const {
    for (std::uint32_t v : key_) bytes::put_u32(out, v);
    for (std::uint32_t v : ctr_) bytes::put_u32(out, v);
    for (std::uint32_t v : buf_) bytes::put_u32(out, v);
    bytes::put_i32(out, buf_pos_);
    bytes::put_f64(out, cached_);
    out.push_back(have_cached_ ? 1 : 0);
  }

  /// Restores state written by save_state(). Returns false (leaving the
  /// generator untouched) when `in` is not exactly kStateBytes long or the
  /// decoded buffer position is out of range.
  bool load_state(std::span<const std::uint8_t> in) {
    if (in.size() != kStateBytes) return false;
    bytes::Reader r(in);
    Philox4x32::Key key;
    Philox4x32::Counter ctr, buf;
    for (auto& v : key) v = r.u32();
    for (auto& v : ctr) v = r.u32();
    for (auto& v : buf) v = r.u32();
    const std::int32_t pos = r.i32();
    if (pos < 0 || pos > 4) return false;
    key_ = key;
    ctr_ = ctr;
    buf_ = buf;
    buf_pos_ = pos;
    cached_ = r.f64();
    have_cached_ = r.u8() != 0;
    return true;
  }

 private:
  void refill() {
    buf_ = Philox4x32::apply(ctr_, key_);
    buf_pos_ = 0;
    // 64-bit increment over ctr_[0..1]; ctr_[2..3] is the stream id.
    if (++ctr_[0] == 0) ++ctr_[1];
  }

  Philox4x32::Key key_;
  Philox4x32::Counter ctr_;
  Philox4x32::Counter buf_{};
  int buf_pos_ = 4;
  double cached_ = 0.0;
  bool have_cached_ = false;
};

}  // namespace turbda::rng
