// Pins the output bits of every simd::Kernels entry at every dispatch level.
//
// Each entry runs once per available level on fixed inputs whose shapes
// reach both its vector body and its scalar tail, and an FNV-1a hash of
// every buffer it writes is compared with a constant. A table that wires an
// entry to the wrong instantiation (an unfused kernel in the Avx2Fma table,
// say) fails here even where the numeric suites cannot tell: EnSF's
// per-step reference, for one, calls the same table as the code it checks.
// A change to a kernel body that moves bits must record new constants and
// say why.
//
// The inputs are integers scaled by powers of two (exact conversions only),
// so this TU computes no rounded value of its own and its bits do not
// depend on how it is compiled (-march=native included). The FFT entries
// take arbitrary finite twiddles and an identity bit-reversal table; the
// single-precision entries (the nine FFT entries, sqg_jacobian, sqg_pass1's
// lane store and matmul_rows_f32) take float inputs of the same
// construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iterator>
#include <limits>
#include <vector>

#include "fnv1a.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace turbda {
namespace {

using simd::Kernels;
using simd::SimdLevel;

constexpr std::size_t W = simd::kLaneBatch;

static_assert(sizeof(Kernels) == 24 * sizeof(void (*)()),
              "every simd::Kernels entry needs a runner and constants below");

/// Values i * 2^-52 for integers i in [-2^52, 2^52) from a 64-bit LCG: exact
/// doubles in [-1, 1) with full 53-bit significands, so products round and
/// a fused multiply-add gives other bits than a multiply and an add.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : state_(seed) {}

  double next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const auto i = static_cast<std::int64_t>(state_ >> 11) - (std::int64_t{1} << 52);
    return std::ldexp(static_cast<double>(i), -52);
  }

  std::vector<double> vec(std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = next();
    return v;
  }

  /// Values i * 2^-23 for integers i in [-2^23, 2^23): exact floats in
  /// [-1, 1) with full 24-bit significands.
  float nextf() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const auto i = static_cast<std::int64_t>(state_ >> 40) - (std::int64_t{1} << 23);
    return static_cast<float>(std::ldexp(static_cast<double>(i), -23));
  }

  std::vector<float> vecf(std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = nextf();
    return v;
  }

 private:
  std::uint64_t state_;
};

std::vector<std::size_t> identity(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

// ---- FFT butterflies ----

// Lane transforms (float): m = 2 side by side at stride 3, so the gaps
// between them must come back untouched.
std::uint64_t run_lane_pass_first(const Kernels& k) {
  Inputs in(6);
  auto d = in.vecf(8 * 3 * 2 * W);  // n = 8
  k.lane_pass_first(d.data(), 8, 3, 2, -1.0f);
  return Fnv1a().add(d).value();
}

std::uint64_t run_lane_pass_radix4(const Kernels& k) {
  Inputs in(7);
  auto d = in.vecf(16 * 3 * 2 * W);  // n = 16, half = 2: two blocks
  const auto tw = in.vecf(4), tw1 = in.vecf(8);
  k.lane_pass_radix4(d.data(), 16, 3, 2, 2, tw.data(), tw1.data());
  return Fnv1a().add(d).value();
}

std::uint64_t run_lane_pass_radix2(const Kernels& k) {
  Inputs in(8);
  auto d = in.vecf(8 * 3 * 2 * W);  // n = 8, half = 2: two blocks
  const auto tw = in.vecf(4);
  k.lane_pass_radix2(d.data(), 8, 3, 2, 2, tw.data());
  return Fnv1a().add(d).value();
}

// h = 5: four elements through the transpose, then one through the tail.
std::uint64_t run_lane_rows_in(const Kernels& k) {
  Inputs in(9);
  std::vector<std::vector<float>> rows;
  for (std::size_t l = 0; l < W; ++l) rows.push_back(in.vecf(10));
  const float* x[W] = {rows[0].data(), rows[1].data(), rows[2].data(), rows[3].data()};
  const auto bitrev = identity(5);
  auto s = in.vecf(5 * 2 * W);
  k.lane_rows_in(x, 5, bitrev.data(), s.data());
  return Fnv1a().add(s).value();
}

std::uint64_t run_lane_rfft_pack(const Kernels& k) {
  Inputs in(10);
  auto s = in.vecf(9 * 2 * W);  // h = 8
  const auto w = in.vecf(16);
  k.lane_rfft_pack(s.data(), w.data(), 8);
  return Fnv1a().add(s).value();
}

// nb = 2 blocks, three of four rows stored: row 3 of out keeps its input.
std::uint64_t run_lane_cols_in(const Kernels& k) {
  Inputs in(11);
  const auto s = in.vecf(4 * 2 * 2 * W);
  auto out = in.vecf(4 * 2 * 2 * W);
  k.lane_cols_in(s.data(), 2, 3, out.data());
  return Fnv1a().add(out).value();
}

// cols = 6: one whole block, then two columns of the next (float to double).
std::uint64_t run_lane_cols_out(const Kernels& k) {
  Inputs in(12);
  const auto row = in.vecf(2 * 2 * W);
  auto out = in.vec(14);
  k.lane_cols_out(row.data(), 6, out.data());
  return Fnv1a().add(out).value();
}

// h = 8, cols = 6: bins 6..8 hold NaN and must read as +0; the results go
// to every other element (stride 2) of out, whose other elements keep
// their input.
std::uint64_t run_lane_rfft_unpack(const Kernels& k) {
  Inputs in(13);
  auto s = in.vecf(9 * 2 * W);
  std::fill(s.begin() + 6 * 2 * W, s.end(), std::numeric_limits<float>::quiet_NaN());
  const auto w = in.vecf(16);
  const auto bitrev = identity(8);
  auto out = in.vecf(16 * 2 * W);
  k.lane_rfft_unpack(s.data(), w.data(), 8, 6, 0.375f, bitrev.data(), 2, out.data());
  return Fnv1a().add(out).value();
}

// h = 5 elements at stride 2: four through the transpose, one through the
// tail.
std::uint64_t run_lane_rows_out(const Kernels& k) {
  Inputs in(14);
  const auto s = in.vecf(10 * 2 * W);
  std::vector<std::vector<float>> rows;
  for (std::size_t l = 0; l < W; ++l) rows.push_back(in.vecf(10));
  float* const out[W] = {rows[0].data(), rows[1].data(), rows[2].data(), rows[3].data()};
  k.lane_rows_out(s.data(), 2, 5, out);
  Fnv1a h;
  for (const auto& r : rows) h.add(r);
  return h.value();
}

// ---- Small dense ----
// Contiguous entries run n = 7: one Vec, then a three-element tail.

std::uint64_t run_rot_rows(const Kernels& k) {
  Inputs in(15);
  auto p = in.vec(7), q = in.vec(7);
  const double c = in.next(), s = in.next();
  k.rot_rows(p.data(), q.data(), 7, c, s);
  return Fnv1a().add(p).add(q).value();
}

// m = 6 columns: one four-column block, then two single columns; k = 3.
std::uint64_t run_baccum_rows(const Kernels& k) {
  Inputs in(17);
  auto acc = in.vec(6 * W);
  const auto x = in.vec(5 * W);   // ldx = 2
  const auto y = in.vec(20 * W);  // ldy = 7
  k.baccum_rows(acc.data(), x.data(), 2, y.data(), 7, 3, 6);
  return Fnv1a().add(acc).value();
}

std::uint64_t run_bscale(const Kernels& k) {
  Inputs in(18);
  const auto x = in.vec(3 * W), alpha = in.vec(W);
  auto out = in.vec(3 * W);
  k.bscale(out.data(), x.data(), 3, alpha.data());
  return Fnv1a().add(out).value();
}

std::uint64_t run_bscale_shift(const Kernels& k) {
  Inputs in(19);
  const auto x = in.vec(3 * W), shift = in.vec(W);
  auto out = in.vec(3 * W);
  k.bscale_shift(out.data(), x.data(), 3, in.next(), shift.data());
  return Fnv1a().add(out).value();
}

// Four symmetric 5 x 5 problems: two converge, one skips its small pivots
// and exhausts the six sweeps, and the last has an infinite tolerance and
// must never be touched.
std::uint64_t run_bjacobi_sweeps(const Kernels& k) {
  Inputs in(20);
  constexpr std::size_t n = 5;
  std::vector<double> m(n * n * W), vt(n * n * W, 0.0);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = p; q < n; ++q)
      for (std::size_t l = 0; l < W; ++l) m[(p * n + q) * W + l] = m[(q * n + p) * W + l] = in.next();
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t l = 0; l < W; ++l) vt[(p * n + p) * W + l] = 1.0;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> tol_sq = {std::ldexp(1.0, -80), std::ldexp(1.0, -20),
                                      std::ldexp(1.0, -80), inf};
  const std::vector<double> skip_sq = {0.0, 0.0, std::ldexp(1.0, -30), 0.0};
  std::vector<int> sweeps(W, -1);
  std::vector<double> off_sq(W, -1.0);
  std::vector<std::uint8_t> converged(W, 2);
  k.bjacobi_sweeps(m.data(), vt.data(), n, 6, tol_sq.data(), skip_sq.data(), sweeps.data(),
                   off_sq.data(), converged.data());
  return Fnv1a().add(m).add(vt).add(sweeps).add(off_sq).add(converged).value();
}

// cl = 4, lim = 1/2: some likelihood steps clamp, some do not.
std::uint64_t run_ensf_update(const Kernels& k) {
  Inputs in(22);
  const auto wx = in.vec(7), grad = in.vec(7), noise = in.vec(7);
  auto z = in.vec(7);
  const double c0 = in.next(), c1 = in.next(), noise_sd = in.next();
  k.ensf_update(z.data(), wx.data(), grad.data(), noise.data(), 7, c0, c1, 4.0, 0.5, noise_sd);
  return Fnv1a().add(z).value();
}

// 7 rows (a five-row tile, then two), n = 13 columns (a two-Vec tile, a
// one-Vec tile, one scalar column), k = 3, lda = 4.
std::uint64_t run_matmul_rows(const Kernels& k) {
  Inputs in(23);
  const auto a = in.vec(7 * 4), b = in.vec(3 * 13);
  auto out = in.vec(7 * 13);
  k.matmul_rows(out.data(), a.data(), 4, 7, b.data(), 3, 13);
  return Fnv1a().add(out).value();
}

// Float: 7 rows, n = 29 columns (a two-register tile, a one-register tile,
// five scalar columns), k = 3, lda = 4; the sums widen to double.
std::uint64_t run_matmul_rows_f32(const Kernels& k) {
  Inputs in(21);
  const auto a = in.vecf(7 * 4), b = in.vecf(3 * 29);
  auto out = in.vec(7 * 29);
  k.matmul_rows_f32(out.data(), a.data(), 4, 7, b.data(), 3, 29);
  return Fnv1a().add(out).value();
}

// Eleven pairs (a whole eight-pair step, then three lanes of the next), with
// the 64-bit block counter crossing its 32-bit carry; one guard value after
// them.
std::uint64_t run_gaussian_pairs(const Kernels& k) {
  std::vector<double> out(2 * 11 + 1, -7.0);
  k.gaussian_pairs(out.data(), 11, 0xfffffffdull, 0x0123456789abcdefull, 0xfedcba9876543210ull);
  return Fnv1a().add(out).value();
}

// ---- SQG pointwise ----
// Pair entries run nd = 10 (two Vecs, then one complex pair), elementwise
// ones nd = 7 (one Vec, then three doubles).

std::uint64_t run_sqg_pass1(const Kernels& k) {
  Inputs in(24);
  const auto t0 = in.vec(10), t1 = in.vec(10), th = in.vec(10), ik2 = in.vec(10),
             ca2 = in.vec(10), cb2 = in.vec(10), kx2 = in.vec(10), ky2 = in.vec(10);
  auto ps = in.vec(10);
  auto lanes = in.vecf(40);
  k.sqg_pass1(ps.data(), lanes.data(), t0.data(), t1.data(), th.data(), ik2.data(), ca2.data(),
              cb2.data(), kx2.data(), ky2.data(), 10);
  return Fnv1a().add(ps).add(lanes).value();
}

// Float: n = 11, one eight-wide Vec, then a three-element tail.
std::uint64_t run_sqg_jacobian(const Kernels& k) {
  Inputs in(25);
  const auto gu = in.vecf(11), gv = in.vecf(11), gtx = in.vecf(11), gty = in.vecf(11);
  auto gj = in.vecf(11);
  k.sqg_jacobian(gj.data(), gu.data(), gv.data(), gtx.data(), gty.data(), 11);
  return Fnv1a().add(gj).value();
}

std::uint64_t run_sqg_combine(const Kernels& k) {
  Inputs in(26);
  const auto th = in.vec(10), ps = in.vec(10), jc = in.vec(10), op_t = in.vec(10),
             op_p = in.vec(10);
  auto dth = in.vec(10);
  k.sqg_combine(dth.data(), th.data(), ps.data(), jc.data(), op_t.data(), op_p.data(), 10);
  return Fnv1a().add(dth).value();
}

std::uint64_t run_mul_inplace(const Kernels& k) {
  Inputs in(27);
  auto s = in.vec(7);
  const auto d2 = in.vec(7);
  k.mul_inplace(s.data(), d2.data(), 7);
  return Fnv1a().add(s).value();
}

std::uint64_t run_add_scaled(const Kernels& k) {
  Inputs in(28);
  const auto x = in.vec(7), y = in.vec(7);
  auto out = in.vec(7);
  k.add_scaled(out.data(), x.data(), y.data(), 7, in.next());
  return Fnv1a().add(out).value();
}

std::uint64_t run_rk4_update(const Kernels& k) {
  Inputs in(29);
  auto x = in.vec(7);
  const auto k1 = in.vec(7), k2 = in.vec(7), k3 = in.vec(7), k4 = in.vec(7);
  k.rk4_update(x.data(), k1.data(), k2.data(), k3.data(), k4.data(), 7, in.next());
  return Fnv1a().add(x).value();
}

struct Entry {
  const char* name;
  std::uint64_t (*run)(const Kernels&);
  std::uint64_t want[3];  // Scalar, Avx2, Avx2Fma
};

// clang-format off
const Entry kEntries[] = {
    {"lane_pass_first", run_lane_pass_first, {0x219cc47d650460c1, 0x219cc47d650460c1, 0x219cc47d650460c1}},
    {"lane_pass_radix4", run_lane_pass_radix4, {0xbe2e88d81301cb5b, 0xbe2e88d81301cb5b, 0xcfd8603d87b95f1b}},
    {"lane_pass_radix2", run_lane_pass_radix2, {0xff5ab27eed4a2f6e, 0xff5ab27eed4a2f6e, 0x41d46e7604ec4e98}},
    {"lane_rows_in", run_lane_rows_in, {0x59b3dba6c0cdd5c2, 0x59b3dba6c0cdd5c2, 0x59b3dba6c0cdd5c2}},
    {"lane_rfft_pack", run_lane_rfft_pack, {0x908a228a64aade6b, 0x908a228a64aade6b, 0x03961e19ec33de43}},
    {"lane_cols_in", run_lane_cols_in, {0xaaf02747fccc6323, 0xaaf02747fccc6323, 0xaaf02747fccc6323}},
    {"lane_cols_out", run_lane_cols_out, {0xd8fa95e028d0cf91, 0xd8fa95e028d0cf91, 0xd8fa95e028d0cf91}},
    {"lane_rfft_unpack", run_lane_rfft_unpack, {0x26b2e656aae4acbe, 0x26b2e656aae4acbe, 0xb9d045abd5a07641}},
    {"lane_rows_out", run_lane_rows_out, {0x1c6cc62d18c42c5e, 0x1c6cc62d18c42c5e, 0x1c6cc62d18c42c5e}},
    {"rot_rows", run_rot_rows, {0x55bc0ac72650c6bc, 0x55bc0ac72650c6bc, 0xc813b1559c334a96}},
    {"baccum_rows", run_baccum_rows, {0xa6a9cafe1a8919f3, 0xa6a9cafe1a8919f3, 0x8143da3c9a87dcb5}},
    {"bscale", run_bscale, {0x3c83f08e810d8c87, 0x3c83f08e810d8c87, 0x3c83f08e810d8c87}},
    {"bscale_shift", run_bscale_shift, {0xec3374cc11bd2c62, 0xec3374cc11bd2c62, 0x6a070c7be5d682f2}},
    {"bjacobi_sweeps", run_bjacobi_sweeps, {0x0ed3d3d9d7ffe4c9, 0x0ed3d3d9d7ffe4c9, 0x812350b0b2e85626}},
    {"ensf_update", run_ensf_update, {0x91982329dc470e0f, 0x91982329dc470e0f, 0xd76342b4895f843f}},
    {"matmul_rows", run_matmul_rows, {0x1f25e420523f14fd, 0x1f25e420523f14fd, 0x1f25e420523f14fd}},
    {"matmul_rows_f32", run_matmul_rows_f32, {0x680476ecb7d39725, 0x680476ecb7d39725, 0x680476ecb7d39725}},
    {"gaussian_pairs", run_gaussian_pairs, {0x2fecf78dde9de513, 0x2fecf78dde9de513, 0x2fecf78dde9de513}},
    {"sqg_pass1", run_sqg_pass1, {0xcbd6d8a0c0bd9180, 0xcbd6d8a0c0bd9180, 0x3e0a3cc7a552e424}},
    {"sqg_jacobian", run_sqg_jacobian, {0x13fa2fd9c06d0fed, 0x13fa2fd9c06d0fed, 0x10a53343c658bc3d}},
    {"sqg_combine", run_sqg_combine, {0xd21dd1be741f2dae, 0xd21dd1be741f2dae, 0xa07ab43807b68d9f}},
    {"mul_inplace", run_mul_inplace, {0x2e99bab4753a893e, 0x2e99bab4753a893e, 0x2e99bab4753a893e}},
    {"add_scaled", run_add_scaled, {0xd7db329484532829, 0xd7db329484532829, 0x2f66d72e2c86285d}},
    {"rk4_update", run_rk4_update, {0x061fa87a8788db9c, 0x061fa87a8788db9c, 0x4082f9edc1d44bb2}},
};
// clang-format on

static_assert(std::size(kEntries) == 24);

// The EnSF update as the four passes ensf_update replaced: z = c0 z (the
// old scale entry), add_scaled, the clamped likelihood step (the old
// clamped_axpy, vmaxpd/vminpd semantics) and add_scaled.
void four_pass_update(const Kernels& k, std::vector<double>& z, const std::vector<double>& wx,
                      const std::vector<double>& grad, const std::vector<double>& noise, double c0,
                      double c1, double cl, double lim, double noise_sd) {
  const std::size_t n = z.size();
  for (std::size_t i = 0; i < n; ++i) z[i] = c0 * z[i];
  k.add_scaled(z.data(), z.data(), wx.data(), n, c1);
  for (std::size_t i = 0; i < n; ++i) {
    double t = cl * grad[i];
    t = t > -lim ? t : -lim;
    t = t < lim ? t : lim;
    z[i] = z[i] + t;
  }
  k.add_scaled(z.data(), z.data(), noise.data(), n, noise_sd);
}

TEST(Kernels, EnsfUpdateEqualsTheFourPassSequenceAtEveryLevel) {
  // Lengths reach the vector body, the tail and both. The likelihood term
  // clamps on both sides, hits the limit exactly, and reads one NaN (the
  // clamp turns it into -lim at every level).
  for (const auto level : {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx2Fma}) {
    if (!simd::simd_level_available(level)) continue;
    const Kernels& k = simd::kernels_for(level);
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
                                std::size_t{1003}}) {
      Inputs in(40 + n);
      const auto wx = in.vec(n), noise = in.vec(n), z0 = in.vec(n);
      auto grad = in.vec(n);
      const double c0 = in.next(), c1 = in.next(), noise_sd = in.next();
      constexpr double cl = 4.0, lim = 0.5;
      grad[0] = lim / cl;
      if (n > 2) grad[2] = -lim / cl;
      if (n > 5) grad[5] = std::numeric_limits<double>::quiet_NaN();
      std::vector<double> want = z0, got = z0;
      four_pass_update(k, want, wx, grad, noise, c0, c1, cl, lim, noise_sd);
      k.ensf_update(got.data(), wx.data(), grad.data(), noise.data(), n, c0, c1, cl, lim,
                    noise_sd);
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double)))
          << simd::simd_level_name(level) << ", n " << n;
    }
  }
}

TEST(Kernels, EveryEntryKeepsItsBitsAtEveryLevel) {
  for (const auto level : {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx2Fma}) {
    if (!simd::simd_level_available(level)) continue;
    const Kernels& k = simd::kernels_for(level);
    for (const Entry& e : kEntries) {
      const std::uint64_t got = e.run(k);
      EXPECT_EQ(got, e.want[static_cast<int>(level)])
          << e.name << " at " << simd::simd_level_name(level) << ": got 0x" << std::hex
          << std::setw(16) << std::setfill('0') << got;
    }
  }
}

}  // namespace
}  // namespace turbda
