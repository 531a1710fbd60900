#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "rng/rng.hpp"
#include "simd/dense_kernels_impl.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "simd/vec.hpp"

namespace turbda::rng {
namespace {

TEST(Philox, MatchesRandom123KnownAnswers) {
  // The three Philox4x32-10 known-answer vectors shipped with Random123
  // (Salmon et al., SC'11): counter, key, expected output block.
  struct Kat {
    Philox4x32::Counter ctr;
    Philox4x32::Key key;
    Philox4x32::Counter want;
  };
  for (const Kat& k : {Kat{{0, 0, 0, 0}, {0, 0}, {0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8}},
                       Kat{{0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff},
                           {0xffffffff, 0xffffffff},
                           {0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd}},
                       Kat{{0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344},
                           {0xa4093822, 0x299f31d0},
                           {0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1}}})
    EXPECT_EQ(Philox4x32::apply(k.ctr, k.key), k.want);
}

TEST(Rng, ReproducibleAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 3);
}

TEST(Rng, SubstreamsAreIndependentAndReproducible) {
  Rng parent(77);
  Rng s1 = parent.substream(0);
  Rng s2 = parent.substream(1);
  Rng s1b = Rng(77).substream(0);
  int same12 = 0;
  for (int i = 0; i < 64; ++i) {
    const auto a = s1.next_u32();
    const auto b = s2.next_u32();
    EXPECT_EQ(a, s1b.next_u32());
    same12 += (a == b);
  }
  EXPECT_LT(same12, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng r(9);
  const int n = 50000;
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    m1 += g;
    m2 += g * g;
    m3 += g * g * g;
    m4 += g * g * g * g;
  }
  m1 /= n;
  m2 /= n;
  m3 /= n;
  m4 /= n;
  EXPECT_NEAR(m1, 0.0, 0.02);
  EXPECT_NEAR(m2, 1.0, 0.03);
  EXPECT_NEAR(m3, 0.0, 0.06);
  EXPECT_NEAR(m4, 3.0, 0.15);  // kurtosis of the standard normal
}

TEST(Rng, GaussianWithMeanAndStddev) {
  Rng r(11);
  const int n = 20000;
  double m1 = 0.0, m2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian(5.0, 2.0);
    m1 += g;
    m2 += g * g;
  }
  m1 /= n;
  EXPECT_NEAR(m1, 5.0, 0.1);
  EXPECT_NEAR(m2 / n - m1 * m1, 4.0, 0.2);
}

TEST(Rng, UniformIntBoundsAndCoverage) {
  Rng r(13);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    const auto v = r.uniform_int(7);
    ASSERT_LT(v, 7u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(19);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto w = v;
  r.shuffle(std::span<int>(w));
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, FillGaussianFillsAll) {
  Rng r(23);
  std::vector<double> v(100, -1e300);
  r.fill_gaussian(v);
  for (double x : v) EXPECT_LT(std::abs(x), 10.0);
}

// ---- fill_gaussian_lanes: the lane kernel against the scalar reference ----

/// A copy of Rng(seed) whose 64-bit block counter starts at `block`, set
/// through the checkpoint format (key, then counter words 0-3).
Rng at_block(std::uint64_t seed, std::uint64_t block) {
  std::vector<std::uint8_t> st;
  Rng(seed).save_state(st);
  for (int i = 0; i < 8; ++i) st[8 + i] = static_cast<std::uint8_t>(block >> (8 * i));
  Rng r(0);
  EXPECT_TRUE(r.load_state(st));
  return r;
}

/// The largest |fill_gaussian_lanes - fill_gaussian| over the 6.3 M draws of
/// MatchFillGaussianAndLeaveTheSameStream was 5.03e-7 (float log, sqrt and
/// sin/cos on exact double uniforms); the bound is 4x that, rounded down.
constexpr double kLaneBound = 2e-6;

TEST(RngLanes, MatchFillGaussianAndLeaveTheSameStream) {
  // Copies of one stream, one filled by fill_gaussian and one by
  // fill_gaussian_lanes: every value within kLaneBound (the kernel's float
  // Box-Muller against libm in double), and the next next_u32, uniform and
  // gaussian draws equal. Starts: fresh, holding a cached half, and two
  // blocks below the 32-bit counter carry.
  const std::size_t lengths[] = {0, 1, 2, 3, 7, 8, 9, 17, 8192, 24576};
  std::size_t draws = 0;
  double worst = 0.0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (int start = 0; start < 3; ++start) {
      for (const std::size_t n : lengths) {
        Rng ref = start == 2 ? at_block(seed, 0xfffffffe) : Rng(seed, 5);
        if (start == 1) (void)ref.gaussian();
        Rng lanes = ref;
        std::vector<double> want(n), got(n);
        ref.fill_gaussian(want);
        lanes.fill_gaussian_lanes(got);
        for (std::size_t i = 0; i < n; ++i) {
          const double diff = std::abs(got[i] - want[i]);
          worst = std::max(worst, diff);
          ASSERT_LE(diff, kLaneBound) << "seed " << seed << ", start " << start << ", n " << n
                                      << ", i " << i;
        }
        draws += n;
        EXPECT_EQ(lanes.next_u32(), ref.next_u32()) << "seed " << seed << ", n " << n;
        EXPECT_EQ(lanes.uniform(), ref.uniform()) << "seed " << seed << ", n " << n;
        EXPECT_EQ(lanes.gaussian(), ref.gaussian()) << "seed " << seed << ", n " << n;
      }
    }
  }
  EXPECT_GE(draws, std::size_t{1} << 22);
  EXPECT_GT(worst, 0.0);  // the kernel really ran: float and double Box-Muller differ
}

TEST(RngLanes, MidBlockStreamFallsBackBitwise) {
  // After uniform() the stream sits partway through a block, so the lanes
  // call must hand the whole span to fill_gaussian: same bits, same stream.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{9}, std::size_t{1000}}) {
    Rng ref(41, 3);
    (void)ref.uniform();
    Rng lanes = ref;
    std::vector<double> want(n), got(n);
    ref.fill_gaussian(want);
    lanes.fill_gaussian_lanes(got);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), n * sizeof(double))) << "n " << n;
    EXPECT_EQ(lanes.gaussian(), ref.gaussian()) << "n " << n;
  }
}

TEST(RngLanes, KernelIsBitwiseAtEveryLevel) {
  // Full four-pair steps, a partial last step, and blocks that cross the
  // 32-bit counter carry: identical bytes from every available table.
  const auto& scalar = simd::kernels_for(simd::SimdLevel::Scalar);
  for (const std::size_t pairs : {std::size_t{1}, std::size_t{3}, std::size_t{4099}}) {
    const std::uint64_t block = 0xfffffffeull, stream = 0x0123456789abcdefull,
                        key = 0xfedcba9876543210ull;
    std::vector<double> want(2 * pairs + 1, -7.0);
    scalar.gaussian_pairs(want.data(), pairs, block, stream, key);
    EXPECT_EQ(want.back(), -7.0) << "pairs " << pairs << ": wrote past the last pair";
    for (const auto level : {simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
      if (!simd::simd_level_available(level)) continue;
      std::vector<double> got(2 * pairs + 1, -7.0);
      simd::kernels_for(level).gaussian_pairs(got.data(), pairs, block, stream, key);
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.size() * sizeof(double)))
          << simd::simd_level_name(level) << ", pairs " << pairs;
    }
  }
}

TEST(RngLanes, MomentsAndTailOverFourMillionDraws) {
  // 2^22 draws: mean, variance, third moment and kurtosis within five
  // Monte-Carlo standard errors (sqrt(1/N), sqrt(2/N), sqrt(15/N),
  // sqrt(96/N)). The tail: the count beyond 4 sigma within five standard
  // errors of N P(|x| > 4), the largest |x| past 4.5 (the float log keeps
  // the 53-bit uniforms' reach), and that draw within kLaneBound of
  // Rng::gaussian's value from the same Philox block.
  Rng r(2024, 9);
  std::vector<double> buf(8192);
  const std::size_t n = std::size_t{1} << 22;
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  std::size_t beyond4 = 0;
  double biggest = 0.0;
  std::size_t biggest_i = 0;
  Rng at_biggest = r;
  for (std::size_t done = 0; done < n; done += buf.size()) {
    const Rng before = r;
    r.fill_gaussian_lanes(buf);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const double g = buf[i];
      m1 += g;
      m2 += g * g;
      m3 += g * g * g;
      m4 += g * g * g * g;
      beyond4 += std::abs(g) > 4.0 ? 1 : 0;
      if (std::abs(g) > std::abs(biggest)) {
        biggest = g;
        biggest_i = i;
        at_biggest = before;
      }
    }
  }
  const double nd = static_cast<double>(n);
  EXPECT_NEAR(m1 / nd, 0.0, 5.0 * std::sqrt(1.0 / nd));
  EXPECT_NEAR(m2 / nd, 1.0, 5.0 * std::sqrt(2.0 / nd));
  EXPECT_NEAR(m3 / nd, 0.0, 5.0 * std::sqrt(15.0 / nd));
  EXPECT_NEAR(m4 / nd, 3.0, 5.0 * std::sqrt(96.0 / nd));
  const double p4 = std::erfc(4.0 / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(beyond4), nd * p4, 5.0 * std::sqrt(nd * p4));
  EXPECT_GT(std::abs(biggest), 4.5);
  std::vector<double> ref(buf.size());
  at_biggest.fill_gaussian(ref);
  EXPECT_NEAR(biggest, ref[biggest_i], kLaneBound) << "draw " << biggest_i;
}

TEST(RngLanes, LogAndSincosHelpersAtEdgeInputs) {
  // The kernel's float helpers on VecScalar, both halves, at the ends and
  // quarter points of their domains, against libm in double: within 2 float
  // ulps, or 1e-7 absolute where sin or cos is near a zero (libm sees
  // 2 pi u rounded; the helpers reduce u exactly). 1 - 2^-53 and 1 - 2^-30
  // round to 1.0f: their logs keep float relative precision because the
  // exponent split runs in double.
  using simd::VecScalar;
  const auto ulp_f = [](double x) {
    const float a = static_cast<float>(std::abs(x));
    return static_cast<double>(std::nextafter(a, std::numeric_limits<float>::infinity()) - a);
  };
  const double u1s[] = {0x1p-53, 0.5, 1.0 - 0x1p-30, 1.0 - 0x1p-53, 1.0};
  for (const double u1 : u1s) {
    const auto got = simd::detail::lane_log(VecScalar::broadcast(u1), VecScalar::broadcast(u1));
    for (const std::size_t l : {std::size_t{0}, std::size_t{4}})
      EXPECT_LE(std::abs(got.v[l] - std::log(u1)), 2.0 * ulp_f(std::log(u1)))
          << "log(" << u1 << "), lane " << l;
  }
  const double u2s[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0 - 0x1p-53};
  for (const double u2 : u2s) {
    VecScalar sn[2], cs[2];
    simd::detail::lane_sincos_2pi(VecScalar::broadcast(u2), VecScalar::broadcast(u2), sn, cs);
    const double want_s = std::sin(kTwoPi * u2), want_c = std::cos(kTwoPi * u2);
    const auto tol = [&](double want) { return std::abs(want) < 1e-6 ? 1e-7 : 2.0 * ulp_f(want); };
    for (std::size_t g = 0; g < 2; ++g) {
      EXPECT_LE(std::abs(sn[g].v[0] - want_s), tol(want_s)) << "sin(2 pi " << u2 << ")";
      EXPECT_LE(std::abs(cs[g].v[0] - want_c), tol(want_c)) << "cos(2 pi " << u2 << ")";
    }
  }
}

}  // namespace
}  // namespace turbda::rng
