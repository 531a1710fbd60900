#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/math_utils.hpp"
#include "fft/fft.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"

namespace turbda::fft {
namespace {

using turbda::rng::Rng;

std::vector<Cplx> naive_dft(const std::vector<Cplx>& x) {
  const std::size_t n = x.size();
  std::vector<Cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Cplx s(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -kTwoPi * static_cast<double>(k * j) / static_cast<double>(n);
      s += x[j] * Cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = s;
  }
  return out;
}

class Fft1dP : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dP, MatchesNaiveDft) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(3 + n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  const auto want = naive_dft(x);
  Fft1D plan(n);
  auto got = x;
  plan.forward(got);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), 1e-9 * static_cast<double>(n));
    EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-9 * static_cast<double>(n));
  }
}

TEST_P(Fft1dP, RoundTripIdentity) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(17 + n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  const auto orig = x;
  Fft1D plan(n);
  plan.forward(x);
  plan.inverse(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST_P(Fft1dP, ParsevalHolds) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(23 + n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  double grid = 0.0;
  for (const auto& v : x) grid += std::norm(v);
  Fft1D plan(n);
  plan.forward(x);
  double spec = 0.0;
  for (const auto& v : x) spec += std::norm(v);
  EXPECT_NEAR(spec, grid * static_cast<double>(n), 1e-8 * grid * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dP, ::testing::Values(1, 2, 4, 8, 16, 64, 256));

TEST(Fft1d, RejectsNonPowerOfTwo) { EXPECT_THROW(Fft1D(12), Error); }

TEST(Fft1d, DeltaFunctionIsFlat) {
  Fft1D plan(8);
  std::vector<Cplx> x(8, Cplx(0, 0));
  x[0] = Cplx(1, 0);
  plan.forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, SingleModeLandsInRightBin) {
  const std::size_t n = 32;
  Fft1D plan(n);
  std::vector<Cplx> x(n);
  const int m = 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = kTwoPi * m * static_cast<double>(j) / static_cast<double>(n);
    x[j] = Cplx(std::cos(ang), 0.0);
  }
  plan.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == 5 || k == n - 5) ? static_cast<double>(n) / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expect, 1e-9);
  }
}

// --- real transform (half-spectrum Hermitian packing) -----------------------

class Rfft1dP : public ::testing::TestWithParam<int> {};

TEST_P(Rfft1dP, MatchesNaiveDftOnHalfSpectrum) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(101 + n);
  std::vector<double> x(n);
  rng.fill_gaussian(x);
  std::vector<Cplx> full(n);
  for (std::size_t i = 0; i < n; ++i) full[i] = Cplx(x[i], 0.0);
  const auto want = naive_dft(full);
  Rfft1D plan(n);
  std::vector<Cplx> got(plan.spec_size());
  plan.forward(x, got);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-9 * static_cast<double>(n)) << "bin " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-9 * static_cast<double>(n)) << "bin " << k;
  }
}

TEST_P(Rfft1dP, RoundTripToMachinePrecision) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(211 + n);
  std::vector<double> x(n);
  rng.fill_gaussian(x);
  const auto orig = x;
  Rfft1D plan(n);
  std::vector<Cplx> spec(plan.spec_size());
  plan.forward(x, spec);
  plan.inverse(spec, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], orig[i], 1e-12);
}

TEST_P(Rfft1dP, ParsevalHoldsWithHermitianWeights) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(307 + n);
  std::vector<double> x(n);
  rng.fill_gaussian(x);
  double grid = 0.0;
  for (double v : x) grid += v * v;
  Rfft1D plan(n);
  std::vector<Cplx> spec(plan.spec_size());
  plan.forward(x, spec);
  // Interior bins stand in for themselves and their conjugate mirror.
  double s = std::norm(spec[0]) + std::norm(spec[n / 2]);
  for (std::size_t k = 1; k < n / 2; ++k) s += 2.0 * std::norm(spec[k]);
  EXPECT_NEAR(s, grid * static_cast<double>(n), 1e-8 * grid * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Rfft1dP, ::testing::Values(2, 4, 8, 16, 64, 256));

TEST(Rfft1d, RejectsOddAndNonPowerOfTwoSizes) {
  EXPECT_THROW(Rfft1D(0), Error);
  EXPECT_THROW(Rfft1D(1), Error);
  EXPECT_THROW(Rfft1D(7), Error);   // odd
  EXPECT_THROW(Rfft1D(12), Error);  // even, not a power of two
}

TEST(Rfft1d, SingleModeLandsInRightBin) {
  const std::size_t n = 32;
  Rfft1D plan(n);
  std::vector<double> x(n);
  const int m = 5;
  for (std::size_t j = 0; j < n; ++j)
    x[j] = std::cos(kTwoPi * m * static_cast<double>(j) / static_cast<double>(n));
  std::vector<Cplx> spec(plan.spec_size());
  plan.forward(x, spec);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double expect = (k == 5) ? static_cast<double>(n) / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(spec[k]), expect, 1e-9);
  }
}

TEST(Fft2d, RoundTripComplex) {
  const std::size_t n0 = 16, n1 = 8;
  Rng rng(31);
  std::vector<Cplx> x(n0 * n1);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  const auto orig = x;
  Fft2D plan(n0, n1);
  plan.forward(x);
  plan.inverse(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft2d, RealRoundTrip) {
  const std::size_t n = 32;
  Rng rng(37);
  std::vector<double> g(n * n);
  rng.fill_gaussian(g);
  std::vector<Cplx> spec(n * n);
  Fft2D plan(n, n);
  plan.forward_real(g, spec);
  std::vector<double> back(n * n);
  plan.inverse_real(spec, back);
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_NEAR(back[i], g[i], 1e-10);
}

TEST(Fft2d, RealSpectrumIsHermitian) {
  const std::size_t n = 16;
  Rng rng(41);
  std::vector<double> g(n * n);
  rng.fill_gaussian(g);
  std::vector<Cplx> spec(n * n);
  Fft2D plan(n, n);
  plan.forward_real(g, spec);
  // spec(-ky, -kx) == conj(spec(ky, kx))
  for (std::size_t jy = 0; jy < n; ++jy) {
    for (std::size_t jx = 0; jx < n; ++jx) {
      const std::size_t cy = (n - jy) % n;
      const std::size_t cx = (n - jx) % n;
      const Cplx a = spec[jy * n + jx];
      const Cplx b = std::conj(spec[cy * n + cx]);
      EXPECT_NEAR(a.real(), b.real(), 1e-9);
      EXPECT_NEAR(a.imag(), b.imag(), 1e-9);
    }
  }
}

TEST(Fft2d, PlaneWaveSpectralDerivativeIsExact) {
  // d/dx of cos(2π m x / L) via spectral i*kx multiply, on the unit square.
  const std::size_t n = 64;
  Fft2D plan(n, n);
  const int m = 3;
  std::vector<double> g(n * n);
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx)
      g[jy * n + jx] = std::cos(kTwoPi * m * static_cast<double>(jx) / static_cast<double>(n));
  std::vector<Cplx> spec(n * n);
  plan.forward_real(g, spec);
  // multiply by i*k (domain length 1 => k = 2π m').
  for (std::size_t jy = 0; jy < n; ++jy) {
    for (std::size_t jx = 0; jx < n; ++jx) {
      const long mx = (jx <= n / 2) ? static_cast<long>(jx) : static_cast<long>(jx) - static_cast<long>(n);
      spec[jy * n + jx] *= Cplx(0.0, kTwoPi * static_cast<double>(mx));
    }
  }
  std::vector<double> deriv(n * n);
  plan.inverse_real(spec, deriv);
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx) {
      const double x = static_cast<double>(jx) / static_cast<double>(n);
      const double want = -kTwoPi * m * std::sin(kTwoPi * m * x);
      EXPECT_NEAR(deriv[jy * n + jx], want, 1e-8);
    }
}

TEST(Fft2d, ForwardRealMatchesComplexTransform) {
  // The half-spectrum pipeline must agree with the dense complex transform
  // of the real-embedded grid, including on non-square shapes.
  const std::size_t n0 = 16, n1 = 8;
  Rng rng(53);
  std::vector<double> g(n0 * n1);
  rng.fill_gaussian(g);
  Fft2D plan(n0, n1);
  std::vector<Cplx> spec(n0 * n1);
  plan.forward_real(g, spec);
  std::vector<Cplx> ref(n0 * n1);
  for (std::size_t i = 0; i < g.size(); ++i) ref[i] = Cplx(g[i], 0.0);
  plan.forward(ref);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    EXPECT_NEAR(spec[i].real(), ref[i].real(), 1e-10);
    EXPECT_NEAR(spec[i].imag(), ref[i].imag(), 1e-10);
  }
}

TEST(Fft2d, WrongSizeThrows) {
  Fft2D plan(8, 8);
  std::vector<Cplx> bad(63);
  EXPECT_THROW(plan.forward(bad), Error);
}

// --- packed half-spectrum 2-D API -------------------------------------------

TEST(Fft2d, HalfSpectrumMatchesFullLayout) {
  // The packed n0 x (n1/2+1) spectrum must hold exactly the non-redundant
  // columns of the full Hermitian-redundant layout, including on non-square
  // shapes.
  const std::size_t n0 = 16, n1 = 8, nh = n1 / 2 + 1;
  Rng rng(61);
  std::vector<double> g(n0 * n1);
  rng.fill_gaussian(g);
  Fft2D plan(n0, n1);
  ASSERT_EQ(plan.half_size(), n0 * nh);
  std::vector<Cplx> full(n0 * n1), half(plan.half_size());
  plan.forward_real(g, full);
  plan.forward_half(g, half);
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < nh; ++j) {
      const Cplx want = full[i * n1 + j];
      const Cplx got = half[i * nh + j];
      EXPECT_NEAR(got.real(), want.real(), 1e-12 * static_cast<double>(n0 * n1));
      EXPECT_NEAR(got.imag(), want.imag(), 1e-12 * static_cast<double>(n0 * n1));
    }
}

TEST(Fft2d, HalfRoundTripToMachinePrecision) {
  for (auto [n0, n1] : {std::pair<std::size_t, std::size_t>{32, 32}, {16, 8}, {4, 16}}) {
    Rng rng(67 + n0 + n1);
    std::vector<double> g(n0 * n1);
    rng.fill_gaussian(g);
    Fft2D plan(n0, n1);
    std::vector<Cplx> h(plan.half_size());
    plan.forward_half(g, h);
    std::vector<double> back(n0 * n1);
    plan.inverse_half(h, back);
    for (std::size_t i = 0; i < g.size(); ++i) ASSERT_NEAR(back[i], g[i], 1e-12) << n0 << "x" << n1;
  }
}

TEST(Fft2d, PrunedHalfMatchesMaskedUnpruned) {
  const std::size_t n = 32, nh = n / 2 + 1;
  Rng rng(71);
  std::vector<double> g(n * n);
  rng.fill_gaussian(g);
  Fft2D plan(n, n);
  for (const std::size_t kcut : {std::size_t{4}, n / 3, n / 2}) {
    // Forward: pruned output == unpruned output with the |mx|,|my| > kcut
    // bins zeroed.
    std::vector<Cplx> ref(plan.half_size());
    plan.forward_half(g, ref);
    for (std::size_t i = 0; i < n; ++i) {
      const long my = (i <= n / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n);
      for (std::size_t j = 0; j < nh; ++j)
        if (j > kcut || std::labs(my) > static_cast<long>(kcut)) ref[i * nh + j] = Cplx(0.0, 0.0);
    }
    std::vector<Cplx> pruned(plan.half_size());
    plan.forward_half_pruned(g, pruned, kcut);
    for (std::size_t p = 0; p < ref.size(); ++p) {
      ASSERT_NEAR(pruned[p].real(), ref[p].real(), 1e-12 * static_cast<double>(n * n)) << p;
      ASSERT_NEAR(pruned[p].imag(), ref[p].imag(), 1e-12 * static_cast<double>(n * n)) << p;
    }
    // Inverse: on a truncated spectrum, the pruned transform matches the
    // unpruned one.
    std::vector<double> a(n * n), b(n * n);
    plan.inverse_half(ref, a);
    plan.inverse_half_pruned(ref, b, kcut);
    for (std::size_t p = 0; p < a.size(); ++p) ASSERT_NEAR(a[p], b[p], 1e-13) << p;
  }
}

// --- SIMD dispatch equivalence ----------------------------------------------

/// Restores the entry dispatch level even when an assertion fails mid-test.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(simd::active_simd_level()) {}
  ~SimdLevelGuard() { simd::force_simd_level(saved_); }

 private:
  simd::SimdLevel saved_;
};

TEST(SimdDispatch, ScalarLevelIsAlwaysAvailable) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd::simd_level_available(simd::SimdLevel::Scalar));
  EXPECT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
  EXPECT_EQ(simd::active_simd_level(), simd::SimdLevel::Scalar);
  EXPECT_STREQ(simd::simd_level_name(simd::SimdLevel::Scalar), "scalar");
}

// Every dispatched kernel (first pass, fused radix-2^2, odd radix-2, rfft
// pack/unpack) against the forced-scalar reference: the Avx2 level performs
// the identical IEEE operations lane-parallel and must match bitwise; the
// Avx2Fma level contracts the twiddle multiplies and must agree to ~1 ulp
// per butterfly (1e-12 here). The size sweep covers even and odd stage
// counts and the vector-remainder paths of the rfft kernels.
TEST(SimdDispatch, Fft1dMatchesScalarAcrossLevels) {
  SimdLevelGuard guard;
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Rng rng(101 + n);
    std::vector<Cplx> x0(n);
    for (auto& v : x0) v = Cplx(rng.gaussian(), rng.gaussian());
    Fft1D plan(n);
    ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
    auto fwd_ref = x0;
    plan.forward(fwd_ref);
    auto inv_ref = x0;
    plan.inverse(inv_ref);
    double scale = 0.0;
    for (const auto& v : fwd_ref) scale = std::max(scale, std::abs(v));

    for (const simd::SimdLevel level : {simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
      if (!simd::simd_level_available(level)) continue;
      ASSERT_TRUE(simd::force_simd_level(level));
      auto fwd = x0;
      plan.forward(fwd);
      auto inv = x0;
      plan.inverse(inv);
      if (level == simd::SimdLevel::Avx2) {
        EXPECT_EQ(0, std::memcmp(fwd.data(), fwd_ref.data(), n * sizeof(Cplx)))
            << "n=" << n << " level=" << simd::simd_level_name(level);
        EXPECT_EQ(0, std::memcmp(inv.data(), inv_ref.data(), n * sizeof(Cplx)))
            << "n=" << n << " level=" << simd::simd_level_name(level);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(fwd[i].real(), fwd_ref[i].real(), 1e-12 * scale) << n << "," << i;
          ASSERT_NEAR(fwd[i].imag(), fwd_ref[i].imag(), 1e-12 * scale) << n << "," << i;
          ASSERT_NEAR(inv[i].real(), inv_ref[i].real(), 1e-12) << n << "," << i;
          ASSERT_NEAR(inv[i].imag(), inv_ref[i].imag(), 1e-12) << n << "," << i;
        }
      }
    }
  }
}

TEST(SimdDispatch, Rfft1dMatchesScalarAcrossLevels) {
  SimdLevelGuard guard;
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Rng rng(211 + n);
    // Degenerate inputs matter as much as random ones: a delta or constant
    // row makes whole pack/unpack lanes exactly zero, which is where a
    // sign-of-zero slip in the vector kernels would hide from gaussians.
    std::vector<std::vector<double>> inputs(3, std::vector<double>(n, 0.0));
    rng.fill_gaussian(inputs[0]);
    inputs[1][0] = 1.0;                                    // delta
    for (std::size_t j = 0; j < n; ++j) inputs[2][j] = 0.25;  // constant
    for (const auto& x : inputs) {
      Rfft1D plan(n);
      std::vector<Cplx> spec_ref(plan.spec_size());
      std::vector<double> back_ref(n);
      ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
      plan.forward(x, spec_ref);
      plan.inverse(spec_ref, back_ref);
      double scale = 0.0;
      for (const auto& v : spec_ref) scale = std::max(scale, std::abs(v));

      for (const simd::SimdLevel level : {simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
        if (!simd::simd_level_available(level)) continue;
        ASSERT_TRUE(simd::force_simd_level(level));
        std::vector<Cplx> spec(plan.spec_size());
        std::vector<double> back(n);
        plan.forward(x, spec);
        plan.inverse(spec, back);
        if (level == simd::SimdLevel::Avx2) {
          EXPECT_EQ(0, std::memcmp(spec.data(), spec_ref.data(), spec.size() * sizeof(Cplx)))
              << "n=" << n;
          EXPECT_EQ(0, std::memcmp(back.data(), back_ref.data(), n * sizeof(double)))
              << "n=" << n;
        } else {
          for (std::size_t i = 0; i < spec.size(); ++i) {
            ASSERT_NEAR(spec[i].real(), spec_ref[i].real(), 1e-12 * scale) << n << "," << i;
            ASSERT_NEAR(spec[i].imag(), spec_ref[i].imag(), 1e-12 * scale) << n << "," << i;
          }
          for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(back[i], back_ref[i], 1e-12) << n;
        }
      }
    }
  }
}

TEST(Fft2d, HalfApiRejectsUnsupportedShapes) {
  // n1 == 1 has no even row length for the r2c stage.
  Fft2D p1(8, 1);
  std::vector<double> g1(8);
  std::vector<Cplx> h1(p1.half_size());
  EXPECT_THROW(p1.forward_half(g1, h1), Error);
  EXPECT_THROW(p1.inverse_half(h1, g1), Error);
  // Odd / non-power-of-two extents are rejected at plan construction.
  EXPECT_THROW(Fft2D(8, 7), Error);
  EXPECT_THROW(Fft2D(6, 8), Error);
  // Wrong buffer sizes.
  Fft2D q(8, 8);
  std::vector<double> g2(64);
  std::vector<Cplx> bad(q.half_size() - 1);
  EXPECT_THROW(q.forward_half(g2, bad), Error);
  EXPECT_THROW(q.inverse_half(bad, g2), Error);
  EXPECT_THROW(q.forward_half_pruned(g2, bad, 2), Error);
  EXPECT_THROW(q.inverse_half_pruned(bad, g2, 2), Error);
}

}  // namespace
}  // namespace turbda::fft
