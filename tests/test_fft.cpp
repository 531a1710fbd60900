#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/math_utils.hpp"
#include "fft/fft.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

#include "dft_reference.hpp"
#include "simd_level_guard.hpp"

namespace turbda::fft {
namespace {

using turbda::rng::Rng;
using turbda::test::SimdLevelGuard;

/// exp(-2πi k / n), k < n.
std::vector<Cplx> roots(std::size_t n) {
  std::vector<Cplx> w(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    w[k] = Cplx(std::cos(ang), std::sin(ang));
  }
  return w;
}

/// Full n0 x n1 forward DFT of a real row-major grid, straight from the
/// definition: X(ky, kx) = sum_{y,x} g(y, x) exp(-2πi (ky y / n0 + kx x / n1)).
std::vector<Cplx> naive_dft2(const std::vector<double>& g, std::size_t n0, std::size_t n1) {
  const std::vector<Cplx> w0 = roots(n0), w1 = roots(n1);
  std::vector<Cplx> out(n0 * n1);
  for (std::size_t ky = 0; ky < n0; ++ky)
    for (std::size_t kx = 0; kx < n1; ++kx) {
      Cplx s(0.0, 0.0);
      for (std::size_t y = 0; y < n0; ++y)
        for (std::size_t x = 0; x < n1; ++x)
          s += g[y * n1 + x] * w0[(ky * y) % n0] * w1[(kx * x) % n1];
      out[ky * n1 + kx] = s;
    }
  return out;
}

/// Largest |a[i] - b[i]| over two equally long spectra or grids.
template <class T>
double max_abs_diff(const std::vector<T>& a, const std::vector<T>& b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) err = std::max(err, std::abs(a[i] - b[i]));
  return err;
}

/// Largest |a[i]|.
template <class T>
double max_abs(const std::vector<T>& a) {
  double m = 0.0;
  for (const auto& v : a) m = std::max(m, std::abs(v));
  return m;
}

/// max_abs_diff(got, want) relative to the largest |want|: 0 when they
/// match exactly, +inf when want is all zero and got is not.
template <class T>
double rel_err(const std::vector<T>& got, const std::vector<T>& want) {
  const double e = max_abs_diff(got, want);
  return e == 0.0 ? 0.0 : e / max_abs(want);
}

/// `spec` (an n0 x (n1/2 + 1) half spectrum) with every bin outside the
/// |mx|, |my| <= kcut square set to (outside, outside).
std::vector<Cplx> in_square(std::vector<Cplx> spec, std::size_t n0, std::size_t n1,
                            std::size_t kcut, double outside = 0.0) {
  const std::size_t nh = n1 / 2 + 1;
  for (std::size_t i = 0; i < n0; ++i) {
    const std::size_t my = (i <= n0 / 2) ? i : n0 - i;  // |my|
    for (std::size_t j = 0; j < nh; ++j)
      if (j > kcut || my > kcut) spec[i * nh + j] = Cplx(outside, outside);
  }
  return spec;
}

TEST(Fft2d, PlaneWaveSpectralDerivativeIsExact) {
  // d/dx of cos(2π m x / L) via spectral i*kx multiply, on the unit square.
  const std::size_t n = 64, nh = n / 2 + 1;
  Fft2D plan(n, n);
  const int m = 3;
  std::vector<double> g(n * n);
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx)
      g[jy * n + jx] = std::cos(kTwoPi * m * static_cast<double>(jx) / static_cast<double>(n));
  std::vector<Cplx> spec(plan.half_size());
  plan.forward_half(g, spec);
  // multiply by i*k (domain length 1 => k = 2π mx; mx = j in the half layout).
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t mx = 0; mx < nh; ++mx)
      spec[jy * nh + mx] *= Cplx(0.0, kTwoPi * static_cast<double>(mx));
  std::vector<double> deriv(n * n), want(n * n);
  plan.inverse_half(spec, deriv);
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx) {
      const double x = static_cast<double>(jx) / static_cast<double>(n);
      want[jy * n + jx] = -kTwoPi * m * std::sin(kTwoPi * m * x);
    }
  // The transforms run in float: |derivative| <= 6 pi ~ 19; worst measured
  // error 1.27e-5.
  EXPECT_LE(max_abs_diff(deriv, want), 5e-5);
}

// --- packed half-spectrum 2-D API -------------------------------------------

TEST(Fft2d, HalfSpectrumMatchesNaiveDft) {
  // The packed n0 x (n1/2+1) spectrum must hold exactly the non-redundant
  // columns mx = 0..n1/2 of the full 2-D DFT, including on non-square shapes.
  for (auto [n0, n1] : {std::pair<std::size_t, std::size_t>{16, 8}, {4, 16}, {8, 8}}) {
    const std::size_t nh = n1 / 2 + 1;
    Rng rng(61 + n0 + n1);
    std::vector<double> g(n0 * n1);
    rng.fill_gaussian(g);
    Fft2D plan(n0, n1);
    ASSERT_EQ(plan.half_size(), n0 * nh);
    std::vector<Cplx> half(plan.half_size());
    plan.forward_half(g, half);
    const std::vector<Cplx> full = naive_dft2(g, n0, n1);
    std::vector<Cplx> want(plan.half_size());
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 0; j < nh; ++j) want[i * nh + j] = full[i * n1 + j];
    // The forward runs in float: bound relative to the largest bin; worst
    // measured 1.07e-7.
    EXPECT_LE(rel_err(half, want), 5e-7) << n0 << "x" << n1;
  }
}

TEST(Fft2d, HalfRoundTripToFloatPrecision) {
  for (auto [n0, n1] : {std::pair<std::size_t, std::size_t>{32, 32}, {16, 8}, {4, 16}}) {
    Rng rng(67 + n0 + n1);
    std::vector<double> g(n0 * n1);
    rng.fill_gaussian(g);
    Fft2D plan(n0, n1);
    std::vector<Cplx> h(plan.half_size());
    plan.forward_half(g, h);
    std::vector<double> back(n0 * n1);
    plan.inverse_half(h, back);
    // Unit-variance gaussians through the float forward and the float
    // inverse; worst measured 7.4e-7.
    EXPECT_LE(max_abs_diff(back, g), 2e-6) << n0 << "x" << n1;
  }
}

TEST(Fft2d, PrunedHalfMatchesMaskedUnpruned) {
  const std::size_t n = 32;
  Rng rng(71);
  std::vector<double> g(n * n);
  rng.fill_gaussian(g);
  Fft2D plan(n, n);
  for (const std::size_t kcut : {std::size_t{4}, n / 3, n / 2}) {
    // Forward: pruned output == unpruned output with the |mx|,|my| > kcut
    // bins zeroed.
    std::vector<Cplx> ref(plan.half_size());
    plan.forward_half(g, ref);
    ref = in_square(ref, n, n, kcut);
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

/// Bitwise equality of two spectra except that any NaN matches any NaN.
/// The sign and payload of a NaN computed from two NaN operands follow the
/// operand order, which the compiler may commute in an add or multiply, so
/// only where NaNs sit is reproducible.
bool same_bits_but_nan_payloads(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  const auto* x = reinterpret_cast<const double*>(a.data());
  const auto* y = reinterpret_cast<const double*>(b.data());
  for (std::size_t i = 0; i < 2 * a.size(); ++i)
    if (std::memcmp(x + i, y + i, sizeof(double)) != 0 && !(std::isnan(x[i]) && std::isnan(y[i])))
      return false;
  return a.size() == b.size();
}

/// The inputs of the lane forward tests on an n0 x n1 grid: random; a
/// constant field, whose columns but mx = 0 are all ±0, so the column
/// blocks mix live and dead lanes; a grid of mixed-sign zeros, all of whose
/// columns are dead; and random values with NaN and ±inf entries.
struct ForwardInput {
  const char* name;
  bool finite;
  std::vector<double> g;
};

std::vector<ForwardInput> forward_inputs(std::size_t n0, std::size_t n1) {
  const std::size_t nn = n0 * n1;
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(601 + nn);
  std::vector<ForwardInput> inputs = {{"random", true, std::vector<double>(nn)},
                                      {"constant", true, std::vector<double>(nn, 0.75)},
                                      {"signed zeros", true, std::vector<double>(nn, 0.0)},
                                      {"non-finite", false, std::vector<double>(nn)}};
  rng.fill_gaussian(inputs[0].g);
  for (std::size_t p = 0; p < nn; p += 3) inputs[2].g[p] = -0.0;
  std::vector<double>& bad = inputs[3].g;
  rng.fill_gaussian(bad);
  bad[nn / 2] = std::numeric_limits<double>::quiet_NaN();
  bad[nn - 1] = inf;
  bad[nn / 3] = -inf;
  return inputs;
}

/// The forward's shapes: partial row batches (n0 < 4), h = 1 rows (n1 = 2)
/// and every square grid up to 256.
std::vector<std::pair<std::size_t, std::size_t>> forward_shapes() {
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {{16, 8}, {4, 16}, {8, 2}, {1, 8}};
  for (std::size_t n = 2; n <= 256; n *= 2) shapes.emplace_back(n, n);
  return shapes;
}

std::vector<Cplx> lane_forward(const Fft2D& plan, const std::vector<double>& g, std::size_t kcut) {
  std::vector<Cplx> out(plan.half_size());
  if (kcut >= std::max(plan.rows(), plan.cols()))
    plan.forward_half(g, out);
  else
    plan.forward_half_pruned(g, out, kcut);
  return out;
}

// Fft2D's forward runs on single-precision lanes (four rows per r2c batch,
// the retained columns four per lane batch). Its bits are the same at the
// scalar and avx2 levels on every input, the non-finite one included
// (every finite and infinite value and every NaN position must match, NaN
// payloads may not).
TEST(Fft2d, ForwardSameBitsAtScalarAndAvx2) {
  if (!simd::simd_level_available(simd::SimdLevel::Avx2)) GTEST_SKIP() << "no AVX2";
  SimdLevelGuard guard;
  for (const auto& [n0, n1] : forward_shapes()) {
    const Fft2D plan(n0, n1);
    const std::size_t n = std::max(n0, n1);
    for (const ForwardInput& in : forward_inputs(n0, n1))
      for (const std::size_t kcut : {n / 3, n / 2, n}) {
        ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
        const std::vector<Cplx> scalar = lane_forward(plan, in.g, kcut);
        ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Avx2));
        const std::vector<Cplx> avx2 = lane_forward(plan, in.g, kcut);
        EXPECT_TRUE(same_bits_but_nan_payloads(scalar, avx2))
            << n0 << "x" << n1 << " kcut=" << kcut << " " << in.name;
      }
  }
}

// The forward against the double oracle at every level, on the finite
// inputs: within 1e-6 of the largest reference bin (float rounding of the
// input and through both passes; worst measured 2.2e-7), exact zeros
// included.
TEST(Fft2d, ForwardWithinFloatBoundOfRowColumnReference) {
  SimdLevelGuard guard;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
    if (!simd::force_simd_level(level)) continue;
    for (const auto& [n0, n1] : forward_shapes()) {
      const Fft2D plan(n0, n1);
      const std::size_t n = std::max(n0, n1);
      for (const ForwardInput& in : forward_inputs(n0, n1)) {
        if (!in.finite) continue;
        for (const std::size_t kcut : {n / 3, n / 2, n}) {
          const std::vector<Cplx> want = in_square(test::forward_half(in.g, n0, n1), n0, n1, kcut);
          const std::vector<Cplx> got = lane_forward(plan, in.g, kcut);
          EXPECT_LE(rel_err(got, want), 1e-6)
              << simd::simd_level_name(level) << " " << n0 << "x" << n1 << " kcut=" << kcut
              << " " << in.name;
        }
      }
    }
  }
}

/// The inverse's inputs on an n0 x n1 grid: the half spectrum of a random
/// field, truncated to the |mx|, |my| <= kcut square, with the column block
/// 4..7 all ±0 when n1 >= 32 (a dead group of four columns among live ones)
/// and `outside` in every bin outside the square.
std::vector<Cplx> inverse_input(std::size_t n0, std::size_t n1, std::size_t kcut,
                                double outside) {
  Rng rng(701 + n0 * n1 + kcut);
  std::vector<double> g(n0 * n1);
  rng.fill_gaussian(g);
  std::vector<Cplx> spec = test::forward_half(g, n0, n1);
  const std::size_t nh = n1 / 2 + 1;
  if (n1 >= 32)
    for (std::size_t i = 0; i < n0; ++i)
      for (std::size_t j = 4; j < 8; ++j) spec[i * nh + j] = Cplx(i % 3 == 0 ? -0.0 : 0.0, 0.0);
  return in_square(spec, n0, n1, kcut, outside);
}

std::vector<double> lane_inverse(const Fft2D& plan, const std::vector<Cplx>& spec,
                                 std::size_t kcut) {
  std::vector<double> out(plan.rows() * plan.cols());
  if (kcut >= std::max(plan.rows(), plan.cols()))
    plan.inverse_half(spec, out);
  else
    plan.inverse_half_pruned(spec, out, kcut);
  return out;
}

// The inverse runs on the single-precision lanes, its field in lane 0. Its
// bits are the same at the scalar and avx2 levels, pruned (kcut n/3, n/2)
// and unpruned, and a NaN in every bin outside the square never reaches
// the grid.
TEST(Fft2d, InverseSameBitsAtScalarAndAvx2) {
  if (!simd::simd_level_available(simd::SimdLevel::Avx2)) GTEST_SKIP() << "no AVX2";
  SimdLevelGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [n0, n1] : forward_shapes()) {
    const Fft2D plan(n0, n1);
    const std::size_t n = std::max(n0, n1);
    for (const std::size_t kcut : {n / 3, n / 2, n}) {
      const std::vector<Cplx> spec = inverse_input(n0, n1, kcut, nan);
      ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
      const std::vector<double> scalar = lane_inverse(plan, spec, kcut);
      ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Avx2));
      const std::vector<double> avx2 = lane_inverse(plan, spec, kcut);
      EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(), scalar.size() * sizeof(double)))
          << n0 << "x" << n1 << " kcut=" << kcut;
      for (const double v : scalar) ASSERT_TRUE(std::isfinite(v)) << n0 << "x" << n1;
    }
  }
}

// The inverse against the double oracle at every level: within 1e-6 of the
// largest grid value (float rounding of the bins and through both passes;
// worst measured 2.4e-7).
TEST(Fft2d, InverseWithinFloatBoundOfDoubleReference) {
  SimdLevelGuard guard;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
    if (!simd::force_simd_level(level)) continue;
    for (const auto& [n0, n1] : forward_shapes()) {
      const Fft2D plan(n0, n1);
      const std::size_t n = std::max(n0, n1);
      for (const std::size_t kcut : {n / 3, n / 2, n}) {
        const std::vector<Cplx> spec = inverse_input(n0, n1, kcut, 0.0);
        const std::vector<double> want = test::inverse_half(spec, n0, n1);
        EXPECT_LE(rel_err(lane_inverse(plan, spec, kcut), want), 1e-6)
            << simd::simd_level_name(level) << " " << n0 << "x" << n1 << " kcut=" << kcut;
      }
    }
  }
}

// --- SIMD dispatch equivalence ----------------------------------------------

TEST(SimdDispatch, ScalarLevelIsAlwaysAvailable) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd::simd_level_available(simd::SimdLevel::Scalar));
  EXPECT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
  EXPECT_EQ(simd::active_simd_level(), simd::SimdLevel::Scalar);
  EXPECT_STREQ(simd::simd_level_name(simd::SimdLevel::Scalar), "scalar");
}

// --- fused product transform ------------------------------------------------

constexpr std::size_t kLanes = simd::kLaneBatch;
using Spectra = std::vector<std::vector<Cplx>>;
using Grids = std::vector<std::vector<double>>;

/// Runs product_half_pruned_lanes on four half spectra, rounded to float
/// and interleaved into the lane layout (bin p: the four real parts, then
/// the four imaginary parts), with the active level's SQG Jacobian as the
/// row product.
std::vector<Cplx> fused_product(const Fft2D& plan, const Spectra& spec, std::size_t kcut) {
  simd::FloatLaneBuffer lanes(2 * kLanes * plan.half_size());
  for (std::size_t l = 0; l < kLanes; ++l)
    for (std::size_t p = 0; p < plan.half_size(); ++p) {
      lanes[2 * kLanes * p + l] = static_cast<float>(spec[l][p].real());
      lanes[2 * kLanes * p + kLanes + l] = static_cast<float>(spec[l][p].imag());
    }
  std::vector<Cplx> out(plan.half_size());
  plan.product_half_pruned_lanes(lanes, simd::active_kernels().sqg_jacobian, out, kcut);
  return out;
}

/// Four dealiased half spectra carrying the zeros the SQG tendency feeds the
/// fused transform: lane 1's column 0 is all ±0 (i kx psi at kx = 0), one
/// retained column is ±0 in every lane, and for n1 >= 32 so is a whole
/// block of columns 4..7. Lane 3 is ±0 everywhere (a zero field). Every bin
/// above kcut holds `above`: -0.0, or NaN, since no transform may read it.
/// With `dead_theta`, lanes 2 and 3 (theta_x, theta_y) are ±0 in every
/// retained bin, so the product u theta_x + v theta_y is all ±0 and its
/// signs depend only on the zero signs those dead lanes carry.
Spectra lane_test_spectra(std::size_t n0, std::size_t n1, std::size_t kcut, double above,
                          bool dead_theta, Rng& rng) {
  const std::size_t nh = n1 / 2 + 1;
  const std::size_t last = std::min(kcut, n1 / 2);
  Spectra spec(kLanes, std::vector<Cplx>(n0 * nh));
  for (std::size_t l = 0; l < kLanes; ++l)
    for (std::size_t i = 0; i < n0; ++i) {
      const long my =
          (i <= n0 / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n0);
      for (std::size_t j = 0; j < nh; ++j) {
        const double sz = ((i + j + l) % 3 == 0) ? -0.0 : 0.0;  // a signed zero
        Cplx v(rng.gaussian(), rng.gaussian());
        if (j > kcut)
          v = Cplx(above, above);
        else if (std::labs(my) > static_cast<long>(kcut))
          v = Cplx(0.0, 0.0);
        else if ((l == 1 && j == 0) || l == 3 || (dead_theta && l == 2) ||
                 (n1 >= 8 && j == last) || (n1 >= 32 && j >= 4 && j < 8))
          v = Cplx(sz, -sz);
        spec[l][i * nh + j] = v;
      }
    }
  return spec;
}

// The fused transform's bits are the same at the scalar and avx2 levels,
// and a NaN in any bin above kcut never reaches the output.
TEST(Fft2dLanes, SameBitsAtScalarAndAvx2) {
  if (!simd::simd_level_available(simd::SimdLevel::Avx2)) GTEST_SKIP() << "no AVX2";
  SimdLevelGuard guard;
  for (const auto& [n0, n1] : forward_shapes()) {
    const Fft2D plan(n0, n1);
    for (const std::size_t kcut : {std::max(n0, n1) / 3, std::max(n0, n1) / 2})
      for (const double above : {-0.0, std::numeric_limits<double>::quiet_NaN()})
        for (const bool dead_theta : {false, true}) {
          Rng rng(401 + n0 + n1 + kcut);
          const Spectra spec = lane_test_spectra(n0, n1, kcut, above, dead_theta, rng);
          ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Scalar));
          const std::vector<Cplx> scalar = fused_product(plan, spec, kcut);
          ASSERT_TRUE(simd::force_simd_level(simd::SimdLevel::Avx2));
          const std::vector<Cplx> avx2 = fused_product(plan, spec, kcut);
          const auto what = [&] {
            return ::testing::Message() << n0 << "x" << n1 << " kcut=" << kcut << " above kcut "
                                        << above << (dead_theta ? " dead theta" : "");
          };
          EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(), scalar.size() * sizeof(Cplx)))
              << what();
          for (const Cplx& v : scalar)
            ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag())) << what();
        }
  }
}

// The fused transform against its double three-step definition at every
// level, through the double oracle: the four grids, the product u theta_x +
// v theta_y in double over the whole grid, then the forward truncated to
// the square. Within 1.5e-6 of the largest reference bin (worst measured
// 3.4e-7).
TEST(Fft2dLanes, WithinFloatBoundOfPerField) {
  SimdLevelGuard guard;
  for (const simd::SimdLevel level :
       {simd::SimdLevel::Scalar, simd::SimdLevel::Avx2, simd::SimdLevel::Avx2Fma}) {
    if (!simd::force_simd_level(level)) continue;
    for (const auto& [n0, n1] : forward_shapes()) {
      const Fft2D plan(n0, n1);
      for (const std::size_t kcut : {std::max(n0, n1) / 3, std::max(n0, n1) / 2})
        for (const bool dead_theta : {false, true}) {
          Rng rng(401 + n0 + n1 + kcut);
          const Spectra spec = lane_test_spectra(n0, n1, kcut, -0.0, dead_theta, rng);
          const std::vector<Cplx> got = fused_product(plan, spec, kcut);
          Grids g(kLanes);
          for (std::size_t l = 0; l < kLanes; ++l) g[l] = test::inverse_half(spec[l], n0, n1);
          std::vector<double> product(n0 * n1);
          for (std::size_t i = 0; i < n0 * n1; ++i)
            product[i] = g[0][i] * g[2][i] + g[1][i] * g[3][i];
          const std::vector<Cplx> want =
              in_square(test::forward_half(product, n0, n1), n0, n1, kcut);
          EXPECT_LE(rel_err(got, want), 1.5e-6)
              << simd::simd_level_name(level) << " " << n0 << "x" << n1 << " kcut=" << kcut
              << (dead_theta ? " dead theta" : "");
        }
    }
  }
}

// The fused transform against a naive-DFT oracle of the same product: four
// truncated spectra (each the naive forward DFT of a random real field),
// their grids by the naive inverse 2-D DFT, the Jacobian u theta_x +
// v theta_y formed pointwise, and its naive forward DFT truncated to the
// square. Spectra are compared after dividing by n^2 (the grid-mean scale).
TEST(Fft2dLanes, MatchesNaiveInverseDft) {
  for (const std::size_t n : {8u, 16u}) {
    const std::size_t nh = n / 2 + 1;
    const std::vector<Cplx> w = roots(n);
    const auto wavenumber = [n](std::size_t i) {
      return (i <= n / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n);
    };
    const Fft2D plan(n, n);
    for (const std::size_t kcut : {n / 3, n / 2}) {
      const auto outside = [&](std::size_t ky, std::size_t kx) {
        return std::labs(wavenumber(ky)) > static_cast<long>(kcut) ||
               std::labs(wavenumber(kx)) > static_cast<long>(kcut);
      };
      Rng rng(503 + n + kcut);
      Spectra spec(kLanes, std::vector<Cplx>(n * nh));
      Grids grid(kLanes, std::vector<double>(n * n));
      for (std::size_t l = 0; l < kLanes; ++l) {
        std::vector<double> g(n * n);
        rng.fill_gaussian(g);
        std::vector<Cplx> full = naive_dft2(g, n, n);
        for (std::size_t ky = 0; ky < n; ++ky)
          for (std::size_t kx = 0; kx < n; ++kx)
            if (outside(ky, kx)) full[ky * n + kx] = Cplx(0.0, 0.0);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < nh; ++j) spec[l][i * nh + j] = full[i * n + j];
        for (std::size_t y = 0; y < n; ++y)
          for (std::size_t x = 0; x < n; ++x) {
            Cplx s(0.0, 0.0);
            for (std::size_t ky = 0; ky < n; ++ky)
              for (std::size_t kx = 0; kx < n; ++kx)
                s += full[ky * n + kx] * std::conj(w[(ky * y + kx * x) % n]);
            grid[l][y * n + x] = s.real() / static_cast<double>(n * n);
          }
      }
      std::vector<double> product(n * n);
      for (std::size_t i = 0; i < n * n; ++i)
        product[i] = grid[0][i] * grid[2][i] + grid[1][i] * grid[3][i];
      const std::vector<Cplx> product_dft = naive_dft2(product, n, n);
      const std::vector<Cplx> got = fused_product(plan, spec, kcut);
      std::vector<Cplx> want(n * nh);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < nh; ++j)
          want[i * nh + j] = outside(i, j) ? Cplx(0.0, 0.0) : product_dft[i * n + j];
      // Float transforms: bound relative to the largest bin; worst measured
      // 2.2e-7.
      EXPECT_LE(rel_err(got, want), 1e-6)
          << "n=" << n << " kcut=" << kcut;
    }
  }
}

TEST(Fft2d, HalfApiRejectsUnsupportedShapes) {
  // Plan construction rejects n1 == 1 (no even row length for the r2c
  // stage) and odd / non-power-of-two extents.
  EXPECT_THROW(Fft2D(8, 1), Error);
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
  simd::FloatLaneBuffer lanes(2 * kLanes * q.half_size()), short_lanes(lanes.size() - 1);
  std::vector<Cplx> hspec(q.half_size());
  const auto jacobian = simd::active_kernels().sqg_jacobian;
  EXPECT_THROW(q.product_half_pruned_lanes(short_lanes, jacobian, hspec, 2), Error);
  EXPECT_THROW(q.product_half_pruned_lanes(lanes, jacobian, bad, 2), Error);
}

}  // namespace
}  // namespace turbda::fft
