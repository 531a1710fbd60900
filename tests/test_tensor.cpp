#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/linalg.hpp"
#include "tensor/tensor.hpp"

namespace turbda::tensor {
namespace {

using turbda::rng::Rng;

Tensor random_tensor(std::initializer_list<std::size_t> shape, Rng& rng) {
  Tensor t(shape);
  rng.fill_gaussian(t.flat());
  return t;
}

TEST(Tensor, ShapeAndAccess) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.extent(0), 2u);
  EXPECT_EQ(t.extent(1), 3u);
  t(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(t(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(t.flat()[5], 5.0);
}

TEST(Tensor, RowSpan) {
  Tensor t({3, 4});
  t(1, 0) = 9.0;
  auto r = t.row(1);
  EXPECT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 9.0);
}

TEST(Tensor, Arithmetic) {
  Tensor a = Tensor::full({2, 2}, 1.0);
  Tensor b = Tensor::full({2, 2}, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 1.0);
  a *= 4.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 4.0);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 6});
  t(1, 0) = 7.0;  // flat index 6
  t.reshape({3, 4});
  EXPECT_DOUBLE_EQ(t(1, 2), 7.0);
  EXPECT_THROW(t.reshape({5, 5}), Error);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2}), b({2, 3});
  EXPECT_THROW(a += b, Error);
}

using simd::SimdLevel;

std::vector<SimdLevel> available_levels() {
  std::vector<SimdLevel> out;
  for (SimdLevel lv : {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx2Fma})
    if (simd::simd_level_available(lv)) out.push_back(lv);
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// --- GEMM against a naive reference over shape and transpose sweeps --------

// The sum every product must give: each element starts at +0.0 and adds
// (alpha * op(A)(i, p)) * op(B)(p, j) in ascending p.
void naive_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, double alpha,
                const double* a, std::size_t lda, const double* b, std::size_t ldb, double* c,
                std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double av = alpha * ((ta == Trans::No) ? a[i * lda + p] : a[p * lda + i]);
        s += av * ((tb == Trans::No) ? b[p * ldb + j] : b[j * ldb + p]);
      }
      c[i * ldc + j] = s;
    }
}

// The naive value for one element, as a product must reproduce it: NaN
// where the reference gives NaN, otherwise the same bits. An FMA-enabled
// -march (TURBDA_NATIVE) lets this file contract the reference's
// multiply-adds while the kernel never does, so there finite values agree
// to rounding only.
::testing::AssertionResult matches_naive(double got, double want) {
  if (std::isnan(want) || std::isnan(got)) {
    if (std::isnan(want) && std::isnan(got)) return ::testing::AssertionSuccess();
  } else {
#if defined(__FMA__)
    if (std::isinf(want) ? got == want : std::abs(got - want) <= 1e-12)
      return ::testing::AssertionSuccess();
#else
    if (same_bits(got, want)) return ::testing::AssertionSuccess();
#endif
  }
  return ::testing::AssertionFailure() << got << " vs naive " << want;
}

using GemmShape = std::tuple<int, int, int>;

class GemmP : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmP, MatchesNaiveAllTransposeVariants) {
  // Every transpose pair, alpha 1 and not, tight and padded strides, at one
  // thread and on the pool, at every SIMD level. Padding of A and B holds
  // NaN, so a read of it shows in the result; padding of C must be kept.
  const auto [mi, ni, ki] = GetParam();
  const auto m = static_cast<std::size_t>(mi), n = static_cast<std::size_t>(ni),
             k = static_cast<std::size_t>(ki);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double keep = -777.0;
  Rng rng(42 + static_cast<std::uint64_t>(mi * 1000 + ni * 10 + ki));
  const SimdLevel orig = simd::active_simd_level();
  for (Trans ta : {Trans::No, Trans::Yes})
    for (Trans tb : {Trans::No, Trans::Yes})
      for (double alpha : {1.0, -0.75})
        for (std::size_t pad : {0, 3}) {
          const std::size_t a_rows = (ta == Trans::No) ? m : k, a_cols = (ta == Trans::No) ? k : m;
          const std::size_t b_rows = (tb == Trans::No) ? k : n, b_cols = (tb == Trans::No) ? n : k;
          const std::size_t lda = a_cols + pad, ldb = b_cols + pad, ldc = n + pad;
          std::vector<double> a(a_rows * lda, nan), b(b_rows * ldb, nan);
          for (std::size_t r = 0; r < a_rows; ++r) rng.fill_gaussian({a.data() + r * lda, a_cols});
          for (std::size_t r = 0; r < b_rows; ++r) rng.fill_gaussian({b.data() + r * ldb, b_cols});
          std::vector<double> want(m * ldc);
          naive_gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, want.data(), ldc);
          for (SimdLevel lv : available_levels()) {
            ASSERT_TRUE(simd::force_simd_level(lv));
            for (std::size_t threads : {1, 0}) {
              std::vector<double> c(m * ldc, keep);
              gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, c.data(), ldc, threads);
              for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < ldc; ++j) {
                  const double got = c[i * ldc + j];
                  ASSERT_TRUE(j < n ? matches_naive(got, want[i * ldc + j]) : got == keep)
                      << simd::simd_level_name(lv) << " ta=" << (ta == Trans::Yes)
                      << " tb=" << (tb == Trans::Yes) << " alpha=" << alpha << " pad=" << pad
                      << " threads=" << threads << " element (" << i << ", " << j << ")";
                }
            }
          }
        }
  simd::force_simd_level(orig);
}

// {128, 64, 200}, {70, 257, 31} and {150, 1, 4000} are above the
// row-partition threshold; n = 1 is a matrix-vector product.
INSTANTIATE_TEST_SUITE_P(Shapes, GemmP,
                         ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                                           GemmShape{5, 1, 7}, GemmShape{16, 16, 16},
                                           GemmShape{33, 65, 129}, GemmShape{128, 64, 200},
                                           GemmShape{70, 257, 31}, GemmShape{150, 1, 4000}));

TEST(Gemm, AlphaSemantics) {
  // C = alpha * A B, whatever C held before. Halving is exact, so the
  // result is bitwise half of A B.
  Rng rng(1);
  Tensor a = random_tensor({4, 4}, rng), b = random_tensor({4, 4}, rng);
  Tensor c = Tensor::full({4, 4}, 2.0);
  const Tensor ab = matmul(a, b);
  gemm(Trans::No, Trans::No, 4, 4, 4, 0.5, a.data(), 4, b.data(), 4, c.data(), 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) EXPECT_TRUE(same_bits(c(i, j), 0.5 * ab(i, j)));
}

// --- The dense-kernel row product against the naive sum at every level -----

// EnSF's two uses of matmul_rows at every level, each against naive_gemm
// with alpha 1: the score logits z X^T, with z rows at stride ldz and
// B = X^T, and the weighted mean W X.
void expect_ensf_products_match_naive(const std::vector<double>& z, std::size_t ldz,
                                      const std::vector<double>& x, const std::vector<double>& w,
                                      std::size_t rows, std::size_t batch, std::size_t d) {
  std::vector<double> xt(d * batch);
  for (std::size_t j = 0; j < batch; ++j)
    for (std::size_t k = 0; k < d; ++k) xt[k * batch + j] = x[j * d + k];
  std::vector<double> want_s(rows * batch), want_m(rows * d);
  naive_gemm(Trans::No, Trans::Yes, rows, batch, d, 1.0, z.data(), ldz, x.data(), d,
             want_s.data(), batch);
  naive_gemm(Trans::No, Trans::No, rows, d, batch, 1.0, w.data(), batch, x.data(), d,
             want_m.data(), d);
  for (SimdLevel lv : available_levels()) {
    const simd::Kernels& dk = simd::kernels_for(lv);
    std::vector<double> got_s(rows * batch, -1.0), got_m(rows * d, -1.0);
    dk.matmul_rows(got_s.data(), z.data(), ldz, rows, xt.data(), d, batch);
    dk.matmul_rows(got_m.data(), w.data(), batch, rows, x.data(), batch, d);
    for (std::size_t e = 0; e < got_s.size(); ++e)
      ASSERT_TRUE(matches_naive(got_s[e], want_s[e]))
          << simd::simd_level_name(lv) << " z X^T rows=" << rows << " batch=" << batch
          << " d=" << d << " element " << e;
    for (std::size_t e = 0; e < got_m.size(); ++e)
      ASSERT_TRUE(matches_naive(got_m[e], want_m[e]))
          << simd::simd_level_name(lv) << " W X rows=" << rows << " batch=" << batch
          << " d=" << d << " element " << e;
  }
}

TEST(MatmulRows, MatchesNaiveOnEveryTailAtEveryLevel) {
  // Row counts cover every partial row group and two full ones; batch and d
  // cover partial vector tiles, lone vectors and scalar columns in both uses.
  for (std::size_t rows : {1, 2, 3, 5, 7, 11})
    for (std::size_t batch : {1, 3, 4, 5, 16, 17, 20})
      for (std::size_t d : {1, 3, 15, 16, 17, 300}) {
        Rng rng(7000 + rows * 10000 + batch * 100 + d);
        const std::size_t ldz = d + 3;
        std::vector<double> z(rows * ldz), x(batch * d), w(rows * batch);
        rng.fill_gaussian(z);
        rng.fill_gaussian(x);
        rng.fill_gaussian(w);
        expect_ensf_products_match_naive(z, ldz, x, w, rows, batch, d);
      }
}

TEST(MatmulRows, NonFiniteAndNegativeZeroInputsMatchNaive) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t rows : {3, 7})
    for (std::size_t batch : {5, 20})
      for (std::size_t d : {17, 300}) {
        Rng rng(8000 + rows * 1000 + batch * 10 + d);
        std::vector<double> z(rows * d), x(batch * d), w(rows * batch);
        rng.fill_gaussian(z);
        rng.fill_gaussian(w);
        for (double& v : x) v = 0.5 + std::abs(rng.gaussian());
        // NaN and +-inf reach some elements of both products.
        z[(rows - 1) * d + d / 2] = nan;
        x[(batch - 1) * d + 1] = inf;
        w[1] = -inf;
        expect_ensf_products_match_naive(z, d, x, w, rows, batch, d);

        // A row of -0.0 against positive values sums to +0.0 in both, since
        // each sum starts at +0.0.
        std::fill_n(z.begin(), d, -0.0);
        std::fill_n(w.begin(), batch, -0.0);
        x[(batch - 1) * d + 1] = 1.0;
        expect_ensf_products_match_naive(z, d, x, w, rows, batch, d);
        std::vector<double> xt(d * batch), out(std::max(batch, d));
        for (std::size_t j = 0; j < batch; ++j)
          for (std::size_t k = 0; k < d; ++k) xt[k * batch + j] = x[j * d + k];
        for (SimdLevel lv : available_levels()) {
          const simd::Kernels& dk = simd::kernels_for(lv);
          dk.matmul_rows(out.data(), z.data(), d, 1, xt.data(), d, batch);
          for (std::size_t j = 0; j < batch; ++j) EXPECT_TRUE(same_bits(out[j], 0.0));
          dk.matmul_rows(out.data(), w.data(), batch, 1, x.data(), batch, d);
          for (std::size_t k = 0; k < d; ++k) EXPECT_TRUE(same_bits(out[k], 0.0));
        }
      }
}

// --- The float row product (EnSF's weighted mean W X) -----------------------

// The naive float sum as the kernel must reproduce it: the same bits, or,
// where an FMA-enabled -march (TURBDA_NATIVE) may contract this file's
// float sum, within the sum's rounding bound.
::testing::AssertionResult matches_naive_f32(double got, double want, double bound) {
#if defined(__FMA__)
  if (std::abs(got - want) <= bound) return ::testing::AssertionSuccess();
#else
  (void)bound;
  if (same_bits(got, want)) return ::testing::AssertionSuccess();
#endif
  return ::testing::AssertionFailure() << got << " vs naive " << want;
}

TEST(MatmulRowsF32, MatchesNaiveFloatSumAndDoubleProductOnEveryTail) {
  // matmul_rows_f32 against a naive float sum (each element starts at +0.0f
  // and adds the unfused float products in ascending p, then widens):
  // bitwise at every level. And against matmul_rows on the same values in
  // double: within the float sum's a priori bound (k + 1) 2^-24 sum |a b|.
  // Rows cover every partial row group and two full ones; columns cover
  // partial register tiles, lone registers and scalar columns; A's rows are
  // padded (lda = k + 2).
  for (std::size_t rows : {1, 2, 3, 5, 7, 11})
    for (std::size_t k : {1, 3, 5, 20})
      for (std::size_t n : {1, 3, 7, 8, 15, 16, 17, 300}) {
        Rng rng(9000 + rows * 10000 + k * 1000 + n);
        const std::size_t lda = k + 2;
        std::vector<float> a(rows * lda), b(k * n);
        for (float& v : a) v = static_cast<float>(std::abs(rng.gaussian()));
        for (float& v : b) v = static_cast<float>(4.0 * rng.gaussian());
        const std::vector<double> ad(a.begin(), a.end()), bd(b.begin(), b.end());
        std::vector<double> want(rows * n), bound(rows * n);
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t c = 0; c < n; ++c) {
            float s = 0.0f;
            double mag = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
              s = s + a[i * lda + p] * b[p * n + c];
              mag += std::abs(ad[i * lda + p] * bd[p * n + c]);
            }
            want[i * n + c] = s;
            bound[i * n + c] = static_cast<double>(k + 1) * 0x1p-24 * mag;
          }
        for (SimdLevel lv : available_levels()) {
          const simd::Kernels& dk = simd::kernels_for(lv);
          std::vector<double> got(rows * n, -1.0), dbl(rows * n, -1.0);
          dk.matmul_rows_f32(got.data(), a.data(), lda, rows, b.data(), k, n);
          dk.matmul_rows(dbl.data(), ad.data(), lda, rows, bd.data(), k, n);
          for (std::size_t e = 0; e < got.size(); ++e) {
            ASSERT_TRUE(matches_naive_f32(got[e], want[e], bound[e]))
                << simd::simd_level_name(lv) << " rows=" << rows << " k=" << k << " n=" << n
                << " element " << e;
            ASSERT_LE(std::abs(got[e] - dbl[e]), bound[e])
                << simd::simd_level_name(lv) << " rows=" << rows << " k=" << k << " n=" << n
                << " element " << e;
          }
        }
      }
}

// --- Symmetric eigensolver ---------------------------------------------------

class EighP : public ::testing::TestWithParam<int> {};

TEST_P(EighP, ReconstructsRandomSymmetricMatrix) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(100 + static_cast<std::uint64_t>(n));
  Tensor a({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.gaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  Tensor v;
  std::vector<double> w;
  jacobi_eigh(a, v, w);

  // Eigenvalues ascending.
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(w[i - 1], w[i]);

  // V orthonormal: V^T V = I.
  const Tensor vtv = matmul_tn(v, v);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);

  // A = V diag(w) V^T.
  Tensor vd({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) vd(i, j) = v(i, j) * w[j];
  const Tensor rec = matmul_nt(vd, v);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(rec.flat()[i], a.flat()[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighP, ::testing::Values(1, 2, 3, 5, 10, 20, 40));

TEST(Eigh, DiagonalMatrix) {
  Tensor a({3, 3});
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  Tensor v;
  std::vector<double> w;
  jacobi_eigh(a, v, w);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 2.0, 1e-12);
  EXPECT_NEAR(w[2], 3.0, 1e-12);
}

TEST(Eigh, NearDegenerateSpectrumConvergesWithReport) {
  // Eigenvalues separated by ~1e-12 of their magnitude: rotations between the
  // near-degenerate pair are ill-conditioned, but thresholded Jacobi must
  // still converge and say so in the report.
  const std::size_t n = 6;
  std::vector<double> diag{1.0, 1.0 + 1e-12, 1.0 + 2e-12, 3.0, 3.0 + 1e-12, 7.0};
  // A = Q diag Q^T with a deterministic dense orthogonal Q (product of plane
  // rotations), so the degeneracy is not axis-aligned.
  Tensor q({n, n});
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t r = p + 1; r < n; ++r) {
      const double th = 0.4 + 0.13 * static_cast<double>(p * n + r);
      const double c = std::cos(th), s = std::sin(th);
      for (std::size_t i = 0; i < n; ++i) {
        const double qp = q(i, p), qr = q(i, r);
        q(i, p) = c * qp - s * qr;
        q(i, r) = s * qp + c * qr;
      }
    }
  Tensor a({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += q(i, k) * diag[k] * q(j, k);
      a(i, j) = s;
    }

  Tensor v;
  std::vector<double> w;
  EighInfo info;
  jacobi_eigh(a, v, w, 50, &info);
  EXPECT_TRUE(info.converged);
  EXPECT_GT(info.sweeps, 0);
  double fro_sq = 0.0;
  for (double x : a.flat()) fro_sq += x * x;
  EXPECT_LE(info.off_fro, 1e-14 * std::sqrt(fro_sq));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(w[i], diag[i], 1e-9);

  // Residual check: A v_j = w_j v_j even inside the degenerate clusters.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::size_t k = 0; k < n; ++k) av += a(i, k) * v(k, j);
      EXPECT_NEAR(av, w[j] * v(i, j), 1e-9);
    }
}

TEST(Eigh, ThrowsOnInsufficientSweepsAndFillsInfo) {
  Rng rng(31);
  const std::size_t n = 12;
  Tensor a({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.gaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  Tensor v;
  std::vector<double> w;
  EighInfo info;
  EXPECT_THROW(jacobi_eigh(a, v, w, /*max_sweeps=*/0, &info), turbda::Error);
  // The report is filled before the throw so callers can inspect it.
  EXPECT_FALSE(info.converged);
  EXPECT_EQ(info.sweeps, 0);
  EXPECT_GT(info.off_fro, 0.0);
}

// --- Lane-batched symmetric eigensolver --------------------------------------

Tensor random_symmetric(std::size_t n, Rng& rng) {
  Tensor a({n, n});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.gaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

TEST(EighBatch, LanesBitwiseMatchSequentialAtEveryLevel) {
  const std::size_t W = eigh_lane_width();
  ASSERT_EQ(W, 4u);
  const SimdLevel orig = simd::active_simd_level();
  for (SimdLevel lv : available_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{12}, std::size_t{20}}) {
      Rng rng(500 + static_cast<std::uint64_t>(n));
      std::vector<Tensor> as;
      for (std::size_t l = 0; l < W; ++l) as.push_back(random_symmetric(n, rng));
      std::vector<double> al(n * n * W), vl(n * n * W), wl(n * W);
      for (std::size_t e = 0; e < n * n; ++e)
        for (std::size_t l = 0; l < W; ++l) al[e * W + l] = as[l].flat()[e];
      std::vector<EighInfo> infos(W);
      jacobi_eigh_batch(al.data(), n, W, vl.data(), wl.data(), 50, infos.data());
      for (std::size_t l = 0; l < W; ++l) {
        Tensor v;
        std::vector<double> w;
        EighInfo info;
        jacobi_eigh(as[l], v, w, 50, &info);
        ASSERT_TRUE(info.converged);
        EXPECT_TRUE(infos[l].converged);
        EXPECT_EQ(infos[l].sweeps, info.sweeps);
        EXPECT_TRUE(same_bits(infos[l].off_fro, info.off_fro));
        for (std::size_t j = 0; j < n; ++j)
          EXPECT_TRUE(same_bits(wl[j * W + l], w[j]))
              << simd::simd_level_name(lv) << " n=" << n << " lane " << l << " w[" << j << "]";
        for (std::size_t e = 0; e < n * n; ++e)
          EXPECT_TRUE(same_bits(vl[e * W + l], v.flat()[e]))
              << simd::simd_level_name(lv) << " n=" << n << " lane " << l << " v elem " << e;
      }
    }
  }
  simd::force_simd_level(orig);
}

TEST(EighBatch, PartialBatchLanesMatchAndPadLanesUntouched) {
  const std::size_t W = eigh_lane_width();
  const std::size_t n = 9;
  const SimdLevel orig = simd::active_simd_level();
  for (SimdLevel lv : available_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    for (std::size_t nb = 1; nb < W; ++nb) {
      Rng rng(900 + static_cast<std::uint64_t>(nb));
      std::vector<Tensor> as;
      for (std::size_t l = 0; l < nb; ++l) as.push_back(random_symmetric(n, rng));
      std::vector<double> al(n * n * W, 0.0), vl(n * n * W, -777.0), wl(n * W, -777.0);
      for (std::size_t e = 0; e < n * n; ++e)
        for (std::size_t l = 0; l < nb; ++l) al[e * W + l] = as[l].flat()[e];
      std::vector<EighInfo> infos(W);
      jacobi_eigh_batch(al.data(), n, nb, vl.data(), wl.data(), 50, infos.data());
      for (std::size_t l = 0; l < nb; ++l) {
        Tensor v;
        std::vector<double> w;
        jacobi_eigh(as[l], v, w);
        for (std::size_t j = 0; j < n; ++j) EXPECT_TRUE(same_bits(wl[j * W + l], w[j]));
        for (std::size_t e = 0; e < n * n; ++e) EXPECT_TRUE(same_bits(vl[e * W + l], v.flat()[e]));
      }
      // Output lanes beyond nb are never written.
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t l = nb; l < W; ++l) EXPECT_EQ(wl[j * W + l], -777.0);
      for (std::size_t e = 0; e < n * n; ++e)
        for (std::size_t l = nb; l < W; ++l) EXPECT_EQ(vl[e * W + l], -777.0);
    }
  }
  simd::force_simd_level(orig);
}

TEST(EighBatch, MixedConvergenceReportsPerLaneWithoutThrowing) {
  const std::size_t W = eigh_lane_width();
  const std::size_t n = 12;
  const SimdLevel orig = simd::active_simd_level();
  for (SimdLevel lv : available_levels()) {
    ASSERT_TRUE(simd::force_simd_level(lv));
    // Lane 0 converges at the entry check (diagonal matrix, 0 sweeps); the
    // dense random lanes cannot finish within one sweep, so a single batch
    // mixes converged and exhausted lanes.
    Rng rng(77);
    std::vector<Tensor> as;
    Tensor diag({n, n});
    for (std::size_t i = 0; i < n; ++i) diag(i, i) = static_cast<double>(i) - 3.5;
    as.push_back(diag);
    for (std::size_t l = 1; l < W; ++l) as.push_back(random_symmetric(n, rng));
    std::vector<double> al(n * n * W), vl(n * n * W), wl(n * W);
    for (std::size_t e = 0; e < n * n; ++e)
      for (std::size_t l = 0; l < W; ++l) al[e * W + l] = as[l].flat()[e];
    std::vector<EighInfo> infos(W);
    jacobi_eigh_batch(al.data(), n, W, vl.data(), wl.data(), /*max_sweeps=*/1, infos.data());

    // Lane 0: bitwise-identical to the sequential solve of the diagonal case.
    {
      Tensor v;
      std::vector<double> w;
      EighInfo info;
      jacobi_eigh(as[0], v, w, 1, &info);
      EXPECT_TRUE(infos[0].converged);
      EXPECT_EQ(infos[0].sweeps, info.sweeps);
      EXPECT_EQ(infos[0].sweeps, 0);
      for (std::size_t j = 0; j < n; ++j) EXPECT_TRUE(same_bits(wl[j * W + 0], w[j]));
      for (std::size_t e = 0; e < n * n; ++e) EXPECT_TRUE(same_bits(vl[e * W + 0], v.flat()[e]));
    }
    // Dense lanes: exhausted, reported per lane with the sequential solver's
    // residual, and given the documented benign identity fallback output.
    for (std::size_t l = 1; l < W; ++l) {
      Tensor v;
      std::vector<double> w;
      EighInfo info;
      EXPECT_THROW(jacobi_eigh(as[l], v, w, 1, &info), turbda::Error);
      ASSERT_FALSE(info.converged);
      EXPECT_FALSE(infos[l].converged);
      EXPECT_EQ(infos[l].sweeps, info.sweeps);
      EXPECT_TRUE(same_bits(infos[l].off_fro, info.off_fro));
      for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(wl[j * W + l], 1.0);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i)
          EXPECT_EQ(vl[(i * n + j) * W + l], i == j ? 1.0 : 0.0);
    }
  }
  simd::force_simd_level(orig);
}

TEST(Cholesky, FactorizesAndSolves) {
  Rng rng(7);
  const std::size_t n = 8;
  // SPD matrix: A = B B^T + n*I.
  Tensor b = random_tensor({n, n}, rng);
  Tensor a = matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

  const Tensor l = cholesky(a);
  const Tensor llt = matmul_nt(l, l);
  for (std::size_t i = 0; i < n * n; ++i) EXPECT_NEAR(llt.flat()[i], a.flat()[i], 1e-9);

  std::vector<double> rhs(n);
  rng.fill_gaussian(rhs);
  const auto x = spd_solve(a, rhs);
  // Check A x == rhs.
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += a(i, j) * x[j];
    EXPECT_NEAR(s, rhs[i], 1e-8);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Tensor a({2, 2});
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  EXPECT_THROW(cholesky(a), Error);
}

}  // namespace
}  // namespace turbda::tensor
