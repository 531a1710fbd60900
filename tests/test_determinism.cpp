// Thread-count determinism: LETKF and EnSF analyses and the member-parallel
// SQG ensemble forecast loop must be bitwise identical for every thread
// count of thread_counts() — 0 (the pool plus the caller: hw + 1 chunks, a
// split no explicit count makes), 1, 2, hardware_concurrency() and twice
// that (more than the pool can run at once, so parallel_for's max_par clamp
// decides the split) — and the row-parallel GEMM must match a serial
// reference bitwise. This is the contract that makes the parallel hot path
// safe to enable by default. The LETKF analysis and the SQG forecast are
// also bitwise identical under the Scalar and Avx2 levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "da/ensemble.hpp"
#include "da/ensf.hpp"
#include "da/letkf.hpp"
#include "da/observation.hpp"
#include "models/model_error.hpp"
#include "rng/rng.hpp"
#include "simd/dispatch.hpp"
#include "sqg/sqg.hpp"
#include "stream/realtime_runner.hpp"
#include "stream/synthetic_stream.hpp"
#include "tensor/gemm.hpp"

namespace turbda {
namespace {

constexpr std::size_t kNx = 8;
constexpr std::size_t kNy = 8;
constexpr std::size_t kLev = 2;
constexpr std::size_t kDim = kNx * kNy * kLev;
constexpr std::size_t kMembers = 10;

/// Small OSSE-style case: perturbed ensemble around a smooth truth, identity
/// observations of the full state with noise.
struct SmallCase {
  da::Ensemble ens{kMembers, kDim};
  std::vector<double> y;
  da::IdentityObs h{kDim, kNx, kNy, kLev};
  da::DiagonalR r{kDim, 1.0};

  SmallCase() {
    std::vector<double> truth(kDim);
    rng::Rng rng(1234);
    rng.fill_gaussian(truth, 0.0, 2.0);
    ens.init_perturbed(truth, 1.5, rng);
    y.resize(kDim);
    for (std::size_t i = 0; i < kDim; ++i) y[i] = truth[i] + rng.gaussian();
  }
};

std::vector<std::size_t> thread_counts() {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return {0, 1, 2, hw, 2 * hw};
}

void expect_bitwise_equal(const da::Ensemble& a, const da::Ensemble& b, std::size_t n_threads) {
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t m = 0; m < a.size(); ++m) {
    const auto ra = a.member(m);
    const auto rb = b.member(m);
    EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)))
        << "member " << m << " differs between 1 and " << n_threads << " threads";
  }
}

TEST(Determinism, LetkfIndependentOfThreadCount) {
  da::LetkfConfig lc;
  lc.nx = kNx;
  lc.ny = kNy;
  lc.n_levels = kLev;
  lc.domain_m = 4.0e6;
  lc.cutoff_m = 1.5e6;

  SmallCase ref_case;
  lc.n_threads = 1;
  da::LETKF ref_filter(lc);
  ref_filter.analyze(ref_case.ens, ref_case.y, ref_case.h, ref_case.r);

  for (std::size_t nt : thread_counts()) {
    SmallCase c;
    lc.n_threads = nt;
    da::LETKF filter(lc);
    filter.analyze(c.ens, c.y, c.h, c.r);
    expect_bitwise_equal(ref_case.ens, c.ens, nt);
  }
}

TEST(Determinism, LetkfIndependentOfSimdLevel) {
  // The Scalar kernel table emulates 4-lane vectors with identical IEEE
  // operation order to the Avx2 table, so the whole analysis must be bitwise
  // reproducible across those dispatch levels (FMA legitimately differs).
  if (!simd::simd_level_available(simd::SimdLevel::Avx2)) GTEST_SKIP() << "no AVX2";
  da::LetkfConfig lc;
  lc.nx = kNx;
  lc.ny = kNy;
  lc.n_levels = kLev;
  lc.domain_m = 4.0e6;
  lc.cutoff_m = 1.5e6;

  const simd::SimdLevel before = simd::active_simd_level();
  SmallCase scalar_case;
  simd::force_simd_level(simd::SimdLevel::Scalar);
  {
    da::LETKF filter(lc);
    filter.analyze(scalar_case.ens, scalar_case.y, scalar_case.h, scalar_case.r);
  }
  SmallCase avx2_case;
  simd::force_simd_level(simd::SimdLevel::Avx2);
  {
    da::LETKF filter(lc);
    filter.analyze(avx2_case.ens, avx2_case.y, avx2_case.h, avx2_case.r);
  }
  simd::force_simd_level(before);
  expect_bitwise_equal(scalar_case.ens, avx2_case.ens, 1);
}

TEST(Determinism, SqgStepIndependentOfSimdLevel) {
  // The whole forecast: the lane forward, pass 1's lane-interleaved store,
  // the fused Jacobian transforms, to_grid's lane-0 inverse and the
  // pointwise kernels all repeat the scalar IEEE operation order on the Avx2
  // level.
  if (!simd::simd_level_available(simd::SimdLevel::Avx2)) GTEST_SKIP() << "no AVX2";
  const simd::SimdLevel before = simd::active_simd_level();
  for (const std::size_t n : {32u, 128u}) {
    sqg::SqgConfig mc;
    mc.n = n;
    const sqg::SqgModel model(mc);
    std::vector<double> theta0(model.dim());
    rng::Rng rng(4242 + n);
    model.random_init(theta0, rng, 1.0, 4);
    std::vector<double> scalar = theta0, avx2 = theta0;
    simd::force_simd_level(simd::SimdLevel::Scalar);
    model.step(scalar, 3);
    simd::force_simd_level(simd::SimdLevel::Avx2);
    model.step(avx2, 3);
    simd::force_simd_level(before);
    EXPECT_EQ(0, std::memcmp(scalar.data(), avx2.data(), scalar.size() * sizeof(double)))
        << "n=" << n;
  }
}

TEST(Determinism, EnsfIndependentOfThreadCount) {
  da::EnsfConfig ec;
  ec.euler_steps = 20;

  SmallCase ref_case;
  ec.n_threads = 1;
  da::EnSF ref_filter(ec);
  ref_filter.analyze(ref_case.ens, ref_case.y, ref_case.h, ref_case.r);

  for (std::size_t nt : thread_counts()) {
    SmallCase c;
    ec.n_threads = nt;
    da::EnSF filter(ec);  // fresh filter: same cycle counter as the reference
    filter.analyze(c.ens, c.y, c.h, c.r);
    expect_bitwise_equal(ref_case.ens, c.ens, nt);
  }
}

TEST(Determinism, EnsfMinibatchIndependentOfThreadCount) {
  da::EnsfConfig ec;
  ec.euler_steps = 12;
  ec.minibatch = 6;  // exercises the shared-stream shuffle path

  SmallCase ref_case;
  ec.n_threads = 1;
  da::EnSF ref_filter(ec);
  ref_filter.analyze(ref_case.ens, ref_case.y, ref_case.h, ref_case.r);

  for (std::size_t nt : thread_counts()) {
    SmallCase c;
    ec.n_threads = nt;
    da::EnSF filter(ec);
    filter.analyze(c.ens, c.y, c.h, c.r);
    expect_bitwise_equal(ref_case.ens, c.ens, nt);
  }
}

TEST(Determinism, EnsembleForecastIndependentOfThreadCount) {
  // Member-parallel OSSE forecasts (with per-member counter-based model
  // error) must reproduce the serial member loop bitwise.
  auto run_osse = [](std::size_t n_forecast_threads) {
    sqg::SqgConfig mc;
    mc.n = 16;
    mc.dt = 1800.0;
    auto model = std::make_shared<sqg::SqgModel>(mc);
    sqg::SqgForecast truth(model, 6 * 3600.0);
    sqg::SqgForecast fcst(model, 6 * 3600.0);
    da::IdentityObs h(model->dim(), mc.n, mc.n, 2);
    da::DiagonalR r(model->dim(), 1.0);
    models::ModelErrorProcess me(models::ModelErrorConfig{.reference_scale = 0.5});

    stream::RealtimeConfig rc;
    rc.n_members = 6;
    rc.cycles = 2;
    rc.seed = 99;
    rc.inject_model_error = true;
    rc.model_error_shared = false;  // per-member substreams on the hot loop
    rc.n_forecast_threads = n_forecast_threads;

    rng::Rng rng(31337);
    std::vector<double> truth0(model->dim());
    model->random_init(truth0, rng, 1.0, 3);
    stream::SyntheticStream obs({.seed = rc.seed}, truth, h, r, truth0);
    stream::RealtimeRunner runner(rc, obs, fcst, /*filter=*/nullptr, &me);
    runner.run(truth0);
    da::Ensemble out = runner.ensemble();
    return out;
  };
  const auto ref = run_osse(1);
  for (std::size_t nt : thread_counts()) {
    const auto got = run_osse(nt);
    expect_bitwise_equal(ref, got, nt);
  }
}

TEST(Determinism, ParallelGemmMatchesSerialReferenceBitwise) {
  // Big enough to cross the row-parallelization threshold in gemm().
  const std::size_t m = 128, n = 64, k = 64;
  const double alpha = 1.5;
  std::vector<double> a(m * k), b(k * n), c(m * n), c1(m * n), c_ref(m * n, 0.0);
  rng::Rng rng(77);
  rng.fill_gaussian(a);
  rng.fill_gaussian(b);
  rng.fill_gaussian(c);

  tensor::gemm(tensor::Trans::No, tensor::Trans::No, m, n, k, alpha, a.data(), k, b.data(), n,
               c.data(), n);
  tensor::gemm(tensor::Trans::No, tensor::Trans::No, m, n, k, alpha, a.data(), k, b.data(), n,
               c1.data(), n, /*max_threads=*/1);
  EXPECT_EQ(0, std::memcmp(c.data(), c1.data(), c.size() * sizeof(double)));

  // Serial reference with the same per-element accumulation order (ascending
  // k, av = alpha * a first) — must match bitwise. Under an FMA-enabled
  // -march (TURBDA_NATIVE) this file may contract the reference's
  // multiply-adds while gemm's kernel never does, so there it agrees to
  // rounding only.
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double av = alpha * a[i * k + kk];
      for (std::size_t j = 0; j < n; ++j) c_ref[i * n + j] += av * b[kk * n + j];
    }
#if defined(__FMA__)
  for (std::size_t e = 0; e < c.size(); ++e)
    EXPECT_NEAR(c[e], c_ref[e], 1e-12);
#else
  EXPECT_EQ(0, std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(double)));
#endif
}

}  // namespace
}  // namespace turbda
