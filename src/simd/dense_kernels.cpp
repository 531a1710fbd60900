// Scalar dense-kernel table: the generic Vec kernels instantiated with the
// emulated VecScalar backend. Compiled with -ffp-contract=off and
// auto-vectorization off unconditionally (see CMakeLists.txt): this is the
// bitwise reference for the Avx2 table.
#include "simd/dense_kernels.hpp"

#include "common/check.hpp"
#include "simd/dense_kernels_impl.hpp"
#include "simd/vec.hpp"

namespace turbda::simd {

namespace {

static_assert(VecScalar::kWidth == kLaneBatch, "lane-batched kernels assume kWidth lanes");

constexpr DenseKernels kScalarDense = {
    detail::rot_rows_impl<VecScalar, false>,
    detail::scale_impl<VecScalar>,
    detail::baccum_rows_impl<VecScalar, false>,
    detail::bscale_impl<VecScalar>,
    detail::bscale_shift_impl<VecScalar, false>,
    detail::bjacobi_sweeps_impl<VecScalar, false>,
    detail::axpy_impl<VecScalar, false>,
    detail::clamped_axpy_impl<VecScalar>,
    detail::matmul_rows_impl<VecScalar>,
    detail::gaussian_pairs_impl<VecScalar>};

}  // namespace

#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
// Defined in dense_kernels_avx2.cpp (compiled with -mavx2 -mfma).
extern const DenseKernels kAvx2Dense;
extern const DenseKernels kAvx2FmaDense;
#endif

const DenseKernels& dense_kernels_for(SimdLevel level) {
  TURBDA_REQUIRE(simd_level_available(level),
                 "SIMD level " << simd_level_name(level) << " is not available on this build/CPU");
#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
  switch (level) {
    case SimdLevel::Avx2:
      return kAvx2Dense;
    case SimdLevel::Avx2Fma:
      return kAvx2FmaDense;
    case SimdLevel::Scalar:
      break;
  }
#endif
  return kScalarDense;
}

const DenseKernels& active_dense_kernels() { return dense_kernels_for(active_simd_level()); }

}  // namespace turbda::simd
