// AVX2 / AVX2+FMA dense-kernel tables: the generic Vec kernels from
// dense_kernels_impl.hpp instantiated with the VecAvx2 backend. Compiled
// with -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt); used only after
// runtime CPUID confirms support. The Avx2 table is bitwise identical to the
// scalar table; Avx2Fma contracts multiplies into FMAs everywhere except
// matmul_rows and gaussian_pairs, which have no FMA variant.
#include "simd/dense_kernels.hpp"

#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__) && defined(__AVX2__)

#include "simd/dense_kernels_impl.hpp"
#include "simd/vec.hpp"

namespace turbda::simd {

// Declared extern in dense_kernels.cpp (namespace-scope const defaults to
// internal linkage, so the declarations must precede the definitions).
extern const DenseKernels kAvx2Dense;
extern const DenseKernels kAvx2FmaDense;

static_assert(VecAvx2::kWidth == kLaneBatch, "lane-batched kernels assume kWidth lanes");

const DenseKernels kAvx2Dense = {
    detail::rot_rows_impl<VecAvx2, false>,
    detail::scale_impl<VecAvx2>,
    detail::baccum_rows_impl<VecAvx2, false>,
    detail::bscale_impl<VecAvx2>,
    detail::bscale_shift_impl<VecAvx2, false>,
    detail::bjacobi_sweeps_impl<VecAvx2, false>,
    detail::axpy_impl<VecAvx2, false>,
    detail::clamped_axpy_impl<VecAvx2>,
    detail::matmul_rows_impl<VecAvx2>,
    detail::gaussian_pairs_impl<VecAvx2>};
const DenseKernels kAvx2FmaDense = {
    detail::rot_rows_impl<VecAvx2, true>,
    detail::scale_impl<VecAvx2>,
    detail::baccum_rows_impl<VecAvx2, true>,
    detail::bscale_impl<VecAvx2>,
    detail::bscale_shift_impl<VecAvx2, true>,
    detail::bjacobi_sweeps_impl<VecAvx2, true>,
    detail::axpy_impl<VecAvx2, true>,
    detail::clamped_axpy_impl<VecAvx2>,
    detail::matmul_rows_impl<VecAvx2>,
    detail::gaussian_pairs_impl<VecAvx2>};

}  // namespace turbda::simd

#endif  // TURBDA_HAVE_AVX2 && __x86_64__ && __AVX2__
