// Scalar FFT kernel table: the generic Vec kernels instantiated with the
// emulated VecScalar backend. This translation unit is compiled with
// -ffp-contract=off and auto-vectorization off unconditionally (see
// CMakeLists.txt): the scalar path is the bitwise reference for the Avx2
// level, so it must not grow FMA contractions under TURBDA_NATIVE builds.
#include "fft/simd_kernels.hpp"

#include "common/check.hpp"
#include "fft/simd_kernels_impl.hpp"
#include "simd/vec.hpp"

namespace turbda::fft {

namespace {

using simd::VecScalar;

constexpr FftKernels kScalarKernels = {detail::pass_first_impl<VecScalar>,
                                       detail::pass_radix4_impl<VecScalar, false>,
                                       detail::pass_radix2_impl<VecScalar, false>,
                                       detail::rfft_pack_impl<VecScalar, false>,
                                       detail::rfft_unpack_impl<VecScalar, false>,
                                       detail::lane_pass_first_impl<VecScalar>,
                                       detail::lane_pass_radix4_impl<VecScalar, false>,
                                       detail::lane_pass_radix2_impl<VecScalar, false>,
                                       detail::lane_rows_in_impl<VecScalar>,
                                       detail::lane_rfft_pack_impl<VecScalar, false>,
                                       detail::lane_cols_in_impl<VecScalar>,
                                       detail::lane_cols_out_impl<VecScalar>,
                                       detail::lane_rfft_unpack_impl<VecScalar, false>,
                                       detail::lane_rows_out_impl<VecScalar>};

}  // namespace

#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
// Defined in simd_kernels_avx2.cpp (compiled with -mavx2 -mfma).
extern const FftKernels kAvx2Kernels;
extern const FftKernels kAvx2FmaKernels;
#endif

const FftKernels& kernels_for(simd::SimdLevel level) {
  TURBDA_REQUIRE(simd::simd_level_available(level),
                 "SIMD level " << simd::simd_level_name(level)
                                << " is not available on this build/CPU");
#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
  switch (level) {
    case simd::SimdLevel::Avx2:
      return kAvx2Kernels;
    case simd::SimdLevel::Avx2Fma:
      return kAvx2FmaKernels;
    case simd::SimdLevel::Scalar:
      break;
  }
#endif
  return kScalarKernels;
}

const FftKernels& active_kernels() { return kernels_for(simd::active_simd_level()); }

}  // namespace turbda::fft
