// AVX2 / AVX2+FMA FFT kernel tables: the generic Vec kernels from
// simd_kernels_impl.hpp instantiated with the VecAvx2 backend. Compiled with
// -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt); used only after
// runtime CPUID confirms support.
//
// The Avx2 table (kFma = false) performs exactly one IEEE operation per
// VecScalar operation in the same per-element order, so its results are
// bitwise identical to the scalar table. The Avx2Fma table contracts each
// complex multiply's two roundings into one fused multiply-add — ~1 ulp per
// butterfly from the scalar reference, verified to 1e-12 end to end by the
// tests.
#include "fft/simd_kernels.hpp"

#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__) && defined(__AVX2__)

#include "fft/simd_kernels_impl.hpp"
#include "simd/vec.hpp"

namespace turbda::fft {

using simd::VecAvx2;

// Declared extern in simd_kernels.cpp (namespace-scope const defaults to
// internal linkage, so the declarations must precede the definitions).
extern const FftKernels kAvx2Kernels;
extern const FftKernels kAvx2FmaKernels;

const FftKernels kAvx2Kernels = {detail::pass_first_impl<VecAvx2>,
                                 detail::pass_radix4_impl<VecAvx2, false>,
                                 detail::pass_radix2_impl<VecAvx2, false>,
                                 detail::rfft_pack_impl<VecAvx2, false>,
                                 detail::rfft_unpack_impl<VecAvx2, false>,
                                 detail::lane_pass_first_impl<VecAvx2>,
                                 detail::lane_pass_radix4_impl<VecAvx2, false>,
                                 detail::lane_pass_radix2_impl<VecAvx2, false>,
                                 detail::lane_rows_in_impl<VecAvx2>,
                                 detail::lane_rfft_pack_impl<VecAvx2, false>,
                                 detail::lane_cols_in_impl<VecAvx2>,
                                 detail::lane_cols_out_impl<VecAvx2>,
                                 detail::lane_rfft_unpack_impl<VecAvx2, false>,
                                 detail::lane_rows_out_impl<VecAvx2>};
const FftKernels kAvx2FmaKernels = {detail::pass_first_impl<VecAvx2>,
                                    detail::pass_radix4_impl<VecAvx2, true>,
                                    detail::pass_radix2_impl<VecAvx2, true>,
                                    detail::rfft_pack_impl<VecAvx2, true>,
                                    detail::rfft_unpack_impl<VecAvx2, true>,
                                    detail::lane_pass_first_impl<VecAvx2>,
                                    detail::lane_pass_radix4_impl<VecAvx2, true>,
                                    detail::lane_pass_radix2_impl<VecAvx2, true>,
                                    detail::lane_rows_in_impl<VecAvx2>,
                                    detail::lane_rfft_pack_impl<VecAvx2, true>,
                                    detail::lane_cols_in_impl<VecAvx2>,
                                    detail::lane_cols_out_impl<VecAvx2>,
                                    detail::lane_rfft_unpack_impl<VecAvx2, true>,
                                    detail::lane_rows_out_impl<VecAvx2>};

}  // namespace turbda::fft

#endif  // TURBDA_HAVE_AVX2 && __x86_64__ && __AVX2__
