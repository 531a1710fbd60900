// The scalar kernel table and the one level switch. The table instantiates
// kernel_table.hpp with the emulated VecScalar backend; this TU is compiled
// with -ffp-contract=off and auto-vectorization off unconditionally (see
// CMakeLists.txt): the scalar table is the bitwise reference for the Avx2
// table, so it must not grow FMA contractions under TURBDA_NATIVE builds.
#include "simd/kernels.hpp"

#include "common/check.hpp"
#include "simd/kernel_table.hpp"

namespace turbda::simd {

namespace {

constexpr Kernels kScalarKernels = kernel_table<VecScalar, false>();

}  // namespace

#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
// Defined in kernels_avx2.cpp (compiled with -mavx2 -mfma).
extern const Kernels kAvx2Kernels;
extern const Kernels kAvx2FmaKernels;
#endif

const Kernels& kernels_for(SimdLevel level) {
  TURBDA_REQUIRE(simd_level_available(level),
                 "SIMD level " << simd_level_name(level) << " is not available on this build/CPU");
#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
  switch (level) {
    case SimdLevel::Avx2:
      return kAvx2Kernels;
    case SimdLevel::Avx2Fma:
      return kAvx2FmaKernels;
    case SimdLevel::Scalar:
      break;
  }
#endif
  return kScalarKernels;
}

const Kernels& active_kernels() { return kernels_for(active_simd_level()); }

}  // namespace turbda::simd
