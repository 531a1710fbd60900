// The AVX2 and AVX2+FMA kernel tables: kernel_table.hpp instantiated with
// the VecAvx2 backend. Compiled with -mavx2 -mfma -ffp-contract=off and
// auto-vectorization off (see CMakeLists.txt); used only after runtime
// CPUID confirms support. The Avx2 table (kFma = false) performs exactly
// one IEEE operation per VecScalar operation in the same per-element order,
// so it is bitwise the scalar table; the Avx2Fma table fuses the kFma
// entries' multiply-adds.
#include "simd/kernels.hpp"

#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__) && defined(__AVX2__)

#include "simd/kernel_table.hpp"

namespace turbda::simd {

// Declared extern in kernels.cpp (namespace-scope const defaults to internal
// linkage, so the declarations must precede the definitions).
extern const Kernels kAvx2Kernels;
extern const Kernels kAvx2FmaKernels;

const Kernels kAvx2Kernels = kernel_table<VecAvx2, false>();
const Kernels kAvx2FmaKernels = kernel_table<VecAvx2, true>();

}  // namespace turbda::simd

#endif  // TURBDA_HAVE_AVX2 && __x86_64__ && __AVX2__
