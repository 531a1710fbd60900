// Process-global runtime SIMD dispatch level.
//
// Every vectorized kernel (the FFT butterflies, the small-dense kernels and
// the SQG pointwise kernels) sits in one table of function pointers per
// level, simd::Kernels (simd/kernels.hpp); this header owns the level
// itself. The active level is chosen once at startup from CPUID — the
// portable build benefits on AVX2 hardware without TURBDA_NATIVE — can be
// forced down with the TURBDA_SIMD environment variable (scalar | avx2 |
// avx2fma), and can be overridden programmatically for tests. An unset or
// empty TURBDA_SIMD keeps the detected level, and so does a known level that
// the build or the CPU cannot run. Any other value prints the accepted names
// to stderr and exits with status 2 at startup, before any kernel runs.
// Dispatch is process-global, so all thread-count bitwise invariance
// guarantees are unaffected by it.
//
// Level semantics, shared by every kernel:
//  - Scalar:  portable C++, always available, compiled with -ffp-contract=off
//             so it stays bitwise reproducible even under -march=native.
//  - Avx2:    AVX2 intrinsics, one mul/add per IEEE operation in the same
//             per-element order as the scalar code — bitwise identical to it.
//  - Avx2Fma: AVX2 + FMA; multiplies contract into fused multiply-adds (one
//             rounding instead of two), so results agree with the scalar path
//             to ~1 ulp per operation, not bitwise.
#pragma once

namespace turbda::simd {

enum class SimdLevel : int { Scalar = 0, Avx2 = 1, Avx2Fma = 2 };

/// The active level (detection + TURBDA_SIMD, applied once at startup).
[[nodiscard]] SimdLevel active_simd_level();

[[nodiscard]] const char* simd_level_name(SimdLevel level);

/// True when the level's kernels are compiled in and the CPU supports them.
[[nodiscard]] bool simd_level_available(SimdLevel level);

/// Force the dispatch level (tests and benches; no-op returning false when
/// the level is unavailable). Affects the whole process — do not call
/// concurrently with in-flight transforms or analyses.
bool force_simd_level(SimdLevel level);

}  // namespace turbda::simd
