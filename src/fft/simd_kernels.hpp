// Runtime-dispatched SIMD micro-kernels for the FFT hot loops.
//
// The radix-2² fused butterfly passes, the final odd radix-2 pass, the fused
// length-2/4 first stage and the Rfft1D Hermitian pack/unpack sweeps all run
// on raw interleaved (re, im) doubles — exactly the loop shape an AVX2 lane
// pair wants. Each loop is written once against the portable simd::Vec API
// (simd_kernels_impl.hpp) and instantiated per backend behind one table of
// function pointers, keyed by the process-global simd::SimdLevel (see
// simd/dispatch.hpp for level semantics, TURBDA_SIMD and force_simd_level).
#pragma once

#include <cstddef>

#include "simd/dispatch.hpp"

namespace turbda::fft {

/// All FFT inner loops, one function pointer per loop. Buffers are raw
/// interleaved (re, im) doubles (std::complex array-compatible layout).
struct FftKernels {
  /// Stages of butterfly length 2 and 4 fused (exact ±1/±i twiddles), over
  /// the whole bit-reversed array: n2 = 2 * n doubles, n >= 4 complex.
  /// isign = -1 forward, +1 inverse.
  void (*pass_first)(double* d, std::size_t n2, double isign);
  /// Fused radix-2² pass (stages s and s+1): blocks of 4 * half complex,
  /// stage-s twiddles tw, stage-(s+1) twiddles tw1; half >= 4 and even.
  void (*pass_radix4)(double* d, std::size_t n, std::size_t half, const double* tw,
                      const double* tw1);
  /// Single radix-2 pass (the odd remaining stage); half >= 4 and even.
  void (*pass_radix2)(double* d, std::size_t n, std::size_t half, const double* tw);
  /// Rfft1D forward Hermitian combine for bins k in [1, h-k): spec holds
  /// h + 1 interleaved complex bins, w the exp(-2πi k / n) twiddles.
  void (*rfft_pack)(double* spec, const double* w, std::size_t h);
  /// Rfft1D inverse Hermitian split for the same bin range.
  void (*rfft_unpack)(double* spec, const double* w, std::size_t h);
};

/// Kernel table for the given level; level must be available.
[[nodiscard]] const FftKernels& kernels_for(simd::SimdLevel level);

/// Table for the active level (detection + TURBDA_SIMD applied on first use).
[[nodiscard]] const FftKernels& active_kernels();

}  // namespace turbda::fft
