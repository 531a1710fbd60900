// Runtime-dispatched SIMD micro-kernels for the FFT hot loops.
//
// The radix-2² fused butterfly passes, the final odd radix-2 pass, the fused
// length-2/4 first stage and the Rfft1D Hermitian pack/unpack sweeps all run
// on raw interleaved (re, im) doubles — exactly the loop shape an AVX2 lane
// pair wants — and, for Fft2D's forward and its fused product transform, on
// four transforms at once, one per lane. Each loop is written once against
// the portable simd::Vec API (simd_kernels_impl.hpp) and instantiated per
// backend behind one table of function pointers, keyed by the process-global
// simd::SimdLevel (see simd/dispatch.hpp for level semantics, TURBDA_SIMD and
// force_simd_level).
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

  // ---- Lane-batched entries (Fft2D's forward and fused product transform) ----
  // Four transforms per call, one per Vec lane: element k of transform c is
  // the 8 doubles at d + (k * stride + c) * 8 (four real parts, then four
  // imaginary parts); m transforms sit side by side. A lane holds one field
  // (the product transform's column inverses), one grid row (the row r2c)
  // or one spectral column (the forward's column pass). Each lane repeats
  // the per-field entry's IEEE operations above, so it is bitwise that
  // result. The row entries write bit-reversed slots, so no row transform
  // runs a permutation pass.

  /// pass_first over n >= 4 points of m adjacent transforms (isign as
  /// pass_first).
  void (*lane_pass_first)(double* d, std::size_t n, std::size_t stride, std::size_t m,
                          double isign);
  /// pass_radix4 (any half >= 1).
  void (*lane_pass_radix4)(double* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const double* tw, const double* tw1);
  /// pass_radix2 (any half >= 1).
  void (*lane_pass_radix2)(double* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const double* tw);
  /// Rfft1D forward packing of four real rows x[0..4) of 2h samples: lane l
  /// of element j is (x[l][2j], x[l][2j + 1]), stored at element bitrev[j]
  /// of the contiguous row spec.
  void (*lane_rows_in)(const double* const* x, std::size_t h, const std::size_t* bitrev,
                       double* spec);
  /// Rfft1D forward combine of one contiguous row of h + 1 elements after
  /// the half-length transform: the bin-0 fold, rfft_pack's bins (fused in
  /// its vector body, unfused in its scalar remainder), the conj of bin h/2
  /// and the Nyquist bin h.
  void (*lane_rfft_pack)(double* spec, const double* w, std::size_t h);
  /// Moves one four-row batch's lane row spectrum (4 nb elements, lane r =
  /// row r) into nb column blocks (lane c = column 4b + c of block b): one
  /// 4x4 transpose of the real and of the imaginary parts per block. Rows
  /// r < nrows are written, row r to out + r * nb * 8.
  void (*lane_cols_in)(const double* spec, std::size_t nb, std::size_t nrows, double* out);
  /// De-interleaves one column-buffer row (lane c of block b = column
  /// 4b + c) into the first `cols` interleaved (re, im) bins at out.
  void (*lane_cols_out)(const double* row, std::size_t cols, double* out);
  /// Rfft1D inverse split of one contiguous row of h + 1 elements (bin-0
  /// fold, rfft_unpack's bins, conj of bin h/2), every element first scaled
  /// by pre_scale; element k of the result goes to element bitrev[k] of out
  /// (h elements), which the half-length transform then reads in place.
  void (*lane_rfft_unpack)(const double* spec, const double* w, std::size_t h, double pre_scale,
                           const std::size_t* bitrev, double* out);
  /// Scales h row elements by `scale` and writes lane l's (re, im) pairs to
  /// the 2h real samples out[l][0..2h).
  void (*lane_rows_out)(const double* spec, std::size_t h, double scale, double* const* out);
};

/// Kernel table for the given level; level must be available.
[[nodiscard]] const FftKernels& kernels_for(simd::SimdLevel level);

/// Table for the active level (detection + TURBDA_SIMD applied on first use).
[[nodiscard]] const FftKernels& active_kernels();

}  // namespace turbda::fft
