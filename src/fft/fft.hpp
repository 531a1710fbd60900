// Fast Fourier transforms for the spectral SQG solver.
//
// Iterative radix-2 Cooley–Tukey with per-stage contiguous twiddle tables and
// specialized length-2/4 stages (power-of-two sizes; the paper's grids are
// 64, 128, 256). Real grids go through a half-spectrum real transform: an
// n-point r2c/c2r costs one n/2-point complex FFT plus an O(n) Hermitian
// (un)packing pass — half the flops and memory traffic of the complex round
// trip. A real 2-D field has one spectral layout, the packed half spectrum
// (Fft2D); the 1-D plans Fft1D and Rfft1D are its plan details and have no
// public transform.
//
// Every transform runs on SIMD lanes (layout in simd/kernels.hpp). The
// forward takes the rows through the r2c four at a time, one row per lane,
// each sample stored straight into its bit-reversed slot; one 4x4 transpose
// per column block moves the retained columns into a compact buffer, four
// columns per lane batch, where they transform in place; one widening
// de-interleaving store writes the spectrum. The inverse transforms the
// retained columns in place down their stride, then every four spectrum rows
// go through the lane c2r side by side. The per-field inverse carries its
// field in lane 0 and widens lane 0's rows into the grid; the fused product
// transform (Fft2D::product_half_pruned_lanes) carries four fields, one per
// lane, and multiplies each grid row's four fields straight into the
// forward's lane r2c, so it never stores a grid.
//
// Precision: every transform computes in single precision, one lane element
// per 8-float register, with twiddles rounded once from double; it takes and
// returns double grids and spectra. Its bits are the same at the scalar and
// avx2 levels and at every thread count; against the double definitions it
// differs by float rounding (test-enforced: the forward within 1e-6 of the
// largest bin, the inverse within 1e-6 of the largest grid value, the product
// within 1.5e-6 of the largest bin).
// All transforms run on the calling thread (callers parallelize across
// independent fields, e.g. ensemble members, never inside one transform).
// Convention matches numpy: forward unnormalized, inverse carries the 1/N
// factor — so does the sqgturb reference implementation the paper follows.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "simd/kernels.hpp"

namespace turbda::fft {

using Cplx = std::complex<double>;

/// 1-D complex FFT plan of fixed power-of-two length: Fft2D's column
/// transform and Rfft1D's half-length transform.
class Fft1D {
 public:
  explicit Fft1D(std::size_t n);

 private:
  friend class Rfft1D;
  friend class Fft2D;

  /// Unnormalized single-precision transforms of m adjacent lane-batched
  /// transforms (layout in simd/kernels.hpp) whose points sit in natural
  /// order: the bit-reversal swaps, then stages_lanes. The inverse's caller
  /// applies the 1/n factor.
  void transform_lanes(float* d, std::size_t stride, std::size_t m, bool inverse) const;
  /// The butterfly stages alone, on lane-batched points already in
  /// bit-reversed order: lengths 2 and 4 fused, then fused radix-2² pairs,
  /// then the odd stage.
  void stages_lanes(float* d, std::size_t stride, std::size_t m, bool inverse) const;

  std::size_t n_;
  int log2n_;
  std::vector<std::size_t> bitrev_;
  // Per-stage twiddles for stage lengths >= 8, contiguous per stage and
  // interleaved (re, im) floats: lane_fwd_[s][k] = exp(-2πi k / 2^s),
  // k < 2^(s-1), rounded once from double; lane_inv_ holds their conjugates.
  // Stages 1 and 2 (butterfly lengths 2 and 4) use exact ±1/±i factors and
  // carry no tables.
  std::vector<std::vector<float>> lane_fwd_, lane_inv_;
};

/// 1-D real-to-complex / complex-to-real FFT plan (half-spectrum, Hermitian
/// packing): Fft2D's row transform. Length must be an even power of two
/// (>= 2); odd sizes are rejected. A row's spectrum holds the n/2 + 1
/// non-redundant bins X[0..n/2]; the remaining bins of the full transform
/// follow from X[n-k] = conj(X[k]).
class Rfft1D {
 public:
  explicit Rfft1D(std::size_t n);

 private:
  friend class Fft2D;

  /// Forward r2c (unnormalized) in single precision on four rows at once,
  /// one per lane: x[l] holds n samples, and `spec` receives the h + 1 bins
  /// as one contiguous lane-batched row.
  void forward_lanes(const float* const* x, float* spec) const;
  /// Inverse c2r with the 1/n factor, scaled by pre_scale, in single
  /// precision on `count` <= 4 lane-batched rows (row r at spec + r * rs
  /// floats) of which only elements k < cols are read (the rest count as
  /// +0, so a row may hold just those cols elements). `spec` is only
  /// read; `work` (4 h elements) holds the count half-length transforms side
  /// by side, run by one stage sequence; lane l of row r goes to
  /// x[4 r + l][0..n).
  void inverse_lanes(const float* spec, std::size_t rs, std::size_t count, std::size_t cols,
                     float pre_scale, float* work, float* const* x) const;

  std::size_t n_, h_;  // h_ = n/2
  Fft1D half_;
  std::vector<float> lane_w_;  // exp(-2πi k / n), k <= n/4, in float, interleaved (re, im)
};

/// 2-D real FFT plan over row-major (n0 x n1) grids, n0 a power of two and
/// n1 an even power of two (>= 2). The spectrum is the packed non-redundant
/// half spectrum: row-major n0 x (n1/2 + 1), where bin (i, j) holds
/// wavenumber (my, mx) with my = i for i <= n0/2 else i - n0, and mx = j >= 0.
/// The mirrored bins follow from X(-my, -mx) = conj(X(my, mx)). The SQG
/// solver stores its state in this layout.
///
/// The *_pruned variants additionally exploit a square spectral truncation
/// |mx| <= kcut, |my| <= kcut (the SQG 2/3 dealias rule): the forward computes
/// only the retained bins and writes exact zeros elsewhere (the truncation
/// comes for free), the inverse never reads a bin outside the square and
/// skips the column transforms of the truncated columns. Both skip roughly a
/// third of the butterfly work at kcut = n/3.
class Fft2D {
 public:
  Fft2D(std::size_t n0, std::size_t n1);

  [[nodiscard]] std::size_t rows() const { return n0_; }
  [[nodiscard]] std::size_t cols() const { return n1_; }

  /// Packed half-spectrum shape: n0 x (n1/2 + 1).
  [[nodiscard]] std::size_t half_cols() const { return n1_ / 2 + 1; }
  [[nodiscard]] std::size_t half_size() const { return n0_ * half_cols(); }

  /// Real grid -> packed half spectrum (n0 x (n1/2+1), layout above).
  void forward_half(std::span<const double> grid, std::span<Cplx> hspec) const;

  /// Packed half spectrum -> real grid. `hspec` must be the half spectrum of
  /// a real field, possibly scaled by real or conjugate-symmetric spectral
  /// factors; `hspec` is not modified. Runs on the single-precision lanes:
  /// the bins are rounded to float on entry.
  void inverse_half(std::span<const Cplx> hspec, std::span<double> grid) const;

  /// As forward_half, but computes only the bins with |mx| <= kcut and
  /// |my| <= kcut and writes exact zeros to the rest — the column transforms
  /// of the truncated bins are skipped entirely. Both run on the single-
  /// precision lanes: the grid rows are rounded to float on entry.
  void forward_half_pruned(std::span<const double> grid, std::span<Cplx> hspec,
                           std::size_t kcut) const;

  /// inverse_half of hspec truncated to the |mx| <= kcut, |my| <= kcut
  /// square: bins outside it are never read, whatever they hold, and the
  /// column transforms of mx > kcut are skipped entirely.
  void inverse_half_pruned(std::span<const Cplx> hspec, std::span<double> grid,
                           std::size_t kcut) const;

  /// Pointwise product of four float grid rows in lane order:
  /// out[x] = f(r0[x], r1[x], r2[x], r3[x]) for x < n.
  using RowProduct = void (*)(float* out, const float* r0, const float* r1, const float* r2,
                              const float* r3, std::size_t n);

  /// forward_half_pruned(P, hspec, kcut) of the grid P = row_product(g0, g1,
  /// g2, g3), where g_l = inverse_half_pruned(spectrum l, kcut), without
  /// storing any grid, in single precision. `lanes` holds the four half
  /// spectra lane-interleaved: bin (i, j) is the 8 floats at
  /// lanes[8 (i half_cols() + j)], the real parts of spectra 0..3, then
  /// their imaginary parts (simd::FloatLaneBuffer keeps each bin in one
  /// 32-byte block). The four column inverses run in lockstep, one per SIMD
  /// lane; then each grid row is inverted and multiplied, and every four
  /// product rows enter the forward's lane r2c. Bins with mx > kcut are
  /// never read; the retained columns' bins with |my| > kcut must be ±0
  /// (the SQG tendency writes +0 there); `lanes` is consumed as scratch.
  void product_half_pruned_lanes(std::span<float> lanes, RowProduct row_product,
                                 std::span<Cplx> hspec, std::size_t kcut) const;

 private:
  /// The one forward: rows(i0, nrows, x) points x[0..nrows) at float grid
  /// rows i0.. (nrows = 4, fewer only when n0 < 4); they go through the lane
  /// r2c four at a time, their retained columns into the compact column
  /// buffer, and after the column pass hspec receives the retained bins,
  /// widened to double, and exact +0 everywhere else.
  template <class Rows>
  void forward_lanes(Rows&& rows, std::span<Cplx> hspec, std::size_t kcut) const;

  /// Transforms `count` lane-batched columns of n0 points (stride `stride`
  /// elements, side by side at d) in place, four per kernel call, skipping
  /// every group of four whose entries are all ±0.
  void column_lanes(float* d, std::size_t stride, std::size_t count, bool inverse) const;

  std::size_t n0_, n1_;
  Fft1D col_;
  Rfft1D rrow_;
};

}  // namespace turbda::fft
