// Runtime-dispatched SIMD kernels: one table of function pointers for every
// vectorized hot loop in the tree, in three sections: the FFT butterflies
// (fft/simd_kernels_impl.hpp), the small-dense kernels of the LETKF, the
// eigensolvers, every matrix product and the EnSF updates and noise
// (simd/dense_kernels_impl.hpp), and the SQG tendency's pointwise sweeps
// (simd/pointwise_kernels_impl.hpp). Each loop is written once against the
// portable simd::Vec API and listed once in kernel_table.hpp. kernels.cpp
// instantiates that list with VecScalar, kernels_avx2.cpp with VecAvx2
// unfused and fused, and kernels_for() picks the table for a
// simd::SimdLevel (see dispatch.hpp for level semantics, TURBDA_SIMD and
// force_simd_level).
//
// Determinism contract:
//  - Every kernel vectorizes over independent output lanes and accumulates
//    sequentially over any reduction index, with no lane reduction trees,
//    and its scalar tails repeat the vector body's IEEE operations. So the
//    Scalar and Avx2 tables are bitwise identical, and results never depend
//    on thread count or on where a vector loop ends.
//  - The Avx2Fma table contracts multiplies into fused multiply-adds (one
//    rounding instead of two, ~1 ulp per operation). An entry without an FMA
//    variant gives the same bits in all three tables: lane_pass_first, the
//    lane data movers (lane_rows_in/out, lane_cols_in/out), bscale,
//    matmul_rows, matmul_rows_f32, gaussian_pairs and mul_inplace.
//  - Precision: the nine FFT entries, sqg_jacobian and matmul_rows_f32
//    compute in float, sqg_pass1 computes in double and stores float,
//    gaussian_pairs computes its uniforms and argument reductions exactly in
//    double and its log, sqrt and sin/cos in float, and every other entry
//    computes in double. The float entries are bitwise across levels like
//    the rest; against the double arithmetic of their definitions they
//    differ by float rounding (the README's FFT and EnSF sections give the
//    measured bounds).
//  - Bitwise agreement between two code paths (two levels, or two
//    instantiations of one kernel) holds only up to NaN payloads wherever
//    two NaNs meet: an add or multiply of two NaNs returns one operand's
//    payload, and the compiler may commute the operands. Tests that feed
//    NaN therefore compare NaN positions, not payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "simd/dispatch.hpp"

namespace turbda::simd {

/// Problems per lane-batched kernel call (== Vec::kWidth of both backends).
inline constexpr std::size_t kLaneBatch = 4;

/// Allocator for lane-interleaved SoA buffers: 64-byte alignment keeps every
/// logical element (kLaneBatch doubles, one Vec) inside one cache line, so
/// no lane-batched load or store is split across lines whatever the heap
/// layout happens to be.
template <class T>
struct LaneAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  LaneAllocator() = default;
  template <class U>
  constexpr LaneAllocator(const LaneAllocator<U>& /*other*/) noexcept {}
  T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T), kAlign)); }
  void deallocate(T* p, std::size_t /*n*/) noexcept { ::operator delete(p, kAlign); }
  friend bool operator==(const LaneAllocator&, const LaneAllocator&) { return true; }
};

/// Lane-interleaved SoA buffer (element e of problem l at buf[e * kLaneBatch + l]).
using LaneBuffer = std::vector<double, LaneAllocator<double>>;
/// The single-precision lane buffer of the FFT lane entries (one element,
/// 2 * kLaneBatch floats, per 32 bytes).
using FloatLaneBuffer = std::vector<float, LaneAllocator<float>>;

struct Kernels {
  // ---- FFT butterflies (Fft1D, Rfft1D, Fft2D) ----
  // Lane-batched, in single precision. Four transforms per call, one per
  // lane: element k of transform c is the 8 floats at d + (k * stride + c) *
  // 8 (four real parts, then four imaginary parts), one V::F32 register; m
  // transforms sit side by side. A lane holds one field (the column inverses:
  // the fused product transform's four fields, or the per-field inverse's
  // one field in lane 0), one grid row (the row r2c/c2r) or one spectral
  // column (the forward's column pass). Twiddle tables are interleaved
  // (re, im) floats, rounded once from double. Each entry runs one fixed
  // sequence of float operations per lane, so the Scalar and Avx2 tables
  // give the same bits; they approximate the double definitions to float
  // precision (the README's FFT section gives the measured error). The row
  // entries write bit-reversed slots, so no row transform runs a
  // permutation pass.

  /// Stages of length 2 and 4 over n >= 4 points of m adjacent transforms;
  /// isign = -1 forward, +1 inverse.
  void (*lane_pass_first)(float* d, std::size_t n, std::size_t stride, std::size_t m,
                          float isign);
  /// Fused radix-2² pass (stages s and s+1), any half >= 1.
  void (*lane_pass_radix4)(float* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const float* tw, const float* tw1);
  /// Single radix-2 pass (the odd remaining stage), any half >= 1.
  void (*lane_pass_radix2)(float* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const float* tw);
  /// Rfft1D forward packing of four real rows x[0..4) of 2h samples: lane l
  /// of element j is (x[l][2j], x[l][2j + 1]), stored at element bitrev[j]
  /// of the contiguous row spec.
  void (*lane_rows_in)(const float* const* x, std::size_t h, const std::size_t* bitrev,
                       float* spec);
  /// Rfft1D forward combine of one contiguous row of h + 1 elements after
  /// the half-length transform: the bin-0 fold, the Hermitian combine of
  /// bins k and h-k, the conj of bin h/2 and the Nyquist bin h.
  void (*lane_rfft_pack)(float* spec, const float* w, std::size_t h);
  /// Moves one four-row batch's lane row spectrum (4 nb elements, lane r =
  /// row r) into nb column blocks (lane c = column 4b + c of block b): one
  /// in-half 4x4 transpose per block. Rows r < nrows are written, row r to
  /// out + r * nb * 8.
  void (*lane_cols_in)(const float* spec, std::size_t nb, std::size_t nrows, float* out);
  /// Widens one column-buffer row (lane c of block b = column 4b + c) into
  /// the first `cols` interleaved (re, im) double bins at out.
  void (*lane_cols_out)(const float* row, std::size_t cols, double* out);
  /// Rfft1D inverse split of one contiguous row of h + 1 elements, scaled by
  /// pre_scale (bin-0 fold, the Hermitian split of bins k and h-k, conj of
  /// bin h/2); elements k >= cols read as +0 and are never loaded. Element
  /// k of the result goes to element bitrev[k] * stride of out, where the
  /// half-length transform then reads it in place.
  void (*lane_rfft_unpack)(const float* spec, const float* w, std::size_t h, std::size_t cols,
                           float pre_scale, const std::size_t* bitrev, std::size_t stride,
                           float* out);
  /// Writes lane l's (re, im) pairs of h row elements (element j at
  /// spec + j * stride * 8) to the 2h real samples out[l][0..2h).
  void (*lane_rows_out)(const float* spec, std::size_t stride, std::size_t h,
                        float* const* out);

  // ---- Small dense (LETKF, eigensolvers, products, EnSF) ----

  /// Givens rotation of two contiguous rows:
  /// (p[i], q[i]) <- (c*p[i] - s*q[i], s*p[i] + c*q[i]).
  void (*rot_rows)(double* p, double* q, std::size_t n, double c, double s);

  // Lane-batched dense entries: kLaneBatch independent problems advance in
  // lockstep, one per Vec lane, over lane-interleaved structure-of-arrays
  // buffers (logical element e of problem l lives at ptr[e * kLaneBatch +
  // l]). Each lane runs a fixed IEEE operation sequence that never reads
  // another lane, so a problem's result does not depend on what shares its
  // batch, and every Vec op is fully occupied regardless of the problem
  // size.

  /// Rank-k row accumulation, per problem l: acc[j] += sum_i x[i*ldx] *
  /// y[i*ldy+j] for j in [0, m), sequential over i. ldx/ldy/k/m count
  /// logical elements (byte strides are kLaneBatch times larger). One Vec
  /// op per logical element, fully occupied for any row length m.
  void (*baccum_rows)(double* acc, const double* x, std::size_t ldx, const double* y,
                      std::size_t ldy, std::size_t k, std::size_t m);
  /// Lane-batched scale with a per-lane factor: out[j] = alpha[lane]*in[j].
  void (*bscale)(double* out, const double* in, std::size_t n, const double* alpha);
  /// Lane-batched scale-and-shift with a shared factor and a per-lane shift:
  /// out[j] = shift[lane] + alpha*in[j] (fused under Avx2Fma).
  void (*bscale_shift)(double* out, const double* in, std::size_t n, double alpha,
                       const double* shift);
  /// Masked lane-batched cyclic-by-rows Jacobi sweep loop: kLaneBatch
  /// symmetric n x n problems (lane-interleaved in `m`, eigenvector rows
  /// accumulated into `vt`, pre-seeded to per-lane identity) advance through
  /// the data-independent rotation schedule in lockstep. Per-lane skip and
  /// convergence masks (thresholds tol_sq/skip_sq per lane) blend each
  /// lane's values bit-unchanged once it is done, so every lane reproduces
  /// the sequential jacobi_eigh (rot_rows) arithmetic exactly at every
  /// level, the fused steps of the Avx2Fma table included. Outputs per
  /// lane: sweep count, final off-diagonal Frobenius norm squared, and a
  /// convergence flag (a lane that exhausts max_sweeps simply reports 0;
  /// policy is the caller's). Unused lanes: give them finite content (e.g.
  /// zeros) and an infinite tol_sq so they converge at entry and are never
  /// touched.
  void (*bjacobi_sweeps)(double* m, double* vt, std::size_t n, int max_sweeps,
                         const double* tol_sq, const double* skip_sq, int* sweeps,
                         double* off_sq, std::uint8_t* converged);

  /// EnSF's Euler–Maruyama update of one sample, per element:
  ///   z = c0 z;  z += c1 wx;  z += clamp(cl grad, -lim, +lim);
  ///   z += noise_sd noise,
  /// the two scaled adds fused under Avx2Fma (add_scaled's arithmetic), the
  /// clamp with vmaxpd/vminpd tie semantics.
  void (*ensf_update)(double* z, const double* wx, const double* grad, const double* noise,
                      std::size_t n, double c0, double c1, double cl, double lim,
                      double noise_sd);

  /// Row-major product (tensor::gemm, EnSF score logits): out = A B for
  /// `rows` rows of A (row stride lda) and a k x n B:
  /// out[i*n + c] = sum_p a[i*lda + p] * b[p*n + c]. Each element starts at
  /// +0.0 and adds the unfused products in ascending p.
  void (*matmul_rows)(double* out, const double* a, std::size_t lda, std::size_t rows,
                      const double* b, std::size_t k, std::size_t n);
  /// matmul_rows on float A and B (EnSF's weighted mean W X): the same sum
  /// in float, widened to double on store.
  void (*matmul_rows_f32)(double* out, const float* a, std::size_t lda, std::size_t rows,
                          const float* b, std::size_t k, std::size_t n);

  /// Gaussian noise (EnSF): 2 * pairs standard normals, one Box–Muller pair
  /// per Philox4x32-10 block: block j has 64-bit counter block + j in words
  /// 0-1 and `stream` in words 2-3 under `key`, and gives (r cos, r sin) at
  /// out[2j], out[2j + 1]. These are the blocks and uniforms
  /// rng::Rng::gaussian reads; r, cos and sin are computed in float, so
  /// each value is the reference's at float precision (README, "EnSF
  /// analysis", gives the measured bound). rng::Rng::fill_gaussian_lanes is
  /// the caller.
  void (*gaussian_pairs)(double* out, std::size_t pairs, std::uint64_t block,
                         std::uint64_t stream, std::uint64_t key);

  // ---- SQG pointwise (the tendency and RK4 step) ----
  // Spectral buffers are std::complex<double> arrays viewed as interleaved
  // (re, im) doubles; all lengths `nd` below are in DOUBLES (2x the bin
  // count). One Vec covers two complex bins. The SQG model sweeps one row
  // segment of the dealiased square per call (an even nd that need not fill
  // whole Vecs). Real per-bin coefficient tables (wavenumbers, inversion
  // coefficients, hyperdiffusion decay) are pre-duplicated per complex pair
  // by the caller (table2[2p] == table2[2p+1]), so every entry is a
  // straight-line elementwise sweep with no in-register broadcasts from
  // memory; complex per-bin tables (the fused combine operators) are used in
  // their natural interleaved form.

  /// Fused SQG boundary inversion + derivative pass over one level's half
  /// spectrum. Per complex bin p (inputs interleaved, coefficients
  /// pair-duplicated):
  ///   ps  = ik * (t1 * ca - t0 * cb)        (streamfunction at this level)
  ///   duh = -i ky ps,  dvh = +i kx ps       (u = -psi_y, v = psi_x)
  ///   dtx = +i kx th,  dty = +i ky th       (theta gradients)
  /// An i*k multiply is a pair swap plus sign flips — exact bit operations,
  /// so the pass matches the scalar complex spelling bitwise (unfused).
  /// The four derivative spectra are computed in double and stored
  /// lane-interleaved, rounded to float, for
  /// Fft2D::product_half_pruned_lanes: bin p is the 8 floats at
  /// lanes[8p..8p+7], the real parts of duh, dvh, dtx, dty, then their
  /// imaginary parts (nd doubles of ps, 4 nd floats of lanes).
  void (*sqg_pass1)(double* ps, float* lanes, const double* t0, const double* t1,
                    const double* th, const double* ik2, const double* ca2, const double* cb2,
                    const double* kx2, const double* ky2, std::size_t nd);
  /// Grid-space advection product, in float on one grid row:
  /// gj[i] = gu[i]*gtx[i] + gv[i]*gty[i]. The inputs come in pass 1's lane
  /// order (u, v, theta_x, theta_y), so the entry is an Fft2D::RowProduct;
  /// n counts grid points.
  void (*sqg_jacobian)(float* gj, const float* gu, const float* gv, const float* gtx,
                       const float* gty, std::size_t n);
  /// Linear-physics combine, complex per bin (operator tables interleaved):
  /// dth = op_t * th + op_p * ps - jc.
  void (*sqg_combine)(double* dth, const double* th, const double* ps, const double* jc,
                      const double* op_t, const double* op_p, std::size_t nd);
  /// s[i] *= d2[i] (pair-duplicated real decay; the hyperdiffusion multiply).
  void (*mul_inplace)(double* s, const double* d2, std::size_t nd);
  /// out[i] = x[i] + alpha * y[i] (the RK4 stage combine and EnSF's
  /// per-sample update; out may alias x).
  void (*add_scaled)(double* out, const double* x, const double* y, std::size_t nd, double alpha);
  /// x[i] += c * (k1[i] + 2 k2[i] + 2 k3[i] + k4[i]) (the RK4 update).
  void (*rk4_update)(double* x, const double* k1, const double* k2, const double* k3,
                     const double* k4, std::size_t nd, double c);
};

/// Kernel table for the given level; level must be available.
[[nodiscard]] const Kernels& kernels_for(SimdLevel level);

/// Table for the active level (detection + TURBDA_SIMD applied on first use).
[[nodiscard]] const Kernels& active_kernels();

}  // namespace turbda::simd
