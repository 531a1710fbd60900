// Runtime-dispatched pointwise kernels for the SQG spectral passes.
//
// The SQG tendency spends its non-FFT time in four branch-free elementwise
// sweeps over packed half spectra (interleaved re/im doubles) and grid
// rows: the fused inversion + derivative pass, the grid-space Jacobian
// product, the linear-physics combine, and the RK4 stage/update combines
// (plus the integrating-factor hyperdiffusion multiply). Like the FFT and
// dense-kernel tables, each primitive is written once against the portable
// simd::Vec API (pointwise_kernels_impl.hpp) and instantiated per backend
// behind a table of function pointers keyed by the process-global
// simd::SimdLevel.
//
// Layout conventions:
//  - Spectral buffers are std::complex<double> arrays viewed as interleaved
//    (re, im) doubles; all lengths `nd` below are in DOUBLES (2x the bin
//    count). One Vec covers two complex bins. The SQG model sweeps one row
//    segment of the dealiased square per call (an even nd that need not
//    fill whole Vecs); the pair tails repeat the vector body's IEEE
//    operations, so a bin's result does not depend on where a call starts.
//  - Real per-bin coefficient tables (wavenumbers, inversion coefficients,
//    hyperdiffusion decay) are pre-duplicated per complex pair by the caller
//    (table2[2p] == table2[2p+1]), so every kernel is a straight-line
//    elementwise sweep with no in-register broadcasts from memory.
//  - Complex per-bin tables (the fused combine operators) are used in their
//    natural interleaved form.
//
// Determinism contract (same as the dense kernels): every kernel is purely
// elementwise — no reduction trees — so the Scalar and Avx2 tables are
// bitwise identical and results never depend on thread count. The Avx2Fma
// table contracts multiplies into FMAs.
#pragma once

#include <cstddef>

#include "simd/dispatch.hpp"

namespace turbda::simd {

struct PointwiseKernels {
  /// Fused SQG boundary inversion + derivative pass over one level's half
  /// spectrum. Per complex bin p (inputs interleaved, coefficients
  /// pair-duplicated):
  ///   ps  = ik * (t1 * ca - t0 * cb)        (streamfunction at this level)
  ///   duh = -i ky ps,  dvh = +i kx ps       (u = -psi_y, v = psi_x)
  ///   dtx = +i kx th,  dty = +i ky th       (theta gradients)
  /// An i*k multiply is a pair swap plus sign flips — exact bit operations,
  /// so the pass matches the scalar complex spelling bitwise (unfused).
  /// The four derivative spectra are stored lane-interleaved for
  /// Fft2D::product_half_pruned_lanes: bin p is the 8 doubles at
  /// lanes[8p..8p+7], the real parts of duh, dvh, dtx, dty, then their
  /// imaginary parts (nd doubles of ps, 4 nd doubles of lanes).
  void (*sqg_pass1)(double* ps, double* lanes, const double* t0, const double* t1,
                    const double* th, const double* ik2, const double* ca2, const double* cb2,
                    const double* kx2, const double* ky2, std::size_t nd);
  /// Grid-space advection product: gj[i] = gu[i]*gtx[i] + gv[i]*gty[i].
  /// The inputs come in pass 1's lane order (u, v, theta_x, theta_y), so
  /// the entry is an Fft2D::RowProduct; nd counts grid points.
  void (*sqg_jacobian)(double* gj, const double* gu, const double* gv, const double* gtx,
                       const double* gty, std::size_t nd);
  /// Linear-physics combine, complex per bin (operator tables interleaved):
  /// dth = op_t * th + op_p * ps - jc.
  void (*sqg_combine)(double* dth, const double* th, const double* ps, const double* jc,
                      const double* op_t, const double* op_p, std::size_t nd);
  /// s[i] *= d2[i] (pair-duplicated real decay; the hyperdiffusion multiply).
  void (*mul_inplace)(double* s, const double* d2, std::size_t nd);
  /// out[i] = x[i] + alpha * y[i] (the RK4 stage combine; out may alias x).
  void (*add_scaled)(double* out, const double* x, const double* y, std::size_t nd, double alpha);
  /// x[i] += c * (k1[i] + 2 k2[i] + 2 k3[i] + k4[i]) (the RK4 update).
  void (*rk4_update)(double* x, const double* k1, const double* k2, const double* k3,
                     const double* k4, std::size_t nd, double c);
};

/// Kernel table for the given level; level must be available.
[[nodiscard]] const PointwiseKernels& pointwise_kernels_for(SimdLevel level);

/// Table for the active level (detection + TURBDA_SIMD applied on first use).
[[nodiscard]] const PointwiseKernels& active_pointwise_kernels();

}  // namespace turbda::simd
