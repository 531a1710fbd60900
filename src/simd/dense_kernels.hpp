// Runtime-dispatched small-dense kernels for the ensemble-space hot loops.
//
// The LETKF analysis, the Jacobi eigensolvers, every matrix product
// (tensor::gemm and the EnSF score products) and the EnSF member updates
// reduce to a few primitive loops over contiguous rows.
// Like the FFT tables, each primitive is written once against the portable
// simd::Vec API (dense_kernels_impl.hpp) and instantiated per backend behind
// a table of function pointers keyed by the process-global simd::SimdLevel.
//
// Determinism contract: every kernel vectorizes over independent output
// lanes and accumulates sequentially over the reduction index — no lane
// reduction trees — so the Scalar and Avx2 tables are bitwise identical,
// and results never depend on thread count. The Avx2Fma table contracts
// multiplies into FMAs (~1 ulp per accumulation step), except in
// matmul_rows and gaussian_pairs: they have no FMA variant, so all three
// tables give them the same bits.
//
// The lane-batched b* entries advance kLaneBatch independent problems in
// lockstep, one problem per Vec lane, over lane-interleaved
// structure-of-arrays buffers (logical element e of problem l lives at
// ptr[e * kLaneBatch + l]). Each lane runs a fixed IEEE operation sequence
// that never reads another lane, so a problem's result does not depend on
// what shares its batch, and every Vec op is fully occupied regardless of
// the problem size. bjacobi_sweeps reproduces the sequential jacobi_eigh
// (rot_rows) arithmetic per lane at every level, including the fused steps
// of the Avx2Fma table.
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

struct DenseKernels {
  /// Givens rotation of two contiguous rows:
  /// (p[i], q[i]) <- (c*p[i] - s*q[i], s*p[i] + c*q[i]).
  void (*rot_rows)(double* p, double* q, std::size_t n, double c, double s);
  /// out[i] = alpha * in[i].
  void (*scale)(double* out, const double* in, std::size_t n, double alpha);

  // ---- Lane-batched entries: kLaneBatch problems, lane-interleaved SoA ----

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
  /// the sequential jacobi_eigh arithmetic exactly. Outputs per lane: sweep
  /// count, final off-diagonal Frobenius norm squared, and a convergence
  /// flag (a lane that exhausts max_sweeps simply reports 0; policy is the
  /// caller's). Unused lanes: give them finite content (e.g. zeros) and an
  /// infinite tol_sq so they converge at entry and are never touched.
  void (*bjacobi_sweeps)(double* m, double* vt, std::size_t n, int max_sweeps,
                         const double* tol_sq, const double* skip_sq, int* sweeps,
                         double* off_sq, std::uint8_t* converged);

  // ---- Contiguous elementwise helpers (EnSF per-sample updates) ----

  /// out[i] += alpha * in[i].
  void (*axpy)(double* out, const double* in, std::size_t n, double alpha);
  /// out[i] += clamp(alpha * in[i], -lim, +lim), with vmaxpd/vminpd tie
  /// semantics in the clamp.
  void (*clamped_axpy)(double* out, const double* in, std::size_t n, double alpha, double lim);

  // ---- Row-major product (tensor::gemm, EnSF score logits and means) ----

  /// out = A B for `rows` rows of A (row stride lda) and a k x n B:
  /// out[i*n + c] = sum_p a[i*lda + p] * b[p*n + c]. Each element starts at
  /// +0.0 and adds the unfused products in ascending p; there is no FMA
  /// variant, so all three tables give the same bits.
  void (*matmul_rows)(double* out, const double* a, std::size_t lda, std::size_t rows,
                      const double* b, std::size_t k, std::size_t n);

  // ---- Gaussian noise (EnSF) ----

  /// 2 * pairs standard normals, one Box–Muller pair per Philox4x32-10
  /// block: block j has 64-bit counter block + j in words 0-1 and `stream`
  /// in words 2-3 under `key`, and gives (r cos, r sin) at out[2j],
  /// out[2j + 1]. These are the blocks and uniforms rng::Rng::gaussian
  /// reads; log and sincos are in-tree polynomials, so each value differs
  /// from it by a few ulp. rng::Rng::fill_gaussian_lanes is the caller.
  void (*gaussian_pairs)(double* out, std::size_t pairs, std::uint64_t block,
                         std::uint64_t stream, std::uint64_t key);
};

/// Kernel table for the given level; level must be available.
[[nodiscard]] const DenseKernels& dense_kernels_for(SimdLevel level);

/// Table for the active level (detection + TURBDA_SIMD applied on first use).
[[nodiscard]] const DenseKernels& active_dense_kernels();

}  // namespace turbda::simd
