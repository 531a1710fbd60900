// Dense linear algebra kernels for small symmetric systems.
//
// LETKF's analysis solves a min(p, m) x min(p, m) symmetric eigenproblem per
// column (m = ensemble size, 20 in the paper; p = local observations), for
// which cyclic Jacobi is simple, branch-predictable and accurate.
#pragma once

#include <span>
#include <vector>

#include "simd/kernels.hpp"
#include "tensor/tensor.hpp"

namespace turbda::tensor {

/// Convergence report from jacobi_eigh.
struct EighInfo {
  int sweeps = 0;        ///< cyclic sweeps actually performed
  double off_fro = 0.0;  ///< final off-diagonal Frobenius norm
  bool converged = false;
};

/// Symmetric eigendecomposition A = V diag(w) V^T by cyclic Jacobi rotations
/// with threshold skipping. `a` must be rank-2 square symmetric; returns
/// eigenvalues ascending in `w` and orthonormal eigenvectors as *columns* of
/// `v`. Converged when the off-diagonal Frobenius norm falls below 1e-14
/// times the matrix Frobenius norm; throws turbda::Error if that does not
/// happen within max_sweeps (fill `info` first, so callers that pass it can
/// inspect the residual). Rotations run through the runtime-dispatched
/// simd::Kernels row kernels, whose Scalar and Avx2 tables are bitwise
/// identical.
void jacobi_eigh(const Tensor& a, Tensor& v, std::vector<double>& w, int max_sweeps = 50,
                 EighInfo* info = nullptr);

/// Lane width of the batched eigensolver: problems advanced in lockstep by
/// one jacobi_eigh_batch call (== simd::kLaneBatch).
[[nodiscard]] std::size_t eigh_lane_width();

/// Reusable scratch for jacobi_eigh_batch (eigenvector rows + sort buffers);
/// pass the same instance across calls to avoid per-batch allocation.
struct EighBatchScratch {
  simd::LaneBuffer vt;
  std::vector<double> diag;
  std::vector<std::size_t> order;
};

/// Lane-batched symmetric eigendecomposition: nb (1 <= nb <=
/// eigh_lane_width()) independent n x n problems advance through the cyclic
/// Jacobi schedule in lockstep, one per SIMD lane. Buffers are
/// lane-interleaved structure-of-arrays with W = eigh_lane_width(): element
/// (i, j) of problem l sits at a_lanes[(i*n + j)*W + l] (destroyed on
/// return), eigenvector column entry (i, j) at v_lanes[(i*n + j)*W + l],
/// eigenvalue a at w_lanes[a*W + l] (ascending). Per lane the arithmetic is
/// the exact IEEE operation sequence of the sequential jacobi_eigh at the
/// same dispatch level, so each lane's output is bitwise identical to a
/// sequential solve of that problem. Unlike jacobi_eigh this never throws on
/// non-convergence: a lane that exhausts max_sweeps reports converged=false
/// in infos[l] and receives identity eigenvectors / unit eigenvalues —
/// fallback policy is the caller's.
void jacobi_eigh_batch(double* a_lanes, std::size_t n, std::size_t nb, double* v_lanes,
                       double* w_lanes, int max_sweeps = 50, EighInfo* infos = nullptr,
                       EighBatchScratch* scratch = nullptr);

/// Cholesky factorization A = L L^T (lower). Throws turbda::Error if A is not
/// positive definite.
[[nodiscard]] Tensor cholesky(const Tensor& a);

/// Solves A x = b with A symmetric positive definite via Cholesky.
[[nodiscard]] std::vector<double> spd_solve(const Tensor& a, std::span<const double> b);

}  // namespace turbda::tensor
