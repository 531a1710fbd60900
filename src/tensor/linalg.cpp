#include "tensor/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "simd/kernels.hpp"

namespace turbda::tensor {

namespace {

/// Sum of squared strictly-upper-triangle elements.
double off_diag_sq(const Tensor& m, std::size_t n) {
  double off = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = p + 1; q < n; ++q) off += m(p, q) * m(p, q);
  return off;
}

}  // namespace

void jacobi_eigh(const Tensor& a, Tensor& v, std::vector<double>& w, int max_sweeps,
                 EighInfo* info) {
  TURBDA_REQUIRE(a.rank() == 2 && a.extent(0) == a.extent(1), "jacobi_eigh: square matrix");
  const std::size_t n = a.extent(0);
  Tensor m = a;  // working copy
  // Eigenvectors are accumulated transposed (rows instead of columns) so
  // every rotation is two contiguous-row updates through the SIMD row
  // kernels; the extraction below transposes back to the column convention.
  Tensor vt({n, n});
  for (std::size_t i = 0; i < n; ++i) vt(i, i) = 1.0;
  const auto& dk = simd::active_kernels();

  // Relative convergence: off-diagonal Frobenius norm below 1e-14 of the
  // matrix norm. The per-rotation skip threshold is sized so that a sweep
  // skipping every pair has provably converged (n(n-1)/2 pairs each below
  // tol_sq / (n(n-1)) sum to at most tol_sq / 2).
  double fro_sq = 0.0;
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t q = 0; q < n; ++q) fro_sq += m(p, q) * m(p, q);
  const double tol_sq = 1e-28 * fro_sq;
  const double skip_sq = n > 1 ? tol_sq / static_cast<double>(n * (n - 1)) : 0.0;

  int sweeps_used = 0;
  double off_sq = off_diag_sq(m, n);
  bool converged = off_sq <= tol_sq;
  while (!converged && sweeps_used < max_sweeps) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (apq * apq <= skip_sq) continue;
        const double app = m(p, p), aqq = m(q, q);
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0) ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                      : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        // Two-sided rotation: rotate rows p and q contiguously, then mirror
        // them into columns p and q — valid because the pre-rotation matrix
        // is symmetric, so (G^T M G)(i, p) for i outside {p, q} equals the
        // row-rotated M(p, i). The 2x2 pivot block has the closed form
        // app' = app - t*apq, aqq' = aqq + t*apq, apq' = 0.
        double* rp = &m(p, 0);
        double* rq = &m(q, 0);
        dk.rot_rows(rp, rq, n, c, s);
        for (std::size_t i = 0; i < n; ++i) {
          if (i == p || i == q) continue;
          m(i, p) = rp[i];
          m(i, q) = rq[i];
        }
        m(p, p) = app - t * apq;
        m(q, q) = aqq + t * apq;
        m(p, q) = 0.0;
        m(q, p) = 0.0;
        // Accumulate eigenvectors (rows of vt).
        dk.rot_rows(&vt(p, 0), &vt(q, 0), n, c, s);
      }
    }
    ++sweeps_used;
    off_sq = off_diag_sq(m, n);
    converged = off_sq <= tol_sq;
  }
  if (info != nullptr) {
    info->sweeps = sweeps_used;
    info->off_fro = std::sqrt(off_sq);
    info->converged = converged;
  }
  TURBDA_REQUIRE(converged, "jacobi_eigh: not converged after "
                                << sweeps_used << " sweeps (off-diagonal Frobenius "
                                << std::sqrt(off_sq) << ", matrix Frobenius "
                                << std::sqrt(fro_sq) << ")");

  // Extract and sort eigenvalues ascending, permuting eigenvector columns
  // (vt rows transpose back into v columns).
  w.resize(n);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = 0; i < n; ++i) w[i] = m(i, i);
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) { return w[i] < w[j]; });
  std::vector<double> ws(n);
  Tensor vs({n, n});
  for (std::size_t j = 0; j < n; ++j) {
    ws[j] = w[order[j]];
    for (std::size_t i = 0; i < n; ++i) vs(i, j) = vt(order[j], i);
  }
  w = std::move(ws);
  v = std::move(vs);
}

std::size_t eigh_lane_width() { return simd::kLaneBatch; }

void jacobi_eigh_batch(double* a_lanes, std::size_t n, std::size_t nb, double* v_lanes,
                       double* w_lanes, int max_sweeps, EighInfo* infos,
                       EighBatchScratch* scratch) {
  constexpr std::size_t W = simd::kLaneBatch;
  TURBDA_REQUIRE(nb >= 1 && nb <= W, "jacobi_eigh_batch: lane count " << nb << " out of range");
  const auto& dk = simd::active_kernels();

  // Unused lanes: finite content plus an infinite tolerance makes them
  // converge at the entry check, so the sweep kernel never rotates them.
  for (std::size_t e = 0; e < n * n; ++e)
    for (std::size_t l = nb; l < W; ++l) a_lanes[e * W + l] = 0.0;

  EighBatchScratch local;
  EighBatchScratch& sc = scratch != nullptr ? *scratch : local;
  sc.vt.assign(n * n * W, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t l = 0; l < W; ++l) sc.vt[(i * n + i) * W + l] = 1.0;

  // Per-lane thresholds, accumulated in the same plain-scalar order as the
  // sequential solver's fro_sq loop.
  double tol_sq[W], skip_sq[W], off_sq[W];
  int sweeps[W];
  std::uint8_t conv[W];
  for (std::size_t l = 0; l < W; ++l) {
    if (l >= nb) {
      tol_sq[l] = std::numeric_limits<double>::infinity();
      skip_sq[l] = 0.0;
      continue;
    }
    double fro_sq = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = 0; q < n; ++q) {
        const double e = a_lanes[(p * n + q) * W + l];
        fro_sq += e * e;
      }
    tol_sq[l] = 1e-28 * fro_sq;
    skip_sq[l] = n > 1 ? tol_sq[l] / static_cast<double>(n * (n - 1)) : 0.0;
  }

  dk.bjacobi_sweeps(a_lanes, sc.vt.data(), n, max_sweeps, tol_sq, skip_sq, sweeps, off_sq, conv);

  if (infos != nullptr)
    for (std::size_t l = 0; l < nb; ++l)
      infos[l] = EighInfo{sweeps[l], std::sqrt(off_sq[l]), conv[l] != 0};

  // Per-lane extraction — the exact sort-and-transpose epilogue of the
  // sequential solver. Non-converged lanes get a well-defined benign result
  // (unit eigenvalues, identity vectors) instead of half-rotated garbage.
  sc.diag.resize(n);
  sc.order.resize(n);
  for (std::size_t l = 0; l < nb; ++l) {
    if (conv[l] == 0) {
      for (std::size_t j = 0; j < n; ++j) {
        w_lanes[j * W + l] = 1.0;
        for (std::size_t i = 0; i < n; ++i) v_lanes[(i * n + j) * W + l] = i == j ? 1.0 : 0.0;
      }
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) sc.diag[i] = a_lanes[(i * n + i) * W + l];
    std::iota(sc.order.begin(), sc.order.end(), std::size_t{0});
    std::sort(sc.order.begin(), sc.order.end(),
              [&](std::size_t i, std::size_t j) { return sc.diag[i] < sc.diag[j]; });
    for (std::size_t j = 0; j < n; ++j) {
      w_lanes[j * W + l] = sc.diag[sc.order[j]];
      for (std::size_t i = 0; i < n; ++i)
        v_lanes[(i * n + j) * W + l] = sc.vt[(sc.order[j] * n + i) * W + l];
    }
  }
}

Tensor cholesky(const Tensor& a) {
  TURBDA_REQUIRE(a.rank() == 2 && a.extent(0) == a.extent(1), "cholesky: square matrix");
  const std::size_t n = a.extent(0);
  Tensor l({n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        TURBDA_REQUIRE(s > 0.0, "cholesky: matrix not positive definite (pivot " << s << ")");
        l(i, i) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

std::vector<double> spd_solve(const Tensor& a, std::span<const double> b) {
  const Tensor l = cholesky(a);
  const std::size_t n = l.extent(0);
  TURBDA_REQUIRE(b.size() == n, "spd_solve: rhs size mismatch");
  std::vector<double> y(n), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

}  // namespace turbda::tensor
