// Generic small-dense kernels over the portable simd::Vec API — one kernel
// text instantiated per backend (VecScalar in dense_kernels.cpp, VecAvx2 in
// dense_kernels_avx2.cpp) and per multiply-add mode (kFma).
//
// Each kernel vectorizes over independent output lanes and keeps any
// reduction sequential over the i index, so with kFma == false every
// element's value is the same fixed sequence of IEEE operations in every
// backend — the bitwise-determinism backbone of the LETKF analysis. Scalar
// tails use the same (fused or unfused) arithmetic as the vector body so an
// element's value never depends on which loop computed it across runs.
//
// TUs including this header are compiled with -ffp-contract=off and
// auto-vectorization off (see CMakeLists.txt).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "simd/vec.hpp"

namespace turbda::simd::detail {

template <class V, bool kFma>
void rot_rows_impl(double* p, double* q, std::size_t n, double c, double s) {
  const V vc = V::broadcast(c);
  const V vs = V::broadcast(s);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    const V a = V::loadu(p + i);
    const V b = V::loadu(q + i);
    const V np = V::template mul_sub<kFma>(vc, a, vs * b);
    const V nq = V::template mul_add<kFma>(vs, a, vc * b);
    np.storeu(p + i);
    nq.storeu(q + i);
  }
  for (; i < n; ++i) {
    const double a = p[i], b = q[i];
    if constexpr (kFma) {
      p[i] = std::fma(c, a, -(s * b));
      q[i] = std::fma(s, a, c * b);
    } else {
      p[i] = c * a - s * b;
      q[i] = s * a + c * b;
    }
  }
}

template <class V>
void scale_impl(double* out, const double* in, std::size_t n, double alpha) {
  const V va = V::broadcast(alpha);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) (va * V::loadu(in + i)).storeu(out + i);
  for (; i < n; ++i) out[i] = alpha * in[i];
}

// ---- Lane-batched kernels ----
//
// These flip the vectorization axis: each Vec lane carries one of kWidth
// independent problems over lane-interleaved SoA buffers (element e of
// problem l at ptr[e * kWidth + l]). Per lane, each kernel is a fixed IEEE
// operation sequence at a given kFma mode that never reads another lane, so
// Scalar == Avx2 bitwise and a lane's result never depends on its
// neighbours. Masks are built from IEEE comparisons and applied with
// bit-copying blends (select), never arithmetic, so a masked lane's bits
// are untouched.

template <class V, bool kFma>
void baccum_rows_impl(double* acc, const double* x, std::size_t ldx, const double* y,
                      std::size_t ldy, std::size_t k, std::size_t m) {
  constexpr std::size_t W = V::kWidth;
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    V a0 = V::loadu(acc + (j + 0) * W);
    V a1 = V::loadu(acc + (j + 1) * W);
    V a2 = V::loadu(acc + (j + 2) * W);
    V a3 = V::loadu(acc + (j + 3) * W);
    for (std::size_t i = 0; i < k; ++i) {
      const V xi = V::loadu(x + i * ldx * W);
      const double* yi = y + (i * ldy + j) * W;
      a0 = V::template mul_add<kFma>(xi, V::loadu(yi + 0 * W), a0);
      a1 = V::template mul_add<kFma>(xi, V::loadu(yi + 1 * W), a1);
      a2 = V::template mul_add<kFma>(xi, V::loadu(yi + 2 * W), a2);
      a3 = V::template mul_add<kFma>(xi, V::loadu(yi + 3 * W), a3);
    }
    a0.storeu(acc + (j + 0) * W);
    a1.storeu(acc + (j + 1) * W);
    a2.storeu(acc + (j + 2) * W);
    a3.storeu(acc + (j + 3) * W);
  }
  for (; j < m; ++j) {
    V a = V::loadu(acc + j * W);
    for (std::size_t i = 0; i < k; ++i)
      a = V::template mul_add<kFma>(V::loadu(x + i * ldx * W), V::loadu(y + (i * ldy + j) * W), a);
    a.storeu(acc + j * W);
  }
}

template <class V>
void bscale_impl(double* out, const double* in, std::size_t n, const double* alpha) {
  const V va = V::loadu(alpha);
  for (std::size_t j = 0; j < n; ++j) (va * V::loadu(in + j * V::kWidth)).storeu(out + j * V::kWidth);
}

template <class V, bool kFma>
void bscale_shift_impl(double* out, const double* in, std::size_t n, double alpha,
                       const double* shift) {
  const V va = V::broadcast(alpha);
  const V vsh = V::loadu(shift);
  for (std::size_t j = 0; j < n; ++j)
    V::template mul_add<kFma>(va, V::loadu(in + j * V::kWidth), vsh).storeu(out + j * V::kWidth);
}

template <class V, bool kFma>
void bjacobi_sweeps_impl(double* m, double* vt, std::size_t n, int max_sweeps,
                         const double* tol_sq, const double* skip_sq, int* sweeps, double* off_sq,
                         std::uint8_t* converged) {
  constexpr std::size_t W = V::kWidth;
  const V vtol = V::loadu(tol_sq);
  const V vskip = V::loadu(skip_sq);
  const V zero = V::broadcast(0.0);
  const V one = V::broadcast(1.0);
  const V two = V::broadcast(2.0);

  // Off-diagonal Frobenius norm squared per lane, accumulated in the same
  // p-major element order as the sequential solver's scalar loop.
  const auto off_diag_sq = [&]() {
    V off = zero;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) {
        const V e = V::loadu(m + (p * n + q) * W);
        off = off + e * e;
      }
    return off;
  };

  for (std::size_t l = 0; l < W; ++l) sweeps[l] = 0;
  V off = off_diag_sq();
  V active = V::cmp_gt(off, vtol);  // all-ones where a lane still iterates
  int done_sweeps = 0;
  while (active.movemask() != 0 && done_sweeps < max_sweeps) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* mpq = m + (p * n + q) * W;
        const V apq = V::loadu(mpq);
        // Rotate only lanes that are still active AND above the per-lane
        // skip threshold — the sequential "if (apq^2 <= skip_sq) continue".
        const V rot = V::and_(active, V::cmp_gt(apq * apq, vskip));
        if (rot.movemask() == 0) continue;
        const V app = V::loadu(m + (p * n + p) * W);
        const V aqq = V::loadu(m + (q * n + q) * W);
        // Masked lanes divide by a harmless 1 instead of a possibly-zero apq.
        const V apq_div = V::select(rot, apq, one);
        const V tau = (aqq - app) / (two * apq_div);
        const V root = V::sqrt(one + tau * tau);
        // Both tau-sign branches of the sequential solver, then a blend.
        const V t =
            V::select(V::cmp_ge(tau, zero), one / (tau + root), one / (tau - root));
        const V c = one / V::sqrt(one + t * t);
        const V s = t * c;
        // Rows p and q: the rot_rows arithmetic, blended per lane.
        double* rp = m + p * n * W;
        double* rq = m + q * n * W;
        for (std::size_t i = 0; i < n; ++i) {
          const V a = V::loadu(rp + i * W);
          const V b = V::loadu(rq + i * W);
          const V np = V::template mul_sub<kFma>(c, a, s * b);
          const V nq = V::template mul_add<kFma>(s, a, c * b);
          V::select(rot, np, a).storeu(rp + i * W);
          V::select(rot, nq, b).storeu(rq + i * W);
        }
        // Mirror rows into columns. The matrix is bit-exactly symmetric at
        // all times, so unconditional copies are no-ops for masked lanes.
        for (std::size_t i = 0; i < n; ++i) {
          if (i == p || i == q) continue;
          V::loadu(rp + i * W).storeu(m + (i * n + p) * W);
          V::loadu(rq + i * W).storeu(m + (i * n + q) * W);
        }
        // 2x2 pivot block closed form — plain unfused ops in the sequential
        // solver, so unfused here at every level.
        V::select(rot, app - t * apq, app).storeu(m + (p * n + p) * W);
        V::select(rot, aqq + t * apq, aqq).storeu(m + (q * n + q) * W);
        V::select(rot, zero, apq).storeu(mpq);
        V::loadu(mpq).storeu(m + (q * n + p) * W);
        // Accumulate the eigenvector rows with the same blended rotation.
        double* vp = vt + p * n * W;
        double* vq = vt + q * n * W;
        for (std::size_t i = 0; i < n; ++i) {
          const V a = V::loadu(vp + i * W);
          const V b = V::loadu(vq + i * W);
          const V np = V::template mul_sub<kFma>(c, a, s * b);
          const V nq = V::template mul_add<kFma>(s, a, c * b);
          V::select(rot, np, a).storeu(vp + i * W);
          V::select(rot, nq, b).storeu(vq + i * W);
        }
      }
    }
    ++done_sweeps;
    const int am = active.movemask();
    for (std::size_t l = 0; l < W; ++l) sweeps[l] += (am >> l) & 1;
    // Frozen lanes' matrices are unchanged, so recomputing everywhere
    // reproduces their previous residual bit-for-bit.
    off = off_diag_sq();
    active = V::and_(active, V::cmp_gt(off, vtol));
  }
  off.storeu(off_sq);
  const int am = active.movemask();
  for (std::size_t l = 0; l < W; ++l) converged[l] = ((am >> l) & 1) != 0 ? 0 : 1;
}

// ---- Contiguous elementwise helpers ----

template <class V, bool kFma>
void axpy_impl(double* out, const double* in, std::size_t n, double alpha) {
  const V va = V::broadcast(alpha);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth)
    V::template mul_add<kFma>(va, V::loadu(in + i), V::loadu(out + i)).storeu(out + i);
  for (; i < n; ++i) {
    if constexpr (kFma) {
      out[i] = std::fma(alpha, in[i], out[i]);
    } else {
      out[i] = alpha * in[i] + out[i];
    }
  }
}

template <class V>
void clamped_axpy_impl(double* out, const double* in, std::size_t n, double alpha, double lim) {
  const V va = V::broadcast(alpha);
  const V vlo = V::broadcast(-lim);
  const V vhi = V::broadcast(lim);
  std::size_t i = 0;
  for (; i + V::kWidth <= n; i += V::kWidth) {
    const V t = V::min(V::max(va * V::loadu(in + i), vlo), vhi);
    (V::loadu(out + i) + t).storeu(out + i);
  }
  for (; i < n; ++i) {
    double t = alpha * in[i];
    t = t > -lim ? t : -lim;  // vmaxpd semantics
    t = t < lim ? t : lim;    // vminpd semantics
    out[i] = out[i] + t;
  }
}

}  // namespace turbda::simd::detail
