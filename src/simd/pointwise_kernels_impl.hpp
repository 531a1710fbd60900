// Generic SQG pointwise kernels against the simd::Vec API. Included only
// through kernel_table.hpp by the per-backend translation units (kernels.cpp
// compiled portably, kernels_avx2.cpp compiled with -mavx2 -mfma); both are
// built with -ffp-contract=off and auto-vectorization disabled so the only
// FMA contractions are the explicit kFma instantiations.
//
// All main loops advance four doubles (two interleaved complex bins) per
// iteration, except sqg_jacobian, which advances eight floats of one grid
// row; the scalar tails spell out the identical IEEE operation sequence, so
// a kernel's result does not depend on where the vector loop ends. `kFma`
// selects fused multiply-adds (the Avx2Fma table) — the scalar tails fuse
// through std::fma in that case, which is bitwise identical to the hardware
// instruction.
#pragma once

#include <cmath>
#include <cstddef>

namespace turbda::simd::detail {

/// a*b + c, fused to one rounding when kFma (matches Vec::mul_add lane-wise;
/// T is double or float).
template <bool kFma, class T>
[[nodiscard]] inline T fmadd1(T a, T b, T c) {
  if constexpr (kFma) return std::fma(a, b, c);
  return a * b + c;
}

template <class V, bool kFma>
void sqg_pass1_impl(double* ps, float* lanes, const double* t0, const double* t1,
                    const double* th, const double* ik2, const double* ca2, const double* cb2,
                    const double* kx2, const double* ky2, std::size_t nd) {
  constexpr std::size_t W = V::kWidth;
  std::size_t i = 0;
  for (; i + W <= nd; i += W) {
    const V psv = V::loadu(ik2 + i) * V::template mul_sub<kFma>(V::loadu(t1 + i),
                                                               V::loadu(ca2 + i),
                                                               V::loadu(t0 + i) * V::loadu(cb2 + i));
    psv.storeu(ps + i);
    const V kxv = V::loadu(kx2 + i);
    const V kyv = V::loadu(ky2 + i);
    // i*z on an interleaved pair is swap + negate-even; -i*z is swap +
    // negate-odd (conj of the product). Sign flips are exact bit operations.
    const V sps = psv.swap_pairs();
    const V sth = V::loadu(th + i).swap_pairs();
    V du = (kyv * sps).conj();      // -i ky psi
    V dv = (kxv * sps).neg_even();  // +i kx psi
    V dx = (kxv * sth).neg_even();  // +i kx theta
    V dy = (kyv * sth).neg_even();  // +i ky theta
    // Rows [re p, im p, re p+1, im p+1] of the four fields become the lane
    // elements of bins p and p+1, rounded to float: 16 contiguous floats at
    // lanes + 4 i.
    transpose4(du, dv, dx, dy);
    du.store_f32(lanes + 4 * i);
    dv.store_f32(lanes + 4 * i + 4);
    dx.store_f32(lanes + 4 * i + 8);
    dy.store_f32(lanes + 4 * i + 12);
  }
  for (; i + 1 < nd; i += 2) {
    const double pr = ik2[i] * fmadd1<kFma>(t1[i], ca2[i], -(t0[i] * cb2[i]));
    const double pi = ik2[i + 1] * fmadd1<kFma>(t1[i + 1], ca2[i + 1], -(t0[i + 1] * cb2[i + 1]));
    ps[i] = pr;
    ps[i + 1] = pi;
    const double tr = th[i];
    const double ti = th[i + 1];
    float* re = lanes + 4 * i;  // bin i/2: four real parts, then four imaginary
    float* im = re + 4;
    re[0] = static_cast<float>(ky2[i] * pi);
    im[0] = static_cast<float>(-(ky2[i + 1] * pr));
    re[1] = static_cast<float>(-(kx2[i] * pi));
    im[1] = static_cast<float>(kx2[i + 1] * pr);
    re[2] = static_cast<float>(-(kx2[i] * ti));
    im[2] = static_cast<float>(kx2[i + 1] * tr);
    re[3] = static_cast<float>(-(ky2[i] * ti));
    im[3] = static_cast<float>(ky2[i + 1] * tr);
  }
}

template <class V, bool kFma>
void sqg_jacobian_impl(float* gj, const float* gu, const float* gv, const float* gtx,
                       const float* gty, std::size_t n) {
  using F = typename V::F32;
  constexpr std::size_t W = F::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    F::template mul_add<kFma>(F::loadu(gu + i), F::loadu(gtx + i),
                              F::loadu(gv + i) * F::loadu(gty + i))
        .storeu(gj + i);
  }
  for (; i < n; ++i) gj[i] = fmadd1<kFma>(gu[i], gtx[i], gv[i] * gty[i]);
}

template <class V, bool kFma>
void sqg_combine_impl(double* dth, const double* th, const double* ps, const double* jc,
                      const double* op_t, const double* op_p, std::size_t nd) {
  constexpr std::size_t W = V::kWidth;
  std::size_t i = 0;
  for (; i + W <= nd; i += W) {
    const V a = cmul<kFma>(V::loadu(op_t + i), V::loadu(th + i));
    const V b = cmul<kFma>(V::loadu(op_p + i), V::loadu(ps + i));
    ((a + b) - V::loadu(jc + i)).storeu(dth + i);
  }
  for (; i + 1 < nd; i += 2) {
    const double ar = fmadd1<kFma>(op_t[i], th[i], -(op_t[i + 1] * th[i + 1]));
    const double ai = fmadd1<kFma>(op_t[i], th[i + 1], op_t[i + 1] * th[i]);
    const double br = fmadd1<kFma>(op_p[i], ps[i], -(op_p[i + 1] * ps[i + 1]));
    const double bi = fmadd1<kFma>(op_p[i], ps[i + 1], op_p[i + 1] * ps[i]);
    dth[i] = (ar + br) - jc[i];
    dth[i + 1] = (ai + bi) - jc[i + 1];
  }
}

template <class V>
void mul_inplace_impl(double* s, const double* d2, std::size_t nd) {
  constexpr std::size_t W = V::kWidth;
  std::size_t i = 0;
  for (; i + W <= nd; i += W) (V::loadu(s + i) * V::loadu(d2 + i)).storeu(s + i);
  for (; i < nd; ++i) s[i] *= d2[i];
}

template <class V, bool kFma>
void add_scaled_impl(double* out, const double* x, const double* y, std::size_t nd, double alpha) {
  constexpr std::size_t W = V::kWidth;
  const V va = V::broadcast(alpha);
  std::size_t i = 0;
  for (; i + W <= nd; i += W)
    V::template mul_add<kFma>(va, V::loadu(y + i), V::loadu(x + i)).storeu(out + i);
  for (; i < nd; ++i) out[i] = fmadd1<kFma>(alpha, y[i], x[i]);
}

template <class V, bool kFma>
void rk4_update_impl(double* x, const double* k1, const double* k2, const double* k3,
                     const double* k4, std::size_t nd, double c) {
  constexpr std::size_t W = V::kWidth;
  const V two = V::broadcast(2.0);
  const V vc = V::broadcast(c);
  std::size_t i = 0;
  for (; i + W <= nd; i += W) {
    V s = V::template mul_add<kFma>(two, V::loadu(k2 + i), V::loadu(k1 + i));
    s = V::template mul_add<kFma>(two, V::loadu(k3 + i), s);
    s = s + V::loadu(k4 + i);
    V::template mul_add<kFma>(vc, s, V::loadu(x + i)).storeu(x + i);
  }
  for (; i < nd; ++i) {
    double s = fmadd1<kFma>(2.0, k2[i], k1[i]);
    s = fmadd1<kFma>(2.0, k3[i], s);
    s = s + k4[i];
    x[i] = fmadd1<kFma>(c, s, x[i]);
  }
}

}  // namespace turbda::simd::detail
