// Generic FFT micro-kernels over the portable simd::Vec API — one kernel
// text instantiated per backend (VecScalar in simd/kernels.cpp, VecAvx2 in
// simd/kernels_avx2.cpp, both through simd/kernel_table.hpp) and per
// multiply-add mode (kFma).
//
// Every kernel is single precision on V::F32, one eight-float register per
// lane element; the data movers that meet the double spectra widen exactly.
// With kFma == false each lane operation is exactly one IEEE operation, so
// the VecScalar and VecAvx2 instantiations are bitwise identical; with kFma
// == true the complex multiplies fuse (~1 ulp per butterfly from the
// unfused reference). Every TU including this header is compiled with
// -ffp-contract=off and auto-vectorization off (see CMakeLists.txt) so the
// compiler cannot contract or re-vectorize the scalar emulation.
#pragma once

#include <cstddef>

#include "simd/vec.hpp"

namespace turbda::fft::detail {

using simd::transpose4_halves;

// ---------------------------------------------------------------------------
// Lane-batched kernels, in single precision: four independent transforms
// advance in lockstep, one per lane. Element k of transform c is the eight
// floats at d + (k * stride + c) * 8 — the four real parts, then the four
// imaginary parts — and is one V::F32 register. `stride` is the element
// distance between successive points of one transform (n/2 + 1 for an
// in-place column of the fused transform's half spectrum, the retained
// column count for the per-field inverse's, the block count for the
// forward's compact column buffer, 1 for a row), and the m transforms of one
// call sit
// side by side (adjacent columns or column blocks). A lane never reads
// another lane, and every entry runs one fixed sequence of IEEE float
// operations, fused under kFma wherever a multiply feeds an add, so the
// Scalar and Avx2 tables give the same bits. A complex multiply by a
// twiddle w = (wr, wi), shared by all lanes, is w * b = wr b + [-wi | wi]
// swap(b): one multiply, one multiply-add and one half swap.
// ---------------------------------------------------------------------------

/// Floats per lane element.
inline constexpr std::size_t kLaneFloats = 8;

/// w * b for the twiddle (wr, wis = [-wi | +wi]) and sb = swap_halves(b).
template <bool kFma, class F>
inline F lane_cmul(F wr, F wis, F b, F sb) {
  return F::template mul_add<kFma>(wr, b, wis * sb);
}

/// Twiddle w[0] + i w[1] in lane_cmul's form; conj(w) when kConj.
template <bool kConj = false, class F>
inline void lane_twiddle(const float* w, F& wr, F& wis) {
  wr = F::broadcast(w[0]);
  wis = kConj ? F::broadcast(w[1]).neg_hi() : F::broadcast(w[1]).neg_lo();
}

/// Stages of length 2 and 4 fused over n >= 4 points (exact ±1/±i
/// twiddles): a0 = z0 + z1, a1 = z0 - z1, a2 = z2 + z3, and a3 = z2 - z3
/// rotated by -isign i, then a0 ± a2 and a1 ± a3.
template <class V>
void lane_pass_first_impl(float* d, std::size_t n, std::size_t stride, std::size_t m,
                          float isign) {
  using F = typename V::F32;
  const std::size_t es = kLaneFloats * stride;
  const F rot = F::broadcast(-isign).neg_hi();  // [-isign | +isign]
  for (std::size_t base = 0; base < n; base += 4) {
    for (std::size_t c = 0; c < m; ++c) {
      float* p0 = d + base * es + kLaneFloats * c;
      float* p1 = p0 + es;
      float* p2 = p1 + es;
      float* p3 = p2 + es;
      const F z0 = F::loadu(p0), z1 = F::loadu(p1);
      const F z2 = F::loadu(p2), z3 = F::loadu(p3);
      const F a0 = z0 + z1, a1 = z0 - z1;
      const F a2 = z2 + z3, a3 = z2 - z3;
      const F b3 = a3.swap_halves() * rot;
      (a0 + a2).storeu(p0);
      (a1 + b3).storeu(p1);
      (a0 - a2).storeu(p2);
      (a1 - b3).storeu(p3);
    }
  }
}

/// Fused radix-2² pass (stages s and s+1), any half >= 1: blocks of 4 half
/// points, stage-s twiddles tw, stage-(s+1) twiddles tw1 (interleaved
/// (re, im) floats).
template <class V, bool kFma>
void lane_pass_radix4_impl(float* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const float* tw, const float* tw1) {
  using F = typename V::F32;
  const std::size_t es = kLaneFloats * stride;
  const std::size_t qs = half * es;
  for (std::size_t base = 0; base < n; base += 4 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      F wr, wis, v0r, v0is, v1r, v1is;
      lane_twiddle(tw + 2 * k, wr, wis);
      lane_twiddle(tw1 + 2 * k, v0r, v0is);
      lane_twiddle(tw1 + 2 * (k + half), v1r, v1is);
      for (std::size_t c = 0; c < m; ++c) {
        float* p0 = d + (base + k) * es + kLaneFloats * c;
        float* p1 = p0 + qs;
        float* p2 = p1 + qs;
        float* p3 = p2 + qs;
        const F b = F::loadu(p1), e = F::loadu(p3);
        const F tb = lane_cmul<kFma>(wr, wis, b, b.swap_halves());
        const F td = lane_cmul<kFma>(wr, wis, e, e.swap_halves());
        const F a = F::loadu(p0), cc = F::loadu(p2);
        const F ua = a + tb, ub = a - tb;
        const F uc = cc + td, ud = cc - td;
        const F tc = lane_cmul<kFma>(v0r, v0is, uc, uc.swap_halves());
        const F te = lane_cmul<kFma>(v1r, v1is, ud, ud.swap_halves());
        (ua + tc).storeu(p0);
        (ua - tc).storeu(p2);
        (ub + te).storeu(p1);
        (ub - te).storeu(p3);
      }
    }
  }
}

/// Single radix-2 pass (the odd remaining stage), any half >= 1.
template <class V, bool kFma>
void lane_pass_radix2_impl(float* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const float* tw) {
  using F = typename V::F32;
  const std::size_t es = kLaneFloats * stride;
  for (std::size_t base = 0; base < n; base += 2 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      F wr, wis;
      lane_twiddle(tw + 2 * k, wr, wis);
      for (std::size_t c = 0; c < m; ++c) {
        float* lo = d + (base + k) * es + kLaneFloats * c;
        float* hi = lo + half * es;
        const F h = F::loadu(hi);
        const F t = lane_cmul<kFma>(wr, wis, h, h.swap_halves());
        const F u = F::loadu(lo);
        (u + t).storeu(lo);
        (u - t).storeu(hi);
      }
    }
  }
}

/// Four real rows into one lane row in bit-reversed order: lane l of
/// element j is the pair (x[l][2j], x[l][2j + 1]) Rfft1D::forward packs as
/// z[j], stored at element bitrev[j]. One in-half transpose and four half
/// concats per four elements.
template <class V>
void lane_rows_in_impl(const float* const* x, std::size_t h, const std::size_t* bitrev,
                       float* s) {
  using F = typename V::F32;
  constexpr std::size_t W = V::kWidth;
  std::size_t j = 0;
  for (; j + 4 <= h; j += 4) {
    F r0 = F::loadu(x[0] + 2 * j);
    F r1 = F::loadu(x[1] + 2 * j);
    F r2 = F::loadu(x[2] + 2 * j);
    F r3 = F::loadu(x[3] + 2 * j);
    transpose4_halves(r0, r1, r2, r3);  // r_q: samples q and q + 4 of the four rows
    F::concat_lo(r0, r1).storeu(s + bitrev[j] * kLaneFloats);
    F::concat_lo(r2, r3).storeu(s + bitrev[j + 1] * kLaneFloats);
    F::concat_hi(r0, r1).storeu(s + bitrev[j + 2] * kLaneFloats);
    F::concat_hi(r2, r3).storeu(s + bitrev[j + 3] * kLaneFloats);
  }
  for (; j < h; ++j) {  // h < 4
    float* p = s + bitrev[j] * kLaneFloats;
    for (std::size_t l = 0; l < W; ++l) {
      p[l] = x[l][2 * j];
      p[W + l] = x[l][2 * j + 1];
    }
  }
}

/// Rfft1D forward combine over one contiguous row of h + 1 elements, after
/// the half-length transform: bin 0 becomes (re + im, +0) and bin h
/// (re - im, +0) of the old bin 0; for 0 < k < h/2, with E = (Z[k] +
/// conj Z[h-k]) / 2 and O = -i (Z[k] - conj Z[h-k]) / 2, X[k] = E + w^k O
/// and X[h-k] = conj(E) - conj(w^k O); bin h/2 is conjugated (w^(h/2) = -i).
template <class V, bool kFma>
void lane_rfft_pack_impl(float* s, const float* w, std::size_t h) {
  using F = typename V::F32;
  const F half_v = F::broadcast(0.5f);
  {
    const F z0 = F::loadu(s);
    const F sw = z0.swap_halves();
    (z0 + sw).zero_hi().storeu(s);
    (z0 - sw).zero_hi().storeu(s + h * kLaneFloats);
  }
  for (std::size_t k = 1; k < h - k; ++k) {
    float* pk = s + k * kLaneFloats;
    float* pc = s + (h - k) * kLaneFloats;
    const F zk = F::loadu(pk), zc = F::loadu(pc);
    F wr, wis;
    lane_twiddle(w + 2 * k, wr, wis);
    const F e = half_v * (zk + zc.neg_hi());
    const F so = half_v * (zc - zk.neg_hi());  // swap_halves(O)
    const F t = lane_cmul<kFma>(wr, wis, so.swap_halves(), so);
    (e + t).storeu(pk);
    (e.neg_hi() - t.neg_hi()).storeu(pc);
  }
  if (h >= 2) {
    float* p = s + (h / 2) * kLaneFloats;
    F::loadu(p).neg_hi().storeu(p);
  }
}

/// Moves one four-row batch's lane row spectrum (4 nb elements, lane r =
/// row r) into nb column blocks (lane c = spectral column 4b + c): one
/// in-half 4x4 transpose per block. Rows r < nrows are stored, row r at
/// out + r * nb * 8.
template <class V>
void lane_cols_in_impl(const float* s, std::size_t nb, std::size_t nrows, float* out) {
  using F = typename V::F32;
  const std::size_t rs = nb * kLaneFloats;
  for (std::size_t b = 0; b < nb; ++b) {
    const float* p = s + 4 * b * kLaneFloats;
    F r[4] = {F::loadu(p), F::loadu(p + kLaneFloats), F::loadu(p + 2 * kLaneFloats),
              F::loadu(p + 3 * kLaneFloats)};
    transpose4_halves(r[0], r[1], r[2], r[3]);
    for (std::size_t i = 0; i < nrows; ++i) r[i].storeu(out + i * rs + b * kLaneFloats);
  }
}

/// Widens one column-buffer row (lane c of block b = column 4b + c) into
/// `cols` interleaved (re, im) double bins: out[2j] = re(j), out[2j + 1] =
/// im(j).
template <class V>
void lane_cols_out_impl(const float* row, std::size_t cols, double* out) {
  constexpr std::size_t W = V::kWidth;
  std::size_t b = 0;
  for (; W * (b + 1) <= cols; ++b) {
    const V re = V::load_f32(row + b * kLaneFloats), im = V::load_f32(row + b * kLaneFloats + W);
    const V lo = V::unpack_lo(re, im), hi = V::unpack_hi(re, im);
    V::concat_lo(lo, hi).storeu(out + 2 * W * b);
    V::concat_hi(lo, hi).storeu(out + 2 * W * b + W);
  }
  for (std::size_t j = W * b; j < cols; ++j) {
    out[2 * j] = row[b * kLaneFloats + (j - W * b)];
    out[2 * j + 1] = row[b * kLaneFloats + W + (j - W * b)];
  }
}

/// Rfft1D inverse split of one contiguous row of h + 1 elements, scaled by
/// pre_scale: elements k >= cols read as +0 and are never loaded. With A =
/// X[k], B = X[h-k], E = (A + conj B) / 2 and O = conj(w^k) (A - conj B) / 2,
/// element k of the result is E + iO and element h-k is conj(E) + i conj(O)
/// (the bin-0 fold and the conj of bin h/2 included), stored at element
/// bitrev[k] * stride of out, where the half-length transform then reads it
/// in place. The scale rides on the halving (pre_scale / 2 is one
/// multiply), so a power-of-two pre_scale costs no rounding.
template <class V, bool kFma>
void lane_rfft_unpack_impl(const float* s, const float* w, std::size_t h, std::size_t cols,
                           float pre_scale, const std::size_t* bitrev, std::size_t stride,
                           float* out) {
  const std::size_t es = kLaneFloats * stride;
  using F = typename V::F32;
  const F zero = F::broadcast(0.0f);
  const auto bin = [&](std::size_t k) { return k < cols ? F::loadu(s + k * kLaneFloats) : zero; };
  const F hs = F::broadcast(0.5f * pre_scale);
  {
    const F e0 = bin(0), eh = bin(h);
    (hs * (F::concat_lo(e0, e0) + F::concat_lo(eh, eh).neg_hi())).storeu(out);  // bitrev[0] == 0
  }
  for (std::size_t k = 1; k < h - k; ++k) {
    const F a = bin(k), b = bin(h - k);
    F wr, wic;
    lane_twiddle</*kConj=*/true>(w + 2 * k, wr, wic);
    const F e = hs * (a + b.neg_hi());
    const F ot = hs * (a - b.neg_hi());
    const F so = lane_cmul<kFma>(wr, wic, ot, ot.swap_halves()).swap_halves();  // [oi | or]
    (e + so.neg_lo()).storeu(out + bitrev[k] * es);
    (e.neg_hi() + so).storeu(out + bitrev[h - k] * es);
  }
  if (h >= 2) (F::broadcast(pre_scale) * bin(h / 2)).neg_hi().storeu(out + bitrev[h / 2] * es);
}

/// De-interleaves the h elements of a transformed row (element j at
/// s + j * stride * 8) into four real rows: out[l][2j] = re_l(j),
/// out[l][2j + 1] = im_l(j) (the Rfft1D real-sample unpacking). Four half
/// concats and one in-half transpose per four elements.
template <class V>
void lane_rows_out_impl(const float* s, std::size_t stride, std::size_t h, float* const* out) {
  using F = typename V::F32;
  constexpr std::size_t W = V::kWidth;
  const std::size_t es = kLaneFloats * stride;
  std::size_t j = 0;
  for (; j + 4 <= h; j += 4) {
    const float* p = s + j * es;
    const F e0 = F::loadu(p), e1 = F::loadu(p + es);
    const F e2 = F::loadu(p + 2 * es), e3 = F::loadu(p + 3 * es);
    F r0 = F::concat_lo(e0, e2), r1 = F::concat_hi(e0, e2);
    F r2 = F::concat_lo(e1, e3), r3 = F::concat_hi(e1, e3);
    transpose4_halves(r0, r1, r2, r3);
    r0.storeu(out[0] + 2 * j);
    r1.storeu(out[1] + 2 * j);
    r2.storeu(out[2] + 2 * j);
    r3.storeu(out[3] + 2 * j);
  }
  for (; j < h; ++j) {  // h < 4
    for (std::size_t l = 0; l < W; ++l) {
      out[l][2 * j] = s[j * es + l];
      out[l][2 * j + 1] = s[j * es + W + l];
    }
  }
}

}  // namespace turbda::fft::detail
