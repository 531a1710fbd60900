// Generic FFT micro-kernels over the portable simd::Vec API — one kernel
// text instantiated per backend (VecScalar in simd/kernels.cpp, VecAvx2 in
// simd/kernels_avx2.cpp, both through simd/kernel_table.hpp) and per
// multiply-add mode (kFma).
//
// The lane choreography is identical for every instantiation: four doubles
// per vector, complex numbers as interleaved (re, im) pairs, two complex
// elements per vector. With kFma == false each lane operation is exactly one
// IEEE operation, so the VecScalar and VecAvx2 instantiations are bitwise
// identical; with kFma == true the complex multiplies fuse into
// fmaddsub/fmsubadd (~1 ulp per butterfly from the unfused reference).
//
// The Rfft1D pack/unpack scalar remainder loops repeat the pre-SIMD scalar
// arithmetic verbatim; every TU including this header is compiled with
// -ffp-contract=off and auto-vectorization off (see CMakeLists.txt) so the
// compiler cannot contract or re-vectorize them.
#pragma once

#include <cstddef>

#include "simd/vec.hpp"

namespace turbda::fft::detail {

using simd::cmul;
using simd::cmul_conj;
using simd::transpose4;

/// Stages of butterfly length 2 and 4 fused (exact ±1/±i twiddles). Per
/// 4-complex block: A = [z0+z1 | z0-z1], D = [z2+z3 | -+i (z2-z3)],
/// outputs A±D.
template <class V>
void pass_first_impl(double* d, std::size_t n2, double isign) {
  const V rot = V::lanes(1.0, 1.0, -isign, isign);
  for (std::size_t base = 0; base < n2; base += 8) {
    double* p = d + base;
    const V r0 = V::loadu(p);
    const V r1 = V::loadu(p + 4);
    const V sw0 = r0.swap_halves();
    const V sw1 = r1.swap_halves();
    const V s0 = r0 + sw0, d0 = r0 - sw0;
    const V s1 = r1 + sw1, d1 = r1 - sw1;
    const V a = V::concat_lo(s0, d0);                        // [a0 | a1]
    const V c = V::concat_lo(s1, d1);                        // [a2 | a3]
    const V cs = c.swap_pairs();                             // [a2 im/re | a3 im/re]
    const V dd = V::template blend<0b1100>(c, cs * rot);     // [a2 | b3]
    (a + dd).storeu(p);
    (a - dd).storeu(p + 4);
  }
}

/// Fused radix-2² pass (stages s and s+1); half >= 4 and even, so the
/// two-complex-per-iteration loop has no tail.
template <class V, bool kFma>
void pass_radix4_impl(double* d, std::size_t n, std::size_t half, const double* tw,
                      const double* tw1) {
  const std::size_t len4 = 4 * half;
  for (std::size_t base = 0; base < n; base += len4) {
    double* p0 = d + 2 * base;
    double* p1 = p0 + 2 * half;
    double* p2 = p1 + 2 * half;
    double* p3 = p2 + 2 * half;
    for (std::size_t k = 0; k < half; k += 2) {
      const V w = V::loadu(tw + 2 * k);
      const V a = V::loadu(p0 + 2 * k);
      const V b = V::loadu(p1 + 2 * k);
      const V c = V::loadu(p2 + 2 * k);
      const V e = V::loadu(p3 + 2 * k);
      const V tb = cmul<kFma>(w, b);
      const V td = cmul<kFma>(w, e);
      const V ua = a + tb, ub = a - tb;
      const V uc = c + td, ud = c - td;
      const V v0 = V::loadu(tw1 + 2 * k);
      const V v1 = V::loadu(tw1 + 2 * (k + half));
      const V tc = cmul<kFma>(v0, uc);
      const V te = cmul<kFma>(v1, ud);
      (ua + tc).storeu(p0 + 2 * k);
      (ua - tc).storeu(p2 + 2 * k);
      (ub + te).storeu(p1 + 2 * k);
      (ub - te).storeu(p3 + 2 * k);
    }
  }
}

/// Single radix-2 pass (the odd remaining stage); half >= 4 and even.
template <class V, bool kFma>
void pass_radix2_impl(double* d, std::size_t n, std::size_t half, const double* tw) {
  for (std::size_t base = 0; base < n; base += 2 * half) {
    double* lo = d + 2 * base;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; k += 2) {
      const V w = V::loadu(tw + 2 * k);
      const V h = V::loadu(hi + 2 * k);
      const V u = V::loadu(lo + 2 * k);
      const V t = cmul<kFma>(w, h);
      (u + t).storeu(lo + 2 * k);
      (u - t).storeu(hi + 2 * k);
    }
  }
}

// Rfft1D Hermitian pack/unpack. Bins k and h-k are updated together; the
// vector loop walks two bins from each end per iteration (the mirrored pair
// is loaded/stored through one 128-bit-half swap), and hands the last one or
// two middle bins to a scalar remainder with the identical arithmetic.

/// Forward combine X[k] = E[k] + w^k O[k], X[h-k] = conj(E[k] - w^k O[k])
/// with E, O the even/odd-sample transforms recovered from the half-length
/// spectrum: E = (Z[k] + conj(Z[h-k]))/2, O = -i (Z[k] - conj(Z[h-k]))/2.
template <class V, bool kFma>
void rfft_pack_impl(double* s, const double* w, std::size_t h) {
  const V half_v = V::broadcast(0.5);
  std::size_t k = 1;
  for (; 2 * k + 2 < h; k += 2) {
    const std::size_t mbase = 2 * (h - k - 1);
    const V fwd = V::loadu(s + 2 * k);
    const V mir = V::loadu(s + mbase).swap_halves();  // [z(h-k) | z(h-k-1)]
    const V e = half_v * (fwd + mir.conj());
    const V fwds = fwd.swap_pairs();
    const V mirs = mir.swap_pairs();
    const V o = half_v * V::addsub(mirs, fwds.neg());
    const V t = cmul<kFma>(V::loadu(w + 2 * k), o);
    const V outk = e + t;
    // Mirror bin (er - tr, ti - ei): negating the (e - t) subtraction would
    // flip the sign of an exactly-zero imaginary lane (-(x - x) is -0.0,
    // ti - ei is +0.0), so build it as an addsub of negated operands — x +
    // (-y) is the same IEEE operation as x - y, keeping the unfused
    // reference bitwise.
    const V x = V::template blend<0b1010>(e, t);        // [er ti | ...]
    const V y = V::template blend<0b1010>(t, e.neg());  // [tr -ei | ...]
    const V outkc = V::addsub(x, y);
    outk.storeu(s + 2 * k);
    outkc.swap_halves().storeu(s + mbase);
  }
  for (; k < h - k; ++k) {  // scalar remainder, same arithmetic
    const std::size_t kc = h - k;
    const double zkr = s[2 * k], zki = s[2 * k + 1];
    const double zcr = s[2 * kc], zci = s[2 * kc + 1];
    const double er = 0.5 * (zkr + zcr), ei = 0.5 * (zki - zci);
    const double or_ = 0.5 * (zki + zci), oi = 0.5 * (zcr - zkr);
    const double wr = w[2 * k], wi = w[2 * k + 1];
    const double tr = wr * or_ - wi * oi, ti = wr * oi + wi * or_;
    s[2 * k] = er + tr;
    s[2 * k + 1] = ei + ti;
    s[2 * kc] = er - tr;
    s[2 * kc + 1] = ti - ei;
  }
}

/// Inverse of the combine: recover E and w^k O from X[k], X[h-k], undo the
/// twiddle with conj(w), and store Z[k] = E + iO, Z[h-k] = conj(E) + i conj(O).
template <class V, bool kFma>
void rfft_unpack_impl(double* s, const double* w, std::size_t h) {
  const V half_v = V::broadcast(0.5);
  std::size_t k = 1;
  for (; 2 * k + 2 < h; k += 2) {
    const std::size_t mbase = 2 * (h - k - 1);
    const V fwd = V::loadu(s + 2 * k);
    const V mir = V::loadu(s + mbase).swap_halves();
    const V e = half_v * V::addsub(fwd, mir.neg());
    const V ot = half_v * V::addsub(fwd, mir);
    const V o = cmul_conj<kFma>(V::loadu(w + 2 * k), ot);
    const V os = o.swap_pairs();  // [oi or_ | ...]
    const V outk = V::addsub(e, os);
    const V x = V::template blend<0b1010>(e, os);  // [er or_ | ...]
    const V y = V::template blend<0b1010>(os, e);  // [oi ei | ...]
    const V outkc = V::addsub(x, y.neg());
    outk.storeu(s + 2 * k);
    outkc.swap_halves().storeu(s + mbase);
  }
  for (; k < h - k; ++k) {  // scalar remainder, same arithmetic
    const std::size_t kc = h - k;
    const double ar = s[2 * k], ai = s[2 * k + 1];
    const double br = s[2 * kc], bi = s[2 * kc + 1];
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double otr = 0.5 * (ar - br), oti = 0.5 * (ai + bi);
    const double wr = w[2 * k], wi = w[2 * k + 1];
    const double or_ = wr * otr + wi * oti, oi = wr * oti - wi * otr;
    s[2 * k] = er - oi;
    s[2 * k + 1] = ei + or_;
    s[2 * kc] = er + oi;
    s[2 * kc + 1] = or_ - ei;
  }
}

// ---------------------------------------------------------------------------
// Lane-batched kernels: V::kWidth independent transforms advance in
// lockstep, one per lane. Element k of transform c is the 2 * kWidth doubles
// at d + (k * stride + c) * 2 * kWidth: the kWidth real parts, then the
// kWidth imaginary parts. `stride` is the element distance between
// successive points of one transform (n/2 + 1 for an in-place column of a
// half spectrum, the block count for the forward's compact column buffer, 1
// for a row), and the m transforms of one call sit side by side (adjacent
// columns or column blocks). Every lane performs the IEEE operations of the
// per-field kernels above on its own values in the same order — fused where
// their vector bodies fuse under kFma, unfused where their scalar remainders
// run — so each lane is bitwise the per-field result at every level.
// ---------------------------------------------------------------------------

/// w * b per lane with the operation order of cmul's fmaddsub.
template <bool kFma, class V>
inline void lane_cmul(V wr, V wi, V br, V bi, V& re, V& im) {
  re = V::template mul_sub<kFma>(wr, br, wi * bi);
  im = V::template mul_add<kFma>(wr, bi, wi * br);
}

/// Lane pass_first_impl: stages of length 2 and 4 fused over n >= 4 points.
/// The -+i rotation multiplies by -isign and isign, as cs * rot does.
template <class V>
void lane_pass_first_impl(double* d, std::size_t n, std::size_t stride, std::size_t m,
                          double isign) {
  constexpr std::size_t W = V::kWidth;
  const std::size_t es = 2 * W * stride;
  const V mrot = V::broadcast(-isign), prot = V::broadcast(isign);
  for (std::size_t base = 0; base < n; base += 4) {
    for (std::size_t c = 0; c < m; ++c) {
      double* p0 = d + base * es + 2 * W * c;
      double* p1 = p0 + es;
      double* p2 = p1 + es;
      double* p3 = p2 + es;
      const V r0 = V::loadu(p0), i0 = V::loadu(p0 + W);
      const V r1 = V::loadu(p1), i1 = V::loadu(p1 + W);
      const V r2 = V::loadu(p2), i2 = V::loadu(p2 + W);
      const V r3 = V::loadu(p3), i3 = V::loadu(p3 + W);
      const V a0r = r0 + r1, a0i = i0 + i1;
      const V a1r = r0 - r1, a1i = i0 - i1;
      const V a2r = r2 + r3, a2i = i2 + i3;
      const V a3r = r2 - r3, a3i = i2 - i3;
      const V b3r = a3i * mrot, b3i = a3r * prot;
      (a0r + a2r).storeu(p0);
      (a0i + a2i).storeu(p0 + W);
      (a1r + b3r).storeu(p1);
      (a1i + b3i).storeu(p1 + W);
      (a0r - a2r).storeu(p2);
      (a0i - a2i).storeu(p2 + W);
      (a1r - b3r).storeu(p3);
      (a1i - b3i).storeu(p3 + W);
    }
  }
}

/// Lane pass_radix4_impl: stages s and s+1 fused, any half >= 1.
template <class V, bool kFma>
void lane_pass_radix4_impl(double* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const double* tw, const double* tw1) {
  constexpr std::size_t W = V::kWidth;
  const std::size_t es = 2 * W * stride;
  const std::size_t qs = half * es;
  for (std::size_t base = 0; base < n; base += 4 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      const V wr = V::broadcast(tw[2 * k]), wi = V::broadcast(tw[2 * k + 1]);
      const V v0r = V::broadcast(tw1[2 * k]), v0i = V::broadcast(tw1[2 * k + 1]);
      const V v1r = V::broadcast(tw1[2 * (k + half)]);
      const V v1i = V::broadcast(tw1[2 * (k + half) + 1]);
      for (std::size_t c = 0; c < m; ++c) {
        double* p0 = d + (base + k) * es + 2 * W * c;
        double* p1 = p0 + qs;
        double* p2 = p1 + qs;
        double* p3 = p2 + qs;
        V tbr, tbi, tdr, tdi;
        lane_cmul<kFma>(wr, wi, V::loadu(p1), V::loadu(p1 + W), tbr, tbi);
        lane_cmul<kFma>(wr, wi, V::loadu(p3), V::loadu(p3 + W), tdr, tdi);
        const V ar = V::loadu(p0), ai = V::loadu(p0 + W);
        const V cr = V::loadu(p2), ci = V::loadu(p2 + W);
        const V uar = ar + tbr, uai = ai + tbi;
        const V ubr = ar - tbr, ubi = ai - tbi;
        const V ucr = cr + tdr, uci = ci + tdi;
        const V udr = cr - tdr, udi = ci - tdi;
        V tcr, tci, ter, tei;
        lane_cmul<kFma>(v0r, v0i, ucr, uci, tcr, tci);
        lane_cmul<kFma>(v1r, v1i, udr, udi, ter, tei);
        (uar + tcr).storeu(p0);
        (uai + tci).storeu(p0 + W);
        (uar - tcr).storeu(p2);
        (uai - tci).storeu(p2 + W);
        (ubr + ter).storeu(p1);
        (ubi + tei).storeu(p1 + W);
        (ubr - ter).storeu(p3);
        (ubi - tei).storeu(p3 + W);
      }
    }
  }
}

/// Lane pass_radix2_impl: the odd remaining stage, any half >= 1.
template <class V, bool kFma>
void lane_pass_radix2_impl(double* d, std::size_t n, std::size_t stride, std::size_t m,
                           std::size_t half, const double* tw) {
  constexpr std::size_t W = V::kWidth;
  const std::size_t es = 2 * W * stride;
  for (std::size_t base = 0; base < n; base += 2 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      const V wr = V::broadcast(tw[2 * k]), wi = V::broadcast(tw[2 * k + 1]);
      for (std::size_t c = 0; c < m; ++c) {
        double* lo = d + (base + k) * es + 2 * W * c;
        double* hi = lo + half * es;
        V tr, ti;
        lane_cmul<kFma>(wr, wi, V::loadu(hi), V::loadu(hi + W), tr, ti);
        const V ur = V::loadu(lo), ui = V::loadu(lo + W);
        (ur + tr).storeu(lo);
        (ui + ti).storeu(lo + W);
        (ur - tr).storeu(hi);
        (ui - ti).storeu(hi + W);
      }
    }
  }
}

/// First bin of rfft_pack_impl's / rfft_unpack_impl's scalar remainder:
/// bins k < kv go through their vector bodies (two per iteration).
inline std::size_t rfft_vector_end(std::size_t h) {
  std::size_t kv = 1;
  while (2 * kv + 2 < h) kv += 2;
  return kv;
}

/// Four real rows into one lane row in bit-reversed order: lane l of
/// element j is the pair (x[l][2j], x[l][2j + 1]) Rfft1D::forward packs as
/// z[j], stored at element bitrev[j]. One 4x4 transpose per two elements.
template <class V>
void lane_rows_in_impl(const double* const* x, std::size_t h, const std::size_t* bitrev,
                       double* s) {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t es = 2 * W;
  std::size_t j = 0;
  for (; j + 2 <= h; j += 2) {
    V r0 = V::loadu(x[0] + 2 * j);
    V r1 = V::loadu(x[1] + 2 * j);
    V r2 = V::loadu(x[2] + 2 * j);
    V r3 = V::loadu(x[3] + 2 * j);
    transpose4(r0, r1, r2, r3);  // re(j), im(j), re(j + 1), im(j + 1)
    double* p = s + bitrev[j] * es;
    double* q = s + bitrev[j + 1] * es;
    r0.storeu(p);
    r1.storeu(p + W);
    r2.storeu(q);
    r3.storeu(q + W);
  }
  for (; j < h; ++j) {  // h == 1
    double* p = s + bitrev[j] * es;
    for (std::size_t l = 0; l < W; ++l) {
      p[l] = x[l][2 * j];
      p[W + l] = x[l][2 * j + 1];
    }
  }
}

/// Lane Rfft1D forward combine over one contiguous row of h + 1 elements,
/// after the half-length transform: bin 0 becomes (re + im, +0) and bin h
/// (re - im, +0) of the old bin 0, as Rfft1D::forward computes them; then
/// rfft_pack_impl's bins and the conj of bin h/2. Bins its vector body
/// covers take that body's operations (fused under kFma, its conj and
/// negations as the same sign flips); the ones it hands to its scalar
/// remainder take the remainder's unfused ones.
template <class V, bool kFma>
void lane_rfft_pack_impl(double* s, const double* w, std::size_t h) {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t es = 2 * W;
  const V half_v = V::broadcast(0.5);
  const V zero = V::broadcast(0.0);
  {
    const V z0r = V::loadu(s), z0i = V::loadu(s + W);
    (z0r + z0i).storeu(s);
    zero.storeu(s + W);
    (z0r - z0i).storeu(s + h * es);
    zero.storeu(s + h * es + W);
  }
  const std::size_t kv = rfft_vector_end(h);
  for (std::size_t k = 1; k < h - k; ++k) {
    double* pk = s + k * es;
    double* pc = s + (h - k) * es;
    const V zkr = V::loadu(pk), zki = V::loadu(pk + W);
    const V zcr = V::loadu(pc), zci = V::loadu(pc + W);
    const V wr = V::broadcast(w[2 * k]), wi = V::broadcast(w[2 * k + 1]);
    const V er = half_v * (zkr + zcr);
    V ei, tr, ti, mi;
    if (k < kv) {
      ei = half_v * (zki + zci.neg());
      const V or_ = half_v * (zci - zki.neg());
      const V oi = half_v * (zcr + zkr.neg());
      lane_cmul<kFma>(wr, wi, or_, oi, tr, ti);
      mi = ti + ei.neg();
    } else {
      ei = half_v * (zki - zci);
      const V or_ = half_v * (zki + zci);
      const V oi = half_v * (zcr - zkr);
      tr = wr * or_ - wi * oi;
      ti = wr * oi + wi * or_;
      mi = ti - ei;
    }
    (er + tr).storeu(pk);
    (ei + ti).storeu(pk + W);
    (er - tr).storeu(pc);
    mi.storeu(pc + W);
  }
  if (h >= 2) {  // w^(h/2) = -i exactly: conj
    double* p = s + (h / 2) * es + W;
    V::loadu(p).neg().storeu(p);
  }
}

/// Lane Rfft1D inverse split over one contiguous row of h + 1 elements: the
/// bin-0 fold, rfft_unpack_impl's bins, and the conj of bin h/2, each result
/// element k stored at element bitrev[k] of out. Every element is first
/// multiplied by pre_scale (the column transform's 1/n0, deferred to here:
/// x * s0 is the same IEEE operation either way). Bins that
/// rfft_unpack_impl's vector body covers fuse under kFma; the ones it hands
/// to its scalar remainder stay unfused.
template <class V, bool kFma>
void lane_rfft_unpack_impl(const double* s, const double* w, std::size_t h, double pre_scale,
                           const std::size_t* bitrev, double* out) {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t es = 2 * W;
  const V half_v = V::broadcast(0.5);
  const V sc = V::broadcast(pre_scale);
  {
    const V e0 = V::loadu(s) * sc;
    const V eh = V::loadu(s + h * es) * sc;
    (half_v * (e0 + eh)).storeu(out);  // bitrev[0] == 0
    (half_v * (e0 - eh)).storeu(out + W);
  }
  const std::size_t kv = rfft_vector_end(h);
  for (std::size_t k = 1; k < h - k; ++k) {
    const double* pk = s + k * es;
    const double* pc = s + (h - k) * es;
    const V ar = V::loadu(pk) * sc, ai = V::loadu(pk + W) * sc;
    const V br = V::loadu(pc) * sc, bi = V::loadu(pc + W) * sc;
    const V er = half_v * (ar + br), ei = half_v * (ai - bi);
    const V otr = half_v * (ar - br), oti = half_v * (ai + bi);
    const V wr = V::broadcast(w[2 * k]), wi = V::broadcast(w[2 * k + 1]);
    V or_, oi;
    if (k < kv) {
      or_ = V::template mul_add<kFma>(wr, otr, wi * oti);
      oi = V::template mul_sub<kFma>(wr, oti, wi * otr);
    } else {
      or_ = wr * otr + wi * oti;
      oi = wr * oti - wi * otr;
    }
    double* qk = out + bitrev[k] * es;
    double* qc = out + bitrev[h - k] * es;
    (er - oi).storeu(qk);
    (ei + or_).storeu(qk + W);
    (er + oi).storeu(qc);
    (or_ - ei).storeu(qc + W);
  }
  if (h >= 2) {  // w^(h/2) = -i exactly: conj
    const double* p = s + (h / 2) * es;
    double* q = out + bitrev[h / 2] * es;
    (V::loadu(p) * sc).storeu(q);
    (V::loadu(p + W) * sc).neg().storeu(q + W);
  }
}

/// One four-row batch's lane row spectrum (lane r = grid row r) into nb
/// column blocks (lane c = spectral column 4b + c): per block, one 4x4
/// transpose of the real parts and one of the imaginary parts. Rows
/// r < nrows are stored, row r at out + r * nb * 2 * kWidth.
template <class V>
void lane_cols_in_impl(const double* s, std::size_t nb, std::size_t nrows, double* out) {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t es = 2 * W;
  const std::size_t rs = nb * es;
  for (std::size_t b = 0; b < nb; ++b) {
    const double* p = s + W * b * es;
    V re[W] = {V::loadu(p), V::loadu(p + es), V::loadu(p + 2 * es), V::loadu(p + 3 * es)};
    V im[W] = {V::loadu(p + W), V::loadu(p + es + W), V::loadu(p + 2 * es + W),
               V::loadu(p + 3 * es + W)};
    transpose4(re[0], re[1], re[2], re[3]);
    transpose4(im[0], im[1], im[2], im[3]);
    for (std::size_t r = 0; r < nrows; ++r) {
      re[r].storeu(out + r * rs + b * es);
      im[r].storeu(out + r * rs + b * es + W);
    }
  }
}

/// De-interleaves one column-buffer row (lane c of block b = column 4b + c)
/// into `cols` interleaved (re, im) bins: out[2j] = re(j), out[2j + 1] =
/// im(j).
template <class V>
void lane_cols_out_impl(const double* row, std::size_t cols, double* out) {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t es = 2 * W;
  std::size_t b = 0;
  for (; W * (b + 1) <= cols; ++b) {
    const V re = V::loadu(row + b * es), im = V::loadu(row + b * es + W);
    const V lo = V::unpack_lo(re, im), hi = V::unpack_hi(re, im);
    V::concat_lo(lo, hi).storeu(out + b * es);
    V::concat_hi(lo, hi).storeu(out + b * es + W);
  }
  for (std::size_t j = W * b; j < cols; ++j) {
    out[2 * j] = row[b * es + (j - W * b)];
    out[2 * j + 1] = row[b * es + W + (j - W * b)];
  }
}

/// Scales the h elements of a transformed row by `scale` and de-interleaves
/// them into kWidth real output rows: out[l][2j] = re_l(j) * scale,
/// out[l][2j + 1] = im_l(j) * scale (the Rfft1D real-sample unpacking).
template <class V>
void lane_rows_out_impl(const double* s, std::size_t h, double scale, double* const* out) {
  constexpr std::size_t W = V::kWidth;
  constexpr std::size_t es = 2 * W;
  const V sc = V::broadcast(scale);
  std::size_t j = 0;
  for (; j + 2 <= h; j += 2) {
    const double* p = s + j * es;
    V r0 = V::loadu(p) * sc;
    V r1 = V::loadu(p + W) * sc;
    V r2 = V::loadu(p + es) * sc;
    V r3 = V::loadu(p + es + W) * sc;
    transpose4(r0, r1, r2, r3);
    r0.storeu(out[0] + 2 * j);
    r1.storeu(out[1] + 2 * j);
    r2.storeu(out[2] + 2 * j);
    r3.storeu(out[3] + 2 * j);
  }
  for (; j < h; ++j) {  // h == 1
    for (std::size_t l = 0; l < W; ++l) {
      out[l][2 * j] = s[j * es + l] * scale;
      out[l][2 * j + 1] = s[j * es + W + l] * scale;
    }
  }
}

}  // namespace turbda::fft::detail
