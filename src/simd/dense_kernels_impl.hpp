// Generic small-dense kernels over the portable simd::Vec API — one kernel
// text instantiated per backend (VecScalar in kernels.cpp, VecAvx2 in
// kernels_avx2.cpp, both through kernel_table.hpp) and per multiply-add mode
// (kFma).
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

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "rng/philox.hpp"
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

// ---- EnSF's Euler–Maruyama update ----
//
// One pass per sample instead of four: per element the same operations in
// the same order as the scale, add_scaled, clamped likelihood step and
// add_scaled calls it replaces, so it has their bits at every level (the
// two scaled adds fused under kFma, as add_scaled is).

template <class V, bool kFma>
void ensf_update_impl(double* z, const double* wx, const double* grad, const double* noise,
                      std::size_t n, double c0, double c1, double cl, double lim,
                      double noise_sd) {
  constexpr std::size_t W = V::kWidth;
  const V vc0 = V::broadcast(c0), vc1 = V::broadcast(c1), vcl = V::broadcast(cl);
  const V vlo = V::broadcast(-lim), vhi = V::broadcast(lim), vsd = V::broadcast(noise_sd);
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    V zi = vc0 * V::loadu(z + i);
    zi = V::template mul_add<kFma>(vc1, V::loadu(wx + i), zi);
    zi = zi + V::min(V::max(vcl * V::loadu(grad + i), vlo), vhi);
    V::template mul_add<kFma>(vsd, V::loadu(noise + i), zi).storeu(z + i);
  }
  const auto fmadd = [](double a, double b, double c) {
    if constexpr (kFma) return std::fma(a, b, c);
    return a * b + c;
  };
  for (; i < n; ++i) {
    double t = cl * grad[i];
    t = t > -lim ? t : -lim;  // vmaxpd semantics
    t = t < lim ? t : lim;    // vminpd semantics
    z[i] = fmadd(noise_sd, noise[i], fmadd(c1, wx[i], c0 * z[i]) + t);
  }
}

// ---- Row-major products: tensor::gemm and EnSF's score products ----
//
// One kernel text, two element types: T = double (matmul_rows) runs on V,
// T = float (matmul_rows_f32, EnSF's W X) on V::F32 and widens each sum to
// double on store. Each output element starts at +0 and adds the unfused
// products in ascending reduction index. There is no kFma variant, so every
// level gives the same bits, and an element's value does not depend on
// which tile computed it. A register tile of up to kProductRows rows by
// kProductVecs vectors keeps its accumulators in registers for the whole
// reduction, and each load of B serves every row of the tile, so B is read
// once per row group. The tile helpers are static for the reason given at
// gaussian_pairs below.

// Ten accumulators: 5 x 2 measured fastest for both EnSF products, at a
// 4-thread block's 5 rows and at the whole 20-member ensemble (README,
// "Score products on Vec kernels").
inline constexpr std::size_t kProductRows = 5;
inline constexpr std::size_t kProductVecs = 2;

/// The register a product over T runs on.
template <class V, class T>
using ProductVec = std::conditional_t<std::is_same_v<T, float>, typename V::F32, V>;

/// out[r*n + v*PW + l] = sum_p a[r*lda + p] * b[p*n + v*PW + l] for r < R,
/// v < NV, PW the register's width.
template <class V, class T, std::size_t R, std::size_t NV>
static void product_tile(double* out, const T* a, std::size_t lda, const T* b, std::size_t k,
                         std::size_t n) {
  using P = ProductVec<V, T>;
  constexpr std::size_t PW = P::kWidth;
  P acc[R][NV];
  for (auto& row : acc)
    for (P& v : row) v = P::broadcast(T{0});
  for (std::size_t p = 0; p < k; ++p) {
    P bv[NV];
    for (std::size_t v = 0; v < NV; ++v) bv[v] = P::loadu(b + p * n + v * PW);
    for (std::size_t r = 0; r < R; ++r) {
      const P s = P::broadcast(a[r * lda + p]);
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + s * bv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v) {
      double* o = out + r * n + v * PW;
      if constexpr (std::is_same_v<T, float>) {
        V::from_f32_lo(acc[r][v]).storeu(o);
        V::from_f32_hi(acc[r][v]).storeu(o + V::kWidth);
      } else {
        acc[r][v].storeu(o);
      }
    }
}

/// product_tile shrunk to rows x vecs (1 <= rows <= R, 1 <= vecs <= NV).
template <class V, class T, std::size_t R, std::size_t NV>
static void product_tile_upto(std::size_t rows, std::size_t vecs, double* out, const T* a,
                              std::size_t lda, const T* b, std::size_t k, std::size_t n) {
  if constexpr (R > 1)
    if (rows < R) return product_tile_upto<V, T, R - 1, NV>(rows, vecs, out, a, lda, b, k, n);
  if constexpr (NV > 1)
    if (vecs < NV) return product_tile_upto<V, T, R, NV - 1>(rows, vecs, out, a, lda, b, k, n);
  product_tile<V, T, R, NV>(out, a, lda, b, k, n);
}

template <class V, class T>
void matmul_rows_impl(double* out, const T* a, std::size_t lda, std::size_t rows, const T* b,
                      std::size_t k, std::size_t n) {
  constexpr std::size_t PW = ProductVec<V, T>::kWidth;
  const std::size_t vecs = n / PW;
  for (std::size_t i = 0; i < rows; i += kProductRows) {
    const std::size_t live = std::min(kProductRows, rows - i);
    const T* ai = a + i * lda;
    double* oi = out + i * n;
    for (std::size_t v = 0; v < vecs; v += kProductVecs)
      product_tile_upto<V, T, kProductRows, kProductVecs>(
          live, std::min(kProductVecs, vecs - v), oi + v * PW, ai, lda, b + v * PW, k, n);
    for (std::size_t r = 0; r < live; ++r)
      for (std::size_t c = vecs * PW; c < n; ++c) {
        T s = 0;
        for (std::size_t p = 0; p < k; ++p) s = s + ai[r * lda + p] * b[p * n + c];
        oi[r * n + c] = s;
      }
  }
}

// ---- Gaussian noise: Philox4x32-10 blocks and Box–Muller on Vec lanes ----
//
// The Philox rounds, the uniforms and both argument reductions run exactly
// on four double lanes; log, sqrt and the sin/cos polynomials run on eight
// float lanes, two Philox groups at once. Only unfused + - * / and sqrt (all
// correctly rounded), exact integer ops, round-to-nearest conversions and
// bit copies, so there is no kFma variant and every level gives the same
// bits. The helpers are static: with vague linkage the linker keeps one
// TU's copy for the whole program, and a copy from a TU built without the
// kernel flags (a test under -march=native) would put FMAs into the kernel.

/// The uniforms of the eight Philox4x32-10 blocks ctr .. ctr + 7 in two
/// groups of four lanes (group g holds blocks ctr + 4g .. ctr + 4g + 3).
/// Block j has counter words 0-1 = j (64-bit, the carry rng::Rng applies),
/// words 2-3 = stream, and the 64-bit key; its words w0..w3 give
/// u1 = 1 - ((w1:w0) >> 11) 2^-53 and u2 = ((w3:w2) >> 11) 2^-53, exactly
/// as rng::Rng::uniform. The two groups' rounds interleave and share the
/// key schedule. Forced inline: gaussian_pairs calls it twice, and out of
/// line its uniforms go through memory (the scalar table ran 1.8x slower).
template <class V>
[[gnu::always_inline]] static inline void philox_uniforms(std::uint64_t ctr, std::uint64_t stream,
                                                          std::uint64_t key, V u1[2], V u2[2]) {
  using U = typename V::Bits;
  using rng::Philox4x32;
  const U mul0 = U::broadcast(Philox4x32::kMul0);
  const U mul1 = U::broadcast(Philox4x32::kMul1);
  const U lo32 = U::broadcast(0xffffffff);
  // Words live in the low halves of 64-bit lanes. The high halves collect
  // junk (c1 = p1, not lo(p1); the keys grow past 32 bits), but no junk bit
  // ever moves into a low half: xor and + carry nothing down, vpmuludq
  // reads only low halves, and >> 32 applies only to the clean 64-bit
  // products. The output words are trimmed once at the end.
  U c0[2], c1[2], c2[2], c3[2];
  for (std::size_t g = 0; g < 2; ++g) {
    const U c = U::broadcast(ctr + 4 * g) + U::lanes(0, 1, 2, 3);
    c0[g] = c;
    c1[g] = c >> 32;
    c2[g] = U::broadcast(stream);
    c3[g] = U::broadcast(stream >> 32);
  }
  U k0 = U::broadcast(key), k1 = U::broadcast(key >> 32);
  for (int r = 0; r < 10; ++r) {
    for (std::size_t g = 0; g < 2; ++g) {
      const U p0 = U::mul_u32(mul0, c0[g]);
      const U p1 = U::mul_u32(mul1, c2[g]);
      c0[g] = (p1 >> 32) ^ c1[g] ^ k0;
      c1[g] = p1;
      c2[g] = (p0 >> 32) ^ c3[g] ^ k1;
      c3[g] = p0;
    }
    k0 = k0 + U::broadcast(Philox4x32::kWeyl0);
    k1 = k1 + U::broadcast(Philox4x32::kWeyl1);
  }
  // (w_hi:w_lo) >> 11 is below 2^53: its high 21 and low 32 bits become
  // exact doubles by the 2^84 / 2^52 exponent trick (AVX2 has no int64 ->
  // double conversion), and their sum is exact.
  const auto u53 = [&](U w_lo, U w_hi) {
    const U x = ((w_hi << 32) | (w_lo & lo32)) >> 11;
    const V hi = V::from_bits((x >> 32) | U::broadcast(0x4530000000000000)) -
                 V::broadcast(0x1p84 + 0x1p52);
    const V lo = V::from_bits((x & lo32) | U::broadcast(0x4330000000000000));
    return (hi + lo) * V::broadcast(0x1.0p-53);
  };
  for (std::size_t g = 0; g < 2; ++g) {
    u1[g] = V::broadcast(1.0) - u53(c0[g], c1[g]);
    u2[g] = u53(c2[g], c3[g]);
  }
}

/// ln(x) in float for the positive normal doubles x_lo (lanes 0-3) and x_hi
/// (lanes 4-7). fdlibm's exponent split runs in double: x = 2^k (1 + f)
/// with 1 + f in [sqrt(2)/2, sqrt(2)), so f = (1 + f) - 1 is exact, and
/// only f is rounded to float. So ln x keeps float relative precision where
/// x itself would round to 1.0f. musl's logf then gives
/// log(1 + f) = f - hfsq + s (hfsq + R(s^2)), s = f / (2 + f), R the
/// Lg1-Lg4 minimax polynomial (error below 1 ulp).
template <class V>
[[nodiscard]] static typename V::F32 lane_log(V x_lo, V x_hi) {
  using F = typename V::F32;
  using U = typename V::Bits;
  const auto split = [](V x, V& k, V& f) {
    // Biasing the high word by 0x3ff00000 - 0x3fe6a09e moves the exponent
    // step from 1 to sqrt(2)/2; the mantissa is then re-based on sqrt(2)/2.
    const U ix = x.bits() + U::broadcast(std::uint64_t{0x3ff00000 - 0x3fe6a09e} << 32);
    // k = exponent - 1023, exact through the 2^52 exponent trick.
    k = V::from_bits((ix >> 52) | U::broadcast(0x4330000000000000)) -
        V::broadcast(0x1p52 + 1023.0);
    f = V::from_bits((ix & U::broadcast(0x000fffffffffffff)) +
                     U::broadcast(std::uint64_t{0x3fe6a09e} << 32)) -
        V::broadcast(1.0);
  };
  V k_lo, f_lo, k_hi, f_hi;
  split(x_lo, k_lo, f_lo);
  split(x_hi, k_hi, f_hi);
  const F k = V::to_f32(k_lo, k_hi), f = V::to_f32(f_lo, f_hi);
  constexpr float kLg1 = 0xaaaaaa.0p-24f, kLg2 = 0xccce13.0p-25f, kLg3 = 0x91e9ee.0p-25f,
                  kLg4 = 0xf89e26.0p-26f;
  constexpr float kLn2Hi = 6.9313812256e-01f, kLn2Lo = 9.0580006145e-06f;
  const auto c = [](float v) { return F::broadcast(v); };
  const F s = f / (c(2.0f) + f);
  const F z = s * s;
  const F w = z * z;
  const F t1 = w * (c(kLg2) + w * c(kLg4));
  const F t2 = z * (c(kLg1) + w * c(kLg3));
  const F r = t2 + t1;
  const F hfsq = c(0.5f) * f * f;
  return s * (hfsq + r) + k * c(kLn2Lo) - hfsq + f + k * c(kLn2Hi);
}

/// sin(2 pi u) and cos(2 pi u) at float precision for u in [0, 1), lanes
/// 0-3 from u_lo and 4-7 from u_hi, returned widened to double ([0] the
/// low lanes). The argument is reduced exactly in double, in quarter turns:
/// y = 4u, q = nearest integer to y, r = y - q in [-1/2, 1/2]. Only r is
/// rounded to float; Cephes' sinf / cosf polynomials evaluate theta = r pi/2
/// on [-pi/4, pi/4], and q mod 4 then swaps and negates the widened values
/// by bit copies.
template <class V>
static void lane_sincos_2pi(V u_lo, V u_hi, V sin_out[2], V cos_out[2]) {
  using F = typename V::F32;
  const V magic = V::broadcast(0x1.8p52);  // y + magic rounds y to an integer
  const V y_lo = V::broadcast(4.0) * u_lo, y_hi = V::broadcast(4.0) * u_hi;
  const V q_lo = y_lo + magic, q_hi = y_hi + magic;  // q sits in the low mantissa bits
  constexpr float kS1 = -1.6666654611e-1f, kS2 = 8.3321608736e-3f, kS3 = -1.9515295891e-4f;
  constexpr float kC1 = 4.166664568298827e-2f, kC2 = -1.388731625493765e-3f,
                  kC3 = 2.443315711809948e-5f;
  const auto c = [](float v) { return F::broadcast(v); };
  const F x = V::to_f32(y_lo - (q_lo - magic), y_hi - (q_hi - magic)) * c(1.57079632679489661923f);
  const F z = x * x;
  const F sn = x + z * x * (c(kS1) + z * (c(kS2) + z * c(kS3)));
  const F cs = c(1.0f) - c(0.5f) * z + z * z * (c(kC1) + z * (c(kC2) + z * c(kC3)));
  // Quadrant q mod 4: odd q swaps sin and cos; sin is negated for q = 2, 3
  // and cos for q = 1, 2.
  const V sn_w[2] = {V::from_f32_lo(sn), V::from_f32_hi(sn)};
  const V cs_w[2] = {V::from_f32_lo(cs), V::from_f32_hi(cs)};
  const typename V::Bits q[2] = {q_lo.bits(), q_hi.bits()};
  for (std::size_t g = 0; g < 2; ++g) {
    const V odd = V::from_bits(q[g] << 63);
    sin_out[g] = V::from_bits(V::select(odd, cs_w[g], sn_w[g]).bits() ^ ((q[g] >> 1) << 63));
    cos_out[g] =
        V::from_bits(V::select(odd, sn_w[g], cs_w[g]).bits() ^ ((q[g] ^ (q[g] >> 1)) << 63));
  }
}

/// Box–Muller pairs from consecutive Philox4x32-10 blocks, eight blocks per
/// step in two groups of four lanes: block j (the uniforms of
/// philox_uniforms) gives the pair (r cos 2 pi u2, r sin 2 pi u2),
/// r = sqrt(-2 ln u1), at out[2j], out[2j + 1]. r, cos and sin are floats,
/// so each value is rng::Rng::gaussian's at float precision. A last partial
/// step runs the same lanes and stores only the live ones. Each step draws
/// the next step's blocks before its own Box–Muller, so the two independent
/// chains interleave (~5% faster than one after the other).
template <class V>
void gaussian_pairs_impl(double* out, std::size_t pairs, std::uint64_t block,
                         std::uint64_t stream, std::uint64_t key) {
  using F = typename V::F32;
  constexpr std::size_t W = V::kWidth;
  V u1[2], u2[2];
  philox_uniforms(block, stream, key, u1, u2);
  for (std::size_t p = 0; p < pairs; p += 2 * W) {
    V next_u1[2], next_u2[2];
    philox_uniforms(block + p + 2 * W, stream, key, next_u1, next_u2);
    const F rad = F::sqrt(F::broadcast(-2.0f) * lane_log(u1[0], u1[1]));
    const V r[2] = {V::from_f32_lo(rad), V::from_f32_hi(rad)};
    V sn[2], cs[2];
    lane_sincos_2pi(u2[0], u2[1], sn, cs);
    double tail[4 * W];
    double* const dst = p + 2 * W <= pairs ? out + 2 * p : tail;
    for (std::size_t g = 0; g < 2; ++g) {
      // Interleave to (cos, sin) pairs in lane order.
      const V g_cos = r[g] * cs[g], g_sin = r[g] * sn[g];
      const V p02 = V::unpack_lo(g_cos, g_sin), p13 = V::unpack_hi(g_cos, g_sin);
      V::concat_lo(p02, p13).storeu(dst + 2 * W * g);
      V::concat_hi(p02, p13).storeu(dst + 2 * W * g + W);
    }
    if (dst == tail) std::memcpy(out + 2 * p, tail, 2 * (pairs - p) * sizeof(double));
    for (std::size_t g = 0; g < 2; ++g) {
      u1[g] = next_u1[g];
      u2[g] = next_u2[g];
    }
  }
}

}  // namespace turbda::simd::detail
