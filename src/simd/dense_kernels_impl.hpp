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

// ---- EnSF's clamped likelihood step ----

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

// ---- Row-major products: tensor::gemm and EnSF's score products ----
//
// Each output element starts at +0.0 and adds the unfused products in
// ascending reduction index. There is no kFma variant, so every level gives
// the same bits, and an element's value does not depend on which tile
// computed it. A register tile of up to kProductRows rows by kProductVecs
// vectors keeps its accumulators in registers for the whole reduction, and
// each load of B serves every row of the tile, so B is read once per row
// group. The tile helpers are static for the reason given at gaussian_pairs
// below.

// Ten accumulators: 5 x 2 measured fastest for both EnSF products, at a
// 4-thread block's 5 rows and at the whole 20-member ensemble (README,
// "Score products on Vec kernels").
inline constexpr std::size_t kProductRows = 5;
inline constexpr std::size_t kProductVecs = 2;

/// out[r*n + v*W + l] = sum_p a[r*lda + p] * b[p*n + v*W + l] for r < R, v < NV.
template <class V, std::size_t R, std::size_t NV>
static void product_tile(double* out, const double* a, std::size_t lda, const double* b,
                         std::size_t k, std::size_t n) {
  constexpr std::size_t W = V::kWidth;
  V acc[R][NV];
  for (auto& row : acc)
    for (V& v : row) v = V::broadcast(0.0);
  for (std::size_t p = 0; p < k; ++p) {
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v) bv[v] = V::loadu(b + p * n + v * W);
    for (std::size_t r = 0; r < R; ++r) {
      const V s = V::broadcast(a[r * lda + p]);
      for (std::size_t v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + s * bv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < NV; ++v) acc[r][v].storeu(out + r * n + v * W);
}

/// product_tile shrunk to rows x vecs (1 <= rows <= R, 1 <= vecs <= NV).
template <class V, std::size_t R, std::size_t NV>
static void product_tile_upto(std::size_t rows, std::size_t vecs, double* out, const double* a,
                              std::size_t lda, const double* b, std::size_t k, std::size_t n) {
  if constexpr (R > 1)
    if (rows < R) return product_tile_upto<V, R - 1, NV>(rows, vecs, out, a, lda, b, k, n);
  if constexpr (NV > 1)
    if (vecs < NV) return product_tile_upto<V, R, NV - 1>(rows, vecs, out, a, lda, b, k, n);
  product_tile<V, R, NV>(out, a, lda, b, k, n);
}

template <class V>
void matmul_rows_impl(double* out, const double* a, std::size_t lda, std::size_t rows,
                      const double* b, std::size_t k, std::size_t n) {
  constexpr std::size_t W = V::kWidth;
  const std::size_t vecs = n / W;
  for (std::size_t i = 0; i < rows; i += kProductRows) {
    const std::size_t live = std::min(kProductRows, rows - i);
    const double* ai = a + i * lda;
    double* oi = out + i * n;
    for (std::size_t v = 0; v < vecs; v += kProductVecs)
      product_tile_upto<V, kProductRows, kProductVecs>(live, std::min(kProductVecs, vecs - v),
                                                       oi + v * W, ai, lda, b + v * W, k, n);
    for (std::size_t r = 0; r < live; ++r)
      for (std::size_t c = vecs * W; c < n; ++c) {
        double s = 0.0;
        for (std::size_t p = 0; p < k; ++p) s = s + ai[r * lda + p] * b[p * n + c];
        oi[r * n + c] = s;
      }
  }
}

// ---- Gaussian noise: Philox4x32-10 blocks and Box–Muller on Vec lanes ----
//
// Only unfused + - * / and sqrt (all correctly rounded), exact integer ops
// and bit copies, so there is no kFma variant and every level gives the
// same bits. The helpers are static: with vague linkage the linker keeps one
// TU's copy for the whole program, and a copy from a TU built without the
// kernel flags (a test under -march=native) would put FMAs into the kernel.

/// ln(x) per lane for positive normal x: the fdlibm/musl log. x = 2^k (1 + f)
/// with 1 + f in [sqrt(2)/2, sqrt(2)), s = f / (2 + f), and
/// log(1 + f) = f - hfsq + s (hfsq + R(s^2)), R the Lg1-Lg7 minimax
/// polynomial. Error below 1 ulp.
template <class V>
[[nodiscard]] static V lane_log(V x) {
  using U = typename V::Bits;
  // Biasing the high word by 0x3ff00000 - 0x3fe6a09e moves the exponent
  // step from 1 to sqrt(2)/2; the mantissa is then re-based on sqrt(2)/2.
  const U ix = x.bits() + U::broadcast(std::uint64_t{0x3ff00000 - 0x3fe6a09e} << 32);
  // k = exponent - 1023, exact through the 2^52 exponent trick.
  const V k = V::from_bits((ix >> 52) | U::broadcast(0x4330000000000000)) -
              V::broadcast(0x1p52 + 1023.0);
  const V m = V::from_bits((ix & U::broadcast(0x000fffffffffffff)) +
                           U::broadcast(std::uint64_t{0x3fe6a09e} << 32));
  constexpr double kLg1 = 6.666666666666735130e-01, kLg2 = 3.999999999940941908e-01,
                   kLg3 = 2.857142874366239149e-01, kLg4 = 2.222219843214978396e-01,
                   kLg5 = 1.818357216161805012e-01, kLg6 = 1.531383769920937332e-01,
                   kLg7 = 1.479819860511658591e-01;
  constexpr double kLn2Hi = 6.93147180369123816490e-01, kLn2Lo = 1.90821492927058770002e-10;
  const auto c = [](double v) { return V::broadcast(v); };
  const V f = m - c(1.0);
  const V hfsq = c(0.5) * f * f;
  const V s = f / (c(2.0) + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (c(kLg2) + w * (c(kLg4) + w * c(kLg6)));
  const V t2 = z * (c(kLg1) + w * (c(kLg3) + w * (c(kLg5) + w * c(kLg7))));
  const V r = t2 + t1;
  return s * (hfsq + r) + k * c(kLn2Lo) - hfsq + f + k * c(kLn2Hi);
}

/// sin(2 pi u) and cos(2 pi u) per lane for u in [0, 1). The argument is
/// reduced exactly in quarter turns: y = 4u, q = nearest integer to y,
/// r = y - q in [-1/2, 1/2]; fdlibm's __kernel_sin / __kernel_cos evaluate
/// theta = r pi/2 on [-pi/4, pi/4], and q mod 4 swaps and negates them by
/// bit copies.
template <class V>
static void lane_sincos_2pi(V u, V& sin_out, V& cos_out) {
  constexpr double kS1 = -1.66666666666666324348e-01, kS2 = 8.33333333332248946124e-03,
                   kS3 = -1.98412698298579493134e-04, kS4 = 2.75573137070700676789e-06,
                   kS5 = -2.50507602534068634195e-08, kS6 = 1.58969099521155010221e-10;
  constexpr double kC1 = 4.16666666666666019037e-02, kC2 = -1.38888888888741095749e-03,
                   kC3 = 2.48015872894767294178e-05, kC4 = -2.75573143513906633035e-07,
                   kC5 = 2.08757232129817482790e-09, kC6 = -1.13596475577881948265e-11;
  const auto c = [](double v) { return V::broadcast(v); };
  const V magic = c(0x1.8p52);  // y + magic rounds y to an integer
  const V y = c(4.0) * u;
  const V qm = y + magic;  // q sits in the low mantissa bits
  const V x = (y - (qm - magic)) * c(1.57079632679489661923);
  const V z = x * x;
  const V w = z * z;
  // __kernel_sin(x, 0)
  const V sr = c(kS2) + z * (c(kS3) + z * c(kS4)) + z * w * (c(kS5) + z * c(kS6));
  const V sn = x + z * x * (c(kS1) + z * sr);
  // __kernel_cos(x, 0)
  const V cr =
      z * (c(kC1) + z * (c(kC2) + z * c(kC3))) + w * w * (c(kC4) + z * (c(kC5) + z * c(kC6)));
  const V hz = c(0.5) * z;
  const V cw = c(1.0) - hz;
  const V cs = cw + (((c(1.0) - cw) - hz) + z * cr);
  // Quadrant q mod 4: odd q swaps sin and cos; sin is negated for q = 2, 3
  // and cos for q = 1, 2.
  const typename V::Bits q = qm.bits();
  const V odd = V::from_bits(q << 63);
  sin_out = V::from_bits(V::select(odd, cs, sn).bits() ^ ((q >> 1) << 63));
  cos_out = V::from_bits(V::select(odd, sn, cs).bits() ^ ((q ^ (q >> 1)) << 63));
}

/// The exact double of a lane integer below 2^53 (AVX2 has no int64 ->
/// double conversion): its high 21 and low 32 bits become exact doubles by
/// the 2^84 / 2^52 exponent trick, and their sum is exact.
template <class V>
[[nodiscard]] static V u53_to_double(typename V::Bits x) {
  using U = typename V::Bits;
  const V hi = V::from_bits((x >> 32) | U::broadcast(0x4530000000000000)) -
               V::broadcast(0x1p84 + 0x1p52);
  const V lo = V::from_bits((x & U::broadcast(0xffffffff)) | U::broadcast(0x4330000000000000));
  return hi + lo;
}

/// Box–Muller pairs from consecutive Philox4x32-10 blocks, four blocks per
/// step, one per lane. Block j has counter words 0-1 = block + j (64-bit,
/// the carry rng::Rng applies), words 2-3 = stream, and the 64-bit key; its
/// words w0..w3 give u1 = 1 - ((w1:w0) >> 11) 2^-53 and
/// u2 = ((w3:w2) >> 11) 2^-53, exactly as rng::Rng::uniform, and the pair
/// (r cos 2 pi u2, r sin 2 pi u2), r = sqrt(-2 ln u1), lands at out[2j],
/// out[2j + 1]. A last partial step runs the same lanes and stores only the
/// live ones.
template <class V>
void gaussian_pairs_impl(double* out, std::size_t pairs, std::uint64_t block,
                         std::uint64_t stream, std::uint64_t key) {
  using U = typename V::Bits;
  using rng::Philox4x32;
  constexpr std::size_t W = V::kWidth;
  const U mul0 = U::broadcast(Philox4x32::kMul0);
  const U mul1 = U::broadcast(Philox4x32::kMul1);
  const U weyl0 = U::broadcast(Philox4x32::kWeyl0);
  const U weyl1 = U::broadcast(Philox4x32::kWeyl1);
  const U lo32 = U::broadcast(0xffffffff);
  const U lane = U::lanes(0, 1, 2, 3);
  const V scale = V::broadcast(0x1.0p-53);
  for (std::size_t p = 0; p < pairs; p += W) {
    // Words live in the low halves of 64-bit lanes. The high halves collect
    // junk (c1 = p1, not lo(p1); the keys grow past 32 bits), but no junk
    // bit ever moves into a low half: xor and + carry nothing down,
    // vpmuludq reads only low halves, and >> 32 applies only to the clean
    // 64-bit products. The output words are trimmed once at the end.
    const U ctr = U::broadcast(block + p) + lane;
    U c0 = ctr, c1 = ctr >> 32;
    U c2 = U::broadcast(stream), c3 = U::broadcast(stream >> 32);
    U k0 = U::broadcast(key), k1 = U::broadcast(key >> 32);
    for (int r = 0; r < 10; ++r) {
      const U p0 = U::mul_u32(mul0, c0);
      const U p1 = U::mul_u32(mul1, c2);
      c0 = (p1 >> 32) ^ c1 ^ k0;
      c1 = p1;
      c2 = (p0 >> 32) ^ c3 ^ k1;
      c3 = p0;
      k0 = k0 + weyl0;
      k1 = k1 + weyl1;
    }
    const V u1 = V::broadcast(1.0) - u53_to_double<V>(((c1 << 32) | (c0 & lo32)) >> 11) * scale;
    const V u2 = u53_to_double<V>(((c3 << 32) | (c2 & lo32)) >> 11) * scale;
    const V rad = V::sqrt(V::broadcast(-2.0) * lane_log(u1));
    V sn, cs;
    lane_sincos_2pi(u2, sn, cs);
    const V g_cos = rad * cs, g_sin = rad * sn;
    // Interleave to (cos, sin) pairs in lane order.
    const V p02 = V::unpack_lo(g_cos, g_sin), p13 = V::unpack_hi(g_cos, g_sin);
    if (p + W <= pairs) {
      V::concat_lo(p02, p13).storeu(out + 2 * p);
      V::concat_hi(p02, p13).storeu(out + 2 * p + W);
    } else {
      double tail[2 * W];
      V::concat_lo(p02, p13).storeu(tail);
      V::concat_hi(p02, p13).storeu(tail + W);
      std::memcpy(out + 2 * p, tail, 2 * (pairs - p) * sizeof(double));
    }
  }
}

}  // namespace turbda::simd::detail
