// Portable SIMD value type: the one vector abstraction in the tree.
//
// `Vec` models a 256-bit register of four doubles with the small fixed set of
// lane operations the dense, SQG pointwise and RNG kernels need: load/store
// (and four floats widened or rounded), broadcast, +/-/*, fused and unfused
// multiply-add/-sub, addsub/fmaddsub for interleaved complex pairs, sign
// flips, in-register shuffles (pair swap, even/odd duplicate, 128-bit half
// concat, unpack, and the 4x4 transpose built from them), and — for the
// lane-batched solvers — correctly-rounded / and sqrt (IEEE-exact in both
// backends, so lane arithmetic matches the scalar spelling bitwise),
// min/max, ordered compares producing all-ones lane masks, sign-bit select
// and movemask.
//
// Each backend also has a small integer companion, `V::Bits`: four uint64
// lanes with broadcast, +, ^, &, |, shifts, the low-32 x low-32 -> 64
// multiply (vpmuludq) and bitcasts to and from V. It carries the bit-level
// work of lane kernels — counter-based RNG rounds and exponent-field tricks
// — whose every operation is exact, so it is identical in both backends.
//
// And a float companion, `V::F32`: eight floats, the register of one
// single-precision lane element of the FFT (four real parts, then four
// imaginary parts; see simd/kernels.hpp), and of the float halves of the
// EnSF noise and mean kernels. It has load/store, broadcast, +/-/*,
// correctly-rounded / and sqrt, fused and unfused multiply-add, sign flips
// of either 128-bit half, the half swap and concat, and the per-half unpack
// and pair shuffles that build a 4x4 transpose within each half. V converts
// to and from it four lanes at a time, through memory (load_f32 widens four
// floats, store_f32 rounds to nearest) or in registers (to_f32 rounds two
// Vs into one F32, from_f32_lo / from_f32_hi widen either half).
//
// Two interchangeable backends implement that interface:
//
//  - VecScalar: portable C++ emulation, four doubles (VecF32Scalar: eight
//    floats) in an array. One IEEE operation per lane operation, so a
//    kernel instantiated with VecScalar is the bitwise reference for the
//    same kernel instantiated with VecAvx2.
//    Translation units that instantiate it are compiled with
//    -ffp-contract=off and auto-vectorization disabled (see CMakeLists.txt)
//    so the emulation never silently grows FMA contractions.
//  - VecAvx2: AVX2 intrinsics, only defined when the TU is compiled with
//    -mavx2 (each backend's kernel table lives in its own TU, kernels.cpp or
//    kernels_avx2.cpp; simd::kernels_for picks the table at the level
//    simd/dispatch.cpp detects, never inline ISA checks).
//
// The `kFma` template flag on the multiply-add entry points selects between
// fused (one rounding, AVX2+FMA or std::fma) and unfused (mul then add, the
// bitwise-reproducible level) arithmetic at compile time, so one kernel text
// instantiates all three dispatch levels.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace turbda::simd {

/// Four uint64 lanes emulated in scalar code: VecScalar's integer companion.
struct VecU64Scalar {
  std::uint64_t v[4];

  [[nodiscard]] static VecU64Scalar broadcast(std::uint64_t x) { return {{x, x, x, x}}; }
  [[nodiscard]] static VecU64Scalar lanes(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                                          std::uint64_t l3) {
    return {{l0, l1, l2, l3}};
  }
  friend VecU64Scalar operator+(VecU64Scalar a, VecU64Scalar b) {
    return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
  }
  friend VecU64Scalar operator^(VecU64Scalar a, VecU64Scalar b) {
    return {{a.v[0] ^ b.v[0], a.v[1] ^ b.v[1], a.v[2] ^ b.v[2], a.v[3] ^ b.v[3]}};
  }
  friend VecU64Scalar operator&(VecU64Scalar a, VecU64Scalar b) {
    return {{a.v[0] & b.v[0], a.v[1] & b.v[1], a.v[2] & b.v[2], a.v[3] & b.v[3]}};
  }
  friend VecU64Scalar operator|(VecU64Scalar a, VecU64Scalar b) {
    return {{a.v[0] | b.v[0], a.v[1] | b.v[1], a.v[2] | b.v[2], a.v[3] | b.v[3]}};
  }
  /// Logical shifts; n in [0, 63] (callers pass constants).
  friend VecU64Scalar operator<<(VecU64Scalar a, int n) {
    return {{a.v[0] << n, a.v[1] << n, a.v[2] << n, a.v[3] << n}};
  }
  friend VecU64Scalar operator>>(VecU64Scalar a, int n) {
    return {{a.v[0] >> n, a.v[1] >> n, a.v[2] >> n, a.v[3] >> n}};
  }
  /// Low 32 bits of a times low 32 bits of b, full 64-bit product (vpmuludq).
  [[nodiscard]] static VecU64Scalar mul_u32(VecU64Scalar a, VecU64Scalar b) {
    constexpr std::uint64_t kLo = 0xffffffffu;
    return {{(a.v[0] & kLo) * (b.v[0] & kLo), (a.v[1] & kLo) * (b.v[1] & kLo),
             (a.v[2] & kLo) * (b.v[2] & kLo), (a.v[3] & kLo) * (b.v[3] & kLo)}};
  }
};

/// Eight floats emulated in scalar code: VecScalar's float companion. Each
/// op is one IEEE float operation per lane (the TUs that instantiate it are
/// built with FLT_EVAL_METHOD 0, so nothing is evaluated wider).
struct VecF32Scalar {
  static constexpr std::size_t kWidth = 8;
  float v[kWidth];

  [[nodiscard]] static VecF32Scalar loadu(const float* p) {
    VecF32Scalar r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  void storeu(float* p) const {
    for (std::size_t i = 0; i < kWidth; ++i) p[i] = v[i];
  }
  [[nodiscard]] static VecF32Scalar broadcast(float x) { return {{x, x, x, x, x, x, x, x}}; }

  friend VecF32Scalar operator+(VecF32Scalar a, VecF32Scalar b) {
    for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = a.v[i] + b.v[i];
    return a;
  }
  friend VecF32Scalar operator-(VecF32Scalar a, VecF32Scalar b) {
    for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = a.v[i] - b.v[i];
    return a;
  }
  friend VecF32Scalar operator*(VecF32Scalar a, VecF32Scalar b) {
    for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = a.v[i] * b.v[i];
    return a;
  }
  /// Lane division and square root, correctly rounded (vdivps / vsqrtps).
  friend VecF32Scalar operator/(VecF32Scalar a, VecF32Scalar b) {
    for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = a.v[i] / b.v[i];
    return a;
  }
  [[nodiscard]] static VecF32Scalar sqrt(VecF32Scalar a) {
    for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = std::sqrt(a.v[i]);
    return a;
  }
  /// a * b + c; fused to one rounding when kFma (std::fma on floats is
  /// correctly rounded, so it matches vfmadd...ps exactly).
  template <bool kFma>
  [[nodiscard]] static VecF32Scalar mul_add(VecF32Scalar a, VecF32Scalar b, VecF32Scalar c) {
    if constexpr (kFma) {
      for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
      return a;
    } else {
      return a * b + c;
    }
  }

  /// Lanes 0..3 negated (sign-bit flip).
  [[nodiscard]] VecF32Scalar neg_lo() const {
    return {{-v[0], -v[1], -v[2], -v[3], v[4], v[5], v[6], v[7]}};
  }
  /// Lanes 4..7 negated (sign-bit flip).
  [[nodiscard]] VecF32Scalar neg_hi() const {
    return {{v[0], v[1], v[2], v[3], -v[4], -v[5], -v[6], -v[7]}};
  }
  /// Lanes 4..7 replaced by +0.
  [[nodiscard]] VecF32Scalar zero_hi() const {
    return {{v[0], v[1], v[2], v[3], 0.0f, 0.0f, 0.0f, 0.0f}};
  }
  [[nodiscard]] VecF32Scalar swap_halves() const {
    return {{v[4], v[5], v[6], v[7], v[0], v[1], v[2], v[3]}};
  }
  /// [a.lo | b.lo] and [a.hi | b.hi].
  [[nodiscard]] static VecF32Scalar concat_lo(VecF32Scalar a, VecF32Scalar b) {
    return {{a.v[0], a.v[1], a.v[2], a.v[3], b.v[0], b.v[1], b.v[2], b.v[3]}};
  }
  [[nodiscard]] static VecF32Scalar concat_hi(VecF32Scalar a, VecF32Scalar b) {
    return {{a.v[4], a.v[5], a.v[6], a.v[7], b.v[4], b.v[5], b.v[6], b.v[7]}};
  }
  /// Per half: [a0 b0 a1 b1] (vunpcklps) and [a2 b2 a3 b3] (vunpckhps).
  [[nodiscard]] static VecF32Scalar unpack_lo(VecF32Scalar a, VecF32Scalar b) {
    return {{a.v[0], b.v[0], a.v[1], b.v[1], a.v[4], b.v[4], a.v[5], b.v[5]}};
  }
  [[nodiscard]] static VecF32Scalar unpack_hi(VecF32Scalar a, VecF32Scalar b) {
    return {{a.v[2], b.v[2], a.v[3], b.v[3], a.v[6], b.v[6], a.v[7], b.v[7]}};
  }
  /// Per half: [a0 a1 b0 b1] and [a2 a3 b2 b3] (vshufps 0x44 / 0xee).
  [[nodiscard]] static VecF32Scalar pairs_lo(VecF32Scalar a, VecF32Scalar b) {
    return {{a.v[0], a.v[1], b.v[0], b.v[1], a.v[4], a.v[5], b.v[4], b.v[5]}};
  }
  [[nodiscard]] static VecF32Scalar pairs_hi(VecF32Scalar a, VecF32Scalar b) {
    return {{a.v[2], a.v[3], b.v[2], b.v[3], a.v[6], a.v[7], b.v[6], b.v[7]}};
  }
};

/// Four-double vector emulated in scalar code. Bitwise reference backend.
struct VecScalar {
  static constexpr std::size_t kWidth = 4;
  using Bits = VecU64Scalar;
  using F32 = VecF32Scalar;
  double v[kWidth];

  [[nodiscard]] static VecScalar loadu(const double* p) {
    return VecScalar{{p[0], p[1], p[2], p[3]}};
  }
  void storeu(double* p) const {
    p[0] = v[0];
    p[1] = v[1];
    p[2] = v[2];
    p[3] = v[3];
  }
  [[nodiscard]] static VecScalar broadcast(double x) { return VecScalar{{x, x, x, x}}; }
  /// Four floats widened (exact) / the lanes rounded to float (to nearest).
  [[nodiscard]] static VecScalar load_f32(const float* p) {
    return VecScalar{{p[0], p[1], p[2], p[3]}};
  }
  void store_f32(float* p) const {
    for (std::size_t i = 0; i < kWidth; ++i) p[i] = static_cast<float>(v[i]);
  }
  /// lo's lanes rounded to float in lanes 0..3, hi's in lanes 4..7.
  [[nodiscard]] static F32 to_f32(VecScalar lo, VecScalar hi) {
    F32 r;
    lo.store_f32(r.v);
    hi.store_f32(r.v + kWidth);
    return r;
  }
  /// Lanes 0..3 / 4..7 of f widened (exact).
  [[nodiscard]] static VecScalar from_f32_lo(F32 f) { return load_f32(f.v); }
  [[nodiscard]] static VecScalar from_f32_hi(F32 f) { return load_f32(f.v + kWidth); }

  friend VecScalar operator+(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
  }
  friend VecScalar operator-(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2], a.v[3] - b.v[3]}};
  }
  friend VecScalar operator*(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2], a.v[3] * b.v[3]}};
  }
  /// Lane division; IEEE division is correctly rounded, so this is bitwise
  /// identical to the scalar `/` and to vdivpd.
  friend VecScalar operator/(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] / b.v[0], a.v[1] / b.v[1], a.v[2] / b.v[2], a.v[3] / b.v[3]}};
  }
  /// Lane square root (correctly rounded — bitwise match with vsqrtpd).
  [[nodiscard]] static VecScalar sqrt(VecScalar a) {
    return VecScalar{{std::sqrt(a.v[0]), std::sqrt(a.v[1]), std::sqrt(a.v[2]), std::sqrt(a.v[3])}};
  }
  /// Lane minimum with vminpd semantics: a < b ? a : b (returns b on ties).
  [[nodiscard]] static VecScalar min(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] < b.v[0] ? a.v[0] : b.v[0], a.v[1] < b.v[1] ? a.v[1] : b.v[1],
                      a.v[2] < b.v[2] ? a.v[2] : b.v[2], a.v[3] < b.v[3] ? a.v[3] : b.v[3]}};
  }
  /// Lane maximum with vmaxpd semantics: a > b ? a : b (returns b on ties).
  [[nodiscard]] static VecScalar max(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] > b.v[0] ? a.v[0] : b.v[0], a.v[1] > b.v[1] ? a.v[1] : b.v[1],
                      a.v[2] > b.v[2] ? a.v[2] : b.v[2], a.v[3] > b.v[3] ? a.v[3] : b.v[3]}};
  }

 private:
  static double mask_lane(bool cond) {
    return cond ? std::bit_cast<double>(~std::uint64_t{0}) : 0.0;
  }

 public:
  /// All-ones lane mask where a >= b (ordered), else all-zeros.
  [[nodiscard]] static VecScalar cmp_ge(VecScalar a, VecScalar b) {
    return VecScalar{{mask_lane(a.v[0] >= b.v[0]), mask_lane(a.v[1] >= b.v[1]),
                      mask_lane(a.v[2] >= b.v[2]), mask_lane(a.v[3] >= b.v[3])}};
  }
  /// All-ones lane mask where a > b (ordered), else all-zeros.
  [[nodiscard]] static VecScalar cmp_gt(VecScalar a, VecScalar b) {
    return VecScalar{{mask_lane(a.v[0] > b.v[0]), mask_lane(a.v[1] > b.v[1]),
                      mask_lane(a.v[2] > b.v[2]), mask_lane(a.v[3] > b.v[3])}};
  }
  /// Bitwise AND (mask combination).
  [[nodiscard]] static VecScalar and_(VecScalar a, VecScalar b) {
    VecScalar r;
    for (std::size_t i = 0; i < kWidth; ++i)
      r.v[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v[i]) &
                                     std::bit_cast<std::uint64_t>(b.v[i]));
    return r;
  }
  /// Per-lane select on the mask's *sign bit* (vblendvpd semantics): lane
  /// from a where set, else from b. A bit copy, never an arithmetic op.
  [[nodiscard]] static VecScalar select(VecScalar mask, VecScalar a, VecScalar b) {
    VecScalar r;
    for (std::size_t i = 0; i < kWidth; ++i)
      r.v[i] = (std::bit_cast<std::uint64_t>(mask.v[i]) >> 63) ? a.v[i] : b.v[i];
    return r;
  }
  /// Sign bits of the four lanes packed into bits 0..3 (vmovmskpd).
  [[nodiscard]] int movemask() const {
    int r = 0;
    for (std::size_t i = 0; i < kWidth; ++i)
      r |= static_cast<int>(std::bit_cast<std::uint64_t>(v[i]) >> 63) << i;
    return r;
  }
  /// The lanes' bit patterns as integers, and back (no conversion).
  [[nodiscard]] Bits bits() const {
    return {{std::bit_cast<std::uint64_t>(v[0]), std::bit_cast<std::uint64_t>(v[1]),
             std::bit_cast<std::uint64_t>(v[2]), std::bit_cast<std::uint64_t>(v[3])}};
  }
  [[nodiscard]] static VecScalar from_bits(Bits b) {
    return VecScalar{{std::bit_cast<double>(b.v[0]), std::bit_cast<double>(b.v[1]),
                      std::bit_cast<double>(b.v[2]), std::bit_cast<double>(b.v[3])}};
  }

  /// a * b + c; fused to one rounding when kFma (std::fma is correctly
  /// rounded, so the value matches a hardware vfmadd exactly).
  template <bool kFma>
  [[nodiscard]] static VecScalar mul_add(VecScalar a, VecScalar b, VecScalar c) {
    if constexpr (kFma) {
      return VecScalar{{std::fma(a.v[0], b.v[0], c.v[0]), std::fma(a.v[1], b.v[1], c.v[1]),
                        std::fma(a.v[2], b.v[2], c.v[2]), std::fma(a.v[3], b.v[3], c.v[3])}};
    } else {
      return a * b + c;
    }
  }
  /// a * b - c (fused when kFma).
  template <bool kFma>
  [[nodiscard]] static VecScalar mul_sub(VecScalar a, VecScalar b, VecScalar c) {
    if constexpr (kFma) {
      return VecScalar{{std::fma(a.v[0], b.v[0], -c.v[0]), std::fma(a.v[1], b.v[1], -c.v[1]),
                        std::fma(a.v[2], b.v[2], -c.v[2]), std::fma(a.v[3], b.v[3], -c.v[3])}};
    } else {
      return a * b - c;
    }
  }

  /// [a0-b0, a1+b1, a2-b2, a3+b3] — the complex-pair even-sub/odd-add shape.
  [[nodiscard]] static VecScalar addsub(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0] - b.v[0], a.v[1] + b.v[1], a.v[2] - b.v[2], a.v[3] + b.v[3]}};
  }
  /// a*b -/+ c per even/odd lane (fused when kFma).
  template <bool kFma>
  [[nodiscard]] static VecScalar fmaddsub(VecScalar a, VecScalar b, VecScalar c) {
    if constexpr (kFma) {
      return VecScalar{{std::fma(a.v[0], b.v[0], -c.v[0]), std::fma(a.v[1], b.v[1], c.v[1]),
                        std::fma(a.v[2], b.v[2], -c.v[2]), std::fma(a.v[3], b.v[3], c.v[3])}};
    } else {
      return addsub(a * b, c);
    }
  }

  [[nodiscard]] VecScalar swap_pairs() const { return VecScalar{{v[1], v[0], v[3], v[2]}}; }
  [[nodiscard]] VecScalar dup_even() const { return VecScalar{{v[0], v[0], v[2], v[2]}}; }
  [[nodiscard]] VecScalar dup_odd() const { return VecScalar{{v[1], v[1], v[3], v[3]}}; }
  /// [a0, a1, b0, b1] — low 128-bit halves of a and b.
  [[nodiscard]] static VecScalar concat_lo(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0], a.v[1], b.v[0], b.v[1]}};
  }
  /// [a2, a3, b2, b3] — high 128-bit halves of a and b.
  [[nodiscard]] static VecScalar concat_hi(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[2], a.v[3], b.v[2], b.v[3]}};
  }
  /// [a0, b0, a2, b2] — even lanes of a and b interleaved (vunpcklpd).
  [[nodiscard]] static VecScalar unpack_lo(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[0], b.v[0], a.v[2], b.v[2]}};
  }
  /// [a1, b1, a3, b3] — odd lanes of a and b interleaved (vunpckhpd).
  [[nodiscard]] static VecScalar unpack_hi(VecScalar a, VecScalar b) {
    return VecScalar{{a.v[1], b.v[1], a.v[3], b.v[3]}};
  }
  /// Odd (imaginary) lanes negated: complex conjugate of interleaved pairs.
  [[nodiscard]] VecScalar conj() const { return VecScalar{{v[0], -v[1], v[2], -v[3]}}; }
  /// Even (real) lanes negated.
  [[nodiscard]] VecScalar neg_even() const { return VecScalar{{-v[0], v[1], -v[2], v[3]}}; }
};

#if defined(__AVX2__)

/// Four uint64 lanes on an AVX2 register: VecAvx2's integer companion.
struct VecU64Avx2 {
  __m256i v;

  [[nodiscard]] static VecU64Avx2 broadcast(std::uint64_t x) {
    return {_mm256_set1_epi64x(static_cast<long long>(x))};
  }
  [[nodiscard]] static VecU64Avx2 lanes(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                                        std::uint64_t l3) {
    return {_mm256_setr_epi64x(static_cast<long long>(l0), static_cast<long long>(l1),
                               static_cast<long long>(l2), static_cast<long long>(l3))};
  }
  friend VecU64Avx2 operator+(VecU64Avx2 a, VecU64Avx2 b) { return {_mm256_add_epi64(a.v, b.v)}; }
  friend VecU64Avx2 operator^(VecU64Avx2 a, VecU64Avx2 b) { return {_mm256_xor_si256(a.v, b.v)}; }
  friend VecU64Avx2 operator&(VecU64Avx2 a, VecU64Avx2 b) { return {_mm256_and_si256(a.v, b.v)}; }
  friend VecU64Avx2 operator|(VecU64Avx2 a, VecU64Avx2 b) { return {_mm256_or_si256(a.v, b.v)}; }
  friend VecU64Avx2 operator<<(VecU64Avx2 a, int n) { return {_mm256_slli_epi64(a.v, n)}; }
  friend VecU64Avx2 operator>>(VecU64Avx2 a, int n) { return {_mm256_srli_epi64(a.v, n)}; }
  [[nodiscard]] static VecU64Avx2 mul_u32(VecU64Avx2 a, VecU64Avx2 b) {
    return {_mm256_mul_epu32(a.v, b.v)};
  }
};

/// Eight floats on an AVX2 register: VecAvx2's float companion.
struct VecF32Avx2 {
  static constexpr std::size_t kWidth = 8;
  __m256 v;

  [[nodiscard]] static VecF32Avx2 loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  [[nodiscard]] static VecF32Avx2 broadcast(float x) { return {_mm256_set1_ps(x)}; }

  friend VecF32Avx2 operator+(VecF32Avx2 a, VecF32Avx2 b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend VecF32Avx2 operator-(VecF32Avx2 a, VecF32Avx2 b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend VecF32Avx2 operator*(VecF32Avx2 a, VecF32Avx2 b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend VecF32Avx2 operator/(VecF32Avx2 a, VecF32Avx2 b) { return {_mm256_div_ps(a.v, b.v)}; }
  [[nodiscard]] static VecF32Avx2 sqrt(VecF32Avx2 a) { return {_mm256_sqrt_ps(a.v)}; }
  template <bool kFma>
  [[nodiscard]] static VecF32Avx2 mul_add(VecF32Avx2 a, VecF32Avx2 b, VecF32Avx2 c) {
    if constexpr (kFma) {
      return {_mm256_fmadd_ps(a.v, b.v, c.v)};
    } else {
      return a * b + c;
    }
  }

  [[nodiscard]] VecF32Avx2 neg_lo() const {
    return {_mm256_xor_ps(v, _mm256_setr_ps(-0.0f, -0.0f, -0.0f, -0.0f, 0.0f, 0.0f, 0.0f, 0.0f))};
  }
  [[nodiscard]] VecF32Avx2 neg_hi() const {
    return {_mm256_xor_ps(v, _mm256_setr_ps(0.0f, 0.0f, 0.0f, 0.0f, -0.0f, -0.0f, -0.0f, -0.0f))};
  }
  [[nodiscard]] VecF32Avx2 zero_hi() const {
    return {_mm256_blend_ps(v, _mm256_setzero_ps(), 0xF0)};
  }
  [[nodiscard]] VecF32Avx2 swap_halves() const { return {_mm256_permute2f128_ps(v, v, 0x01)}; }
  [[nodiscard]] static VecF32Avx2 concat_lo(VecF32Avx2 a, VecF32Avx2 b) {
    return {_mm256_permute2f128_ps(a.v, b.v, 0x20)};
  }
  [[nodiscard]] static VecF32Avx2 concat_hi(VecF32Avx2 a, VecF32Avx2 b) {
    return {_mm256_permute2f128_ps(a.v, b.v, 0x31)};
  }
  [[nodiscard]] static VecF32Avx2 unpack_lo(VecF32Avx2 a, VecF32Avx2 b) {
    return {_mm256_unpacklo_ps(a.v, b.v)};
  }
  [[nodiscard]] static VecF32Avx2 unpack_hi(VecF32Avx2 a, VecF32Avx2 b) {
    return {_mm256_unpackhi_ps(a.v, b.v)};
  }
  [[nodiscard]] static VecF32Avx2 pairs_lo(VecF32Avx2 a, VecF32Avx2 b) {
    return {_mm256_shuffle_ps(a.v, b.v, 0x44)};
  }
  [[nodiscard]] static VecF32Avx2 pairs_hi(VecF32Avx2 a, VecF32Avx2 b) {
    return {_mm256_shuffle_ps(a.v, b.v, 0xEE)};
  }
};

/// Four-double vector on AVX2 registers. Same interface as VecScalar; only
/// available in translation units compiled with -mavx2.
struct VecAvx2 {
  static constexpr std::size_t kWidth = 4;
  using Bits = VecU64Avx2;
  using F32 = VecF32Avx2;
  __m256d v;

  [[nodiscard]] static VecAvx2 loadu(const double* p) { return VecAvx2{_mm256_loadu_pd(p)}; }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }
  [[nodiscard]] static VecAvx2 load_f32(const float* p) {
    return VecAvx2{_mm256_cvtps_pd(_mm_loadu_ps(p))};
  }
  void store_f32(float* p) const { _mm_storeu_ps(p, _mm256_cvtpd_ps(v)); }
  [[nodiscard]] static F32 to_f32(VecAvx2 lo, VecAvx2 hi) {
    return {_mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo.v)),
                                 _mm256_cvtpd_ps(hi.v), 1)};
  }
  [[nodiscard]] static VecAvx2 from_f32_lo(F32 f) {
    return VecAvx2{_mm256_cvtps_pd(_mm256_castps256_ps128(f.v))};
  }
  [[nodiscard]] static VecAvx2 from_f32_hi(F32 f) {
    return VecAvx2{_mm256_cvtps_pd(_mm256_extractf128_ps(f.v, 1))};
  }
  [[nodiscard]] static VecAvx2 broadcast(double x) { return VecAvx2{_mm256_set1_pd(x)}; }

  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) { return VecAvx2{_mm256_add_pd(a.v, b.v)}; }
  friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b) { return VecAvx2{_mm256_sub_pd(a.v, b.v)}; }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) { return VecAvx2{_mm256_mul_pd(a.v, b.v)}; }
  friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b) { return VecAvx2{_mm256_div_pd(a.v, b.v)}; }
  [[nodiscard]] static VecAvx2 sqrt(VecAvx2 a) { return VecAvx2{_mm256_sqrt_pd(a.v)}; }
  [[nodiscard]] static VecAvx2 min(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_min_pd(a.v, b.v)};
  }
  [[nodiscard]] static VecAvx2 max(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_max_pd(a.v, b.v)};
  }
  [[nodiscard]] static VecAvx2 cmp_ge(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  [[nodiscard]] static VecAvx2 cmp_gt(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  [[nodiscard]] static VecAvx2 and_(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_and_pd(a.v, b.v)};
  }
  [[nodiscard]] static VecAvx2 select(VecAvx2 mask, VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_blendv_pd(b.v, a.v, mask.v)};
  }
  [[nodiscard]] int movemask() const { return _mm256_movemask_pd(v); }
  [[nodiscard]] Bits bits() const { return {_mm256_castpd_si256(v)}; }
  [[nodiscard]] static VecAvx2 from_bits(Bits b) { return VecAvx2{_mm256_castsi256_pd(b.v)}; }

  template <bool kFma>
  [[nodiscard]] static VecAvx2 mul_add(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
    if constexpr (kFma) {
      return VecAvx2{_mm256_fmadd_pd(a.v, b.v, c.v)};
    } else {
      return a * b + c;
    }
  }
  template <bool kFma>
  [[nodiscard]] static VecAvx2 mul_sub(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
    if constexpr (kFma) {
      return VecAvx2{_mm256_fmsub_pd(a.v, b.v, c.v)};
    } else {
      return a * b - c;
    }
  }

  [[nodiscard]] static VecAvx2 addsub(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_addsub_pd(a.v, b.v)};
  }
  template <bool kFma>
  [[nodiscard]] static VecAvx2 fmaddsub(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
    if constexpr (kFma) {
      return VecAvx2{_mm256_fmaddsub_pd(a.v, b.v, c.v)};
    } else {
      return addsub(a * b, c);
    }
  }

  [[nodiscard]] VecAvx2 swap_pairs() const { return VecAvx2{_mm256_permute_pd(v, 0x5)}; }
  [[nodiscard]] VecAvx2 dup_even() const { return VecAvx2{_mm256_movedup_pd(v)}; }
  [[nodiscard]] VecAvx2 dup_odd() const { return VecAvx2{_mm256_permute_pd(v, 0xF)}; }
  [[nodiscard]] static VecAvx2 concat_lo(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_permute2f128_pd(a.v, b.v, 0x20)};
  }
  [[nodiscard]] static VecAvx2 concat_hi(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_permute2f128_pd(a.v, b.v, 0x31)};
  }
  [[nodiscard]] static VecAvx2 unpack_lo(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_unpacklo_pd(a.v, b.v)};
  }
  [[nodiscard]] static VecAvx2 unpack_hi(VecAvx2 a, VecAvx2 b) {
    return VecAvx2{_mm256_unpackhi_pd(a.v, b.v)};
  }
  [[nodiscard]] VecAvx2 conj() const {
    return VecAvx2{_mm256_xor_pd(v, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0))};
  }
  [[nodiscard]] VecAvx2 neg_even() const {
    return VecAvx2{_mm256_xor_pd(v, _mm256_set_pd(0.0, -0.0, 0.0, -0.0))};
  }
};

#endif  // __AVX2__

/// w * b on two interleaved (re, im) complex pairs.
template <bool kFma, class V>
[[nodiscard]] inline V cmul(V w, V b) {
  return V::template fmaddsub<kFma>(w.dup_even(), b, w.dup_odd() * b.swap_pairs());
}

/// In-register 4x4 transpose: on return r_i holds lane i of the inputs,
/// [r0_i, r1_i, r2_i, r3_i]. Pure lane moves, no arithmetic.
template <class V>
inline void transpose4(V& r0, V& r1, V& r2, V& r3) {
  const V lo01 = V::unpack_lo(r0, r1), hi01 = V::unpack_hi(r0, r1);
  const V lo23 = V::unpack_lo(r2, r3), hi23 = V::unpack_hi(r2, r3);
  r0 = V::concat_lo(lo01, lo23);
  r1 = V::concat_lo(hi01, hi23);
  r2 = V::concat_hi(lo01, lo23);
  r3 = V::concat_hi(hi01, hi23);
}

/// 4x4 transpose within each 128-bit half of four float registers: on
/// return lane j of half h of r_i is lane i of half h of the input r_j.
/// Pure lane moves, no arithmetic.
template <class F>
inline void transpose4_halves(F& r0, F& r1, F& r2, F& r3) {
  const F t0 = F::unpack_lo(r0, r1), t1 = F::unpack_hi(r0, r1);
  const F t2 = F::unpack_lo(r2, r3), t3 = F::unpack_hi(r2, r3);
  r0 = F::pairs_lo(t0, t2);
  r1 = F::pairs_hi(t0, t2);
  r2 = F::pairs_lo(t1, t3);
  r3 = F::pairs_hi(t1, t3);
}

}  // namespace turbda::simd
