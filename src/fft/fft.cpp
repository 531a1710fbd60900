#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "simd/kernels.hpp"
#include "telemetry/trace.hpp"

namespace turbda::fft {

namespace {

constexpr std::size_t kLaneElem = 2 * simd::kLaneBatch;  // floats per lane-batched element

/// Interleaved (re, im) float copy of a complex double table.
std::vector<float> to_float(const std::vector<Cplx>& w) {
  std::vector<float> out(2 * w.size());
  for (std::size_t k = 0; k < w.size(); ++k) {
    out[2 * k] = static_cast<float>(w[k].real());
    out[2 * k + 1] = static_cast<float>(w[k].imag());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fft1D
// ---------------------------------------------------------------------------

Fft1D::Fft1D(std::size_t n) : n_(n) {
  TURBDA_REQUIRE(is_pow2(n), "FFT length must be a power of two, got " << n);
  log2n_ = ilog2(n);
  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n_; ++b) r |= ((i >> b) & 1u) << (log2n_ - 1 - b);
    bitrev_[i] = r;
  }
  stage_fwd_.resize(static_cast<std::size_t>(log2n_) + 1);
  stage_inv_.resize(static_cast<std::size_t>(log2n_) + 1);
  lane_fwd_.resize(stage_fwd_.size());
  lane_inv_.resize(stage_inv_.size());
  for (int s = 3; s <= log2n_; ++s) {
    const std::size_t len = std::size_t{1} << s;
    const std::size_t half = len / 2;
    auto& fwd = stage_fwd_[static_cast<std::size_t>(s)];
    auto& inv = stage_inv_[static_cast<std::size_t>(s)];
    fwd.resize(half);
    inv.resize(half);
    for (std::size_t k = 0; k < half; ++k) {
      const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(len);
      fwd[k] = Cplx(std::cos(ang), std::sin(ang));
      inv[k] = std::conj(fwd[k]);
    }
    lane_fwd_[static_cast<std::size_t>(s)] = to_float(fwd);
    lane_inv_[static_cast<std::size_t>(s)] = to_float(inv);
  }
}

void Fft1D::transform(std::span<Cplx> x, bool inverse) const {
  TURBDA_REQUIRE(x.size() == n_, "FFT input length " << x.size() << " != plan length " << n_);
  if (n_ == 1) return;
  // The butterflies run on the raw (re, im) doubles — std::complex guarantees
  // array-compatible layout — through the runtime-dispatched SIMD kernels
  // (scalar / AVX2 / AVX2+FMA; see simd/kernels.hpp).
  double* d = reinterpret_cast<double*>(x.data());
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  const simd::Kernels& kr = simd::active_kernels();
  // Stages len = 2 and 4 fused: twiddles are exactly 1 and -i (forward) /
  // +i (inverse), so the 4-point butterfly carries no multiplies at all.
  if (n_ == 2) {
    const double ur = d[0], ui = d[1], tr = d[2], ti = d[3];
    d[0] = ur + tr;
    d[1] = ui + ti;
    d[2] = ur - tr;
    d[3] = ui - ti;
  } else {
    kr.pass_first(d, 2 * n_, inverse ? 1.0 : -1.0);
  }
  const auto& stages = inverse ? stage_inv_ : stage_fwd_;
  int s = 3;
  // Fused radix-2^2 pairs: one pass performs stages s and s+1 back to back
  // on each 2^(s+1)-point block, with the exact same per-element arithmetic
  // (and thus bitwise results) as two separate passes.
  for (; s + 1 <= log2n_; s += 2) {
    const std::size_t half = std::size_t{1} << (s - 1);  // half of stage s
    const double* tw = reinterpret_cast<const double*>(stages[static_cast<std::size_t>(s)].data());
    const double* tw1 =
        reinterpret_cast<const double*>(stages[static_cast<std::size_t>(s) + 1].data());
    kr.pass_radix4(d, n_, half, tw, tw1);
  }
  // Odd stage count: one remaining plain radix-2 pass.
  if (s <= log2n_) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const double* tw = reinterpret_cast<const double*>(stages[static_cast<std::size_t>(s)].data());
    kr.pass_radix2(d, n_, half, tw);
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (auto& v : x) v *= scale;
  }
}

void Fft1D::transform_lanes(float* d, std::size_t stride, std::size_t m, bool inverse) const {
  const std::size_t es = kLaneElem * stride;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap_ranges(d + i * es, d + i * es + kLaneElem * m, d + j * es);
  }
  stages_lanes(d, stride, m, inverse);
}

void Fft1D::stages_lanes(float* d, std::size_t stride, std::size_t m, bool inverse) const {
  if (n_ == 1) return;
  const std::size_t es = kLaneElem * stride;
  const simd::Kernels& kr = simd::active_kernels();
  if (n_ == 2) {
    for (std::size_t c = 0; c < kLaneElem * m; ++c) {
      const float u = d[c], t = d[es + c];
      d[c] = u + t;
      d[es + c] = u - t;
    }
  } else {
    kr.lane_pass_first(d, n_, stride, m, inverse ? 1.0f : -1.0f);
  }
  // The stage sequence of transform(): fused radix-2^2 pairs, then the odd
  // stage.
  const auto& stages = inverse ? lane_inv_ : lane_fwd_;
  const auto tw = [&stages](int s) { return stages[static_cast<std::size_t>(s)].data(); };
  int s = 3;
  for (; s + 1 <= log2n_; s += 2)
    kr.lane_pass_radix4(d, n_, stride, m, std::size_t{1} << (s - 1), tw(s), tw(s + 1));
  if (s <= log2n_) kr.lane_pass_radix2(d, n_, stride, m, std::size_t{1} << (s - 1), tw(s));
}

// ---------------------------------------------------------------------------
// Rfft1D — r2c/c2r via one half-length complex FFT plus Hermitian packing.
//
// Forward: pack z[j] = x[2j] + i x[2j+1], FFT to Z[k], then split Z into the
// transforms E, O of the even/odd samples (E[k] = (Z[k] + conj(Z[h-k]))/2,
// O[k] = -i (Z[k] - conj(Z[h-k]))/2) and combine X[k] = E[k] + w^k O[k],
// X[h-k] = conj(E[k] - w^k O[k]) with w = exp(-2πi/n). Inverse runs the same
// algebra backwards.
// ---------------------------------------------------------------------------

namespace {
/// Validates the real-transform length before the half plan is built, so a
/// bad size is reported as the length the caller passed (not n/2).
std::size_t rfft_half_length(std::size_t n) {
  TURBDA_REQUIRE(n >= 2 && is_pow2(n),
                 "real FFT length must be an even power of two (>= 2), got " << n);
  return n / 2;
}
}  // namespace

Rfft1D::Rfft1D(std::size_t n) : n_(n), h_(n / 2), half_(rfft_half_length(n)) {
  w_.resize(h_ / 2 + 1);
  for (std::size_t k = 0; k < w_.size(); ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    w_[k] = Cplx(std::cos(ang), std::sin(ang));
  }
  lane_w_ = to_float(w_);
}

void Rfft1D::forward(std::span<const double> x, std::span<Cplx> spec) const {
  TURBDA_REQUIRE(x.size() == n_ && spec.size() >= spec_size(),
                 "rfft forward: bad buffer sizes (" << x.size() << ", " << spec.size() << ")");
  const std::size_t h = h_;
  for (std::size_t j = 0; j < h; ++j) spec[j] = Cplx(x[2 * j], x[2 * j + 1]);
  half_.forward(spec.first(h));
  const Cplx z0 = spec[0];
  spec[0] = Cplx(z0.real() + z0.imag(), 0.0);
  const Cplx dc_mirror(z0.real() - z0.imag(), 0.0);
  simd::active_kernels().rfft_pack(reinterpret_cast<double*>(spec.data()),
                                   reinterpret_cast<const double*>(w_.data()), h);
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);  // w^(h/2) = -i, exactly
  spec[h] = dc_mirror;
}

void Rfft1D::inverse_inplace(std::span<Cplx> spec, std::span<double> x) const {
  TURBDA_REQUIRE(x.size() == n_ && spec.size() >= spec_size(),
                 "rfft inverse: bad buffer sizes (" << x.size() << ", " << spec.size() << ")");
  const std::size_t h = h_;
  const double e0 = spec[0].real();
  const double eh = spec[h].real();
  spec[0] = Cplx(0.5 * (e0 + eh), 0.5 * (e0 - eh));
  simd::active_kernels().rfft_unpack(reinterpret_cast<double*>(spec.data()),
                                     reinterpret_cast<const double*>(w_.data()), h);
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);
  half_.inverse(spec.first(h));
  for (std::size_t j = 0; j < h; ++j) {
    x[2 * j] = spec[j].real();
    x[2 * j + 1] = spec[j].imag();
  }
}

void Rfft1D::forward_lanes(const float* const* x, float* spec) const {
  const simd::Kernels& kr = simd::active_kernels();
  kr.lane_rows_in(x, h_, half_.bitrev_.data(), spec);
  half_.stages_lanes(spec, 1, 1, /*inverse=*/false);
  kr.lane_rfft_pack(spec, lane_w_.data(), h_);
}

void Rfft1D::inverse_lanes(const float* spec, std::size_t rs, std::size_t count,
                           std::size_t cols, float pre_scale, float* work,
                           float* const* x) const {
  const simd::Kernels& kr = simd::active_kernels();
  // The half-length inverse's 1/h rides on the split's scale (h is a power
  // of two, so the product is exact).
  const float scale = h_ > 1 ? pre_scale / static_cast<float>(h_) : pre_scale;
  for (std::size_t r = 0; r < count; ++r)
    kr.lane_rfft_unpack(spec + r * rs, lane_w_.data(), h_, cols, scale, half_.bitrev_.data(),
                        count, work + r * kLaneElem);
  half_.stages_lanes(work, count, count, /*inverse=*/true);
  for (std::size_t r = 0; r < count; ++r)
    kr.lane_rows_out(work + r * kLaneElem, count, h_, x + simd::kLaneBatch * r);
}

// ---------------------------------------------------------------------------
// Fft2D. Scratch is per-thread and grown on demand, so plans stay immutable
// and shareable across threads.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kTransposeBlock = 32;  // 16 KiB src + 16 KiB dst tiles
constexpr std::size_t kLaneColumns = 4;  // lane transforms per column-pass kernel call
// Float rows of the product transform's scratch: four grid rows of each of
// four spectrum rows, and four product rows.
constexpr std::size_t kProductRows = (simd::kLaneBatch + 1) * simd::kLaneBatch;

/// Transposes `src` (r x c, row stride `ls`) into `dst` (c x r, row stride
/// `lds`).
void transpose_blocked(const Cplx* src, std::size_t ls, Cplx* dst, std::size_t lds, std::size_t r,
                       std::size_t c) {
  for (std::size_t i0 = 0; i0 < r; i0 += kTransposeBlock) {
    const std::size_t i1 = std::min(r, i0 + kTransposeBlock);
    for (std::size_t j0 = 0; j0 < c; j0 += kTransposeBlock) {
      const std::size_t j1 = std::min(c, j0 + kTransposeBlock);
      for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j) dst[j * lds + i] = src[i * ls + j];
    }
  }
}

bool all_zero(const Cplx* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (p[i].real() != 0.0 || p[i].imag() != 0.0) return false;
  return true;
}

/// Inverse-transforms `count` contiguous rows of length `len`, skipping
/// all-zero rows (a transform of zeros is zeros; the SQG tendency inverts
/// dealiased spectra whose outer third of rows vanishes identically).
void batch_inverse(Cplx* data, std::size_t count, std::size_t len, const Fft1D& plan) {
  for (std::size_t i = 0; i < count; ++i) {
    Cplx* row = data + i * len;
    if (!all_zero(row, len)) plan.inverse(std::span<Cplx>(row, len));
  }
}

/// True when every entry of the n points (`es` floats apart, `w` floats
/// each) is ±0.
bool all_zero_points(const float* d, std::size_t n, std::size_t es, std::size_t w) {
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < w; ++c)
      if (d[i * es + c] != 0.0f) return false;
  return true;
}

/// Per-thread scratch, 64-byte aligned so no lane element straddles a cache
/// line. The per-field inverse uses `a` (its row spectra) and `b` (its
/// transposed columns); the lane paths use `fa` (the forward's column
/// buffer and lane row spectrum) and `fb` (the forward's float grid rows,
/// or the product transform's grid rows, product rows and half-length row
/// transform).
struct Scratch {
  template <class T>
  using Buffer = std::vector<T, simd::LaneAllocator<T>>;
  Buffer<Cplx> a, b;
  Buffer<float> fa, fb;

  template <class T>
  static T* get(Buffer<T>& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }
};

/// The calling thread's scratch, with capacity for every use an n0 x n1
/// plan makes of it (unpruned included). A buffer reallocated as it grew
/// would leave each smaller block behind in the heap; resizing within the
/// capacity touches only what a call uses.
Scratch& scratch(std::size_t n0, std::size_t n1) {
  thread_local Scratch s;
  const std::size_t nh = n1 / 2 + 1;
  const std::size_t nb = (nh + simd::kLaneBatch - 1) / simd::kLaneBatch;  // unpruned blocks
  s.a.reserve(n0 * nh);
  s.b.reserve(n0 * nh);
  s.fa.reserve((n0 + simd::kLaneBatch) * nb * kLaneElem);
  s.fb.reserve(kProductRows * n1 + simd::kLaneBatch * kLaneElem * (n1 / 2));
  return s;
}

}  // namespace

Fft2D::Fft2D(std::size_t n0, std::size_t n1) : n0_(n0), n1_(n1), col_(n0), rrow_(n1) {}

// ---------------------------------------------------------------------------
// The lane forward, in single precision: rows r2c four at a time (one row
// per lane, samples stored straight into their bit-reversed slots), one
// in-half 4x4 transpose per column block into the compact buffer of the
// min(kcut, n1/2) + 1 retained columns, the columns in place on lanes, and
// one widening de-interleaving store. The pruned forward masks |my| > kcut
// rows for free while writing the packed output.
// ---------------------------------------------------------------------------

void Fft2D::column_lanes(float* d, std::size_t stride, std::size_t count, bool inverse) const {
  if (n0_ == 1) return;
  const std::size_t es = kLaneElem * stride;  // floats between a column's points
  for (std::size_t j0 = 0; j0 < count; j0 += kLaneColumns) {
    const std::size_t m = std::min(kLaneColumns, count - j0);
    float* blk = d + j0 * kLaneElem;
    if (!all_zero_points(blk, n0_, es, m * kLaneElem))
      col_.transform_lanes(blk, stride, m, inverse);
  }
}

template <class Rows>
void Fft2D::forward_lanes(Rows&& rows, std::span<Cplx> hspec, std::size_t kcut) const {
  const simd::Kernels& kr = simd::active_kernels();
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const std::size_t nb = (cols + simd::kLaneBatch - 1) / simd::kLaneBatch;  // column blocks
  const std::size_t cs = kLaneElem * nb;  // floats per column-buffer row
  const std::size_t spec_elems = std::max(nh, simd::kLaneBatch * nb);
  float* colbuf = Scratch::get(scratch(n0_, n1_).fa, n0_ * cs + kLaneElem * spec_elems);
  float* spec = colbuf + n0_ * cs;
  // The last block's columns past n1/2 read +0 (their lanes are discarded).
  std::fill(spec + kLaneElem * nh, spec + kLaneElem * spec_elems, 0.0f);
  for (std::size_t i0 = 0; i0 < n0_; i0 += simd::kLaneBatch) {
    const std::size_t nrows = std::min(simd::kLaneBatch, n0_ - i0);
    const float* x[simd::kLaneBatch];
    rows(i0, nrows, x);
    for (std::size_t r = nrows; r < simd::kLaneBatch; ++r) x[r] = x[nrows - 1];  // n0 < 4
    rrow_.forward_lanes(x, spec);
    kr.lane_cols_in(spec, nb, nrows, colbuf + i0 * cs);
  }
  column_lanes(colbuf, nb, nb, /*inverse=*/false);

  const long rowcut = static_cast<long>(std::min(kcut, n0_ / 2));
  for (std::size_t i = 0; i < n0_; ++i) {
    Cplx* out = hspec.data() + i * nh;
    const long my =
        (i <= n0_ / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n0_);
    std::size_t kept = 0;
    if (std::labs(my) <= rowcut) {
      kr.lane_cols_out(colbuf + i * cs, cols, reinterpret_cast<double*>(out));
      kept = cols;
    }
    std::fill(out + kept, out + nh, Cplx(0.0, 0.0));
  }
}

void Fft2D::forward_half_pruned(std::span<const double> grid, std::span<Cplx> hspec,
                                std::size_t kcut) const {
  TURBDA_SPAN("fft.half_forward");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "forward_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  // Each batch's grid rows are rounded to float on entry.
  float* rows_f = Scratch::get(scratch(n0_, n1_).fb, simd::kLaneBatch * n1_);
  forward_lanes(
      [&](std::size_t i0, std::size_t nrows, const float** x) {
        for (std::size_t r = 0; r < nrows; ++r) {
          const double* g = grid.data() + (i0 + r) * n1_;
          float* row = rows_f + r * n1_;
          for (std::size_t j = 0; j < n1_; ++j) row[j] = static_cast<float>(g[j]);
          x[r] = row;
        }
      },
      hspec, kcut);
}

// ---------------------------------------------------------------------------
// Per-field inverse (double): cache-blocked transpose of the first
// min(kcut, n1/2) + 1 columns, their column FFTs, transpose back, row c2r.
// The pruned inverse never touches the column transforms of truncated bins.
// ---------------------------------------------------------------------------

void Fft2D::inverse_half_pruned(std::span<const Cplx> hspec, std::span<double> grid,
                                std::size_t kcut) const {
  TURBDA_SPAN("fft.half_inverse");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "inverse_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  Scratch& sc = scratch(n0_, n1_);

  Cplx* tbuf = Scratch::get(sc.b, cols * n0_);
  transpose_blocked(hspec.data(), nh, tbuf, n0_, n0_, cols);
  batch_inverse(tbuf, cols, n0_, col_);

  Cplx* hbuf = Scratch::get(sc.a, n0_ * nh);
  if (cols < nh) {  // truncated tail bins are identically zero
    for (std::size_t i = 0; i < n0_; ++i)
      std::fill(hbuf + i * nh + cols, hbuf + (i + 1) * nh, Cplx(0.0, 0.0));
  }
  transpose_blocked(tbuf, n0_, hbuf, nh, cols, n0_);

  for (std::size_t i = 0; i < n0_; ++i)
    rrow_.inverse_inplace(std::span<Cplx>(hbuf + i * nh, nh), grid.subspan(i * n1_, n1_));
}

// ---------------------------------------------------------------------------
// Fused product transform, in single precision: four half spectra in one
// lane-interleaved buffer. The column pass runs in place down the strided
// columns (no transposes), kLaneColumns adjacent columns per kernel call.
// Every four spectrum rows then go through the lane Rfft1D split (into
// bit-reversed slots, the four rows side by side; the truncated bins read
// as +0 without being loaded), one half-length stage sequence and the
// de-interleaving stores into sixteen grid rows; the caller's product of
// each row's four fields fills one product row, and the four product rows
// enter the lane forward. The column transform's 1/n0 factor is applied by
// the row split.
// ---------------------------------------------------------------------------

void Fft2D::product_half_pruned_lanes(std::span<float> lanes, RowProduct row_product,
                                      std::span<Cplx> hspec, std::size_t kcut) const {
  TURBDA_SPAN("fft.half_product_lanes");
  TURBDA_REQUIRE(lanes.size() == kLaneElem * half_size() && hspec.size() == half_size(),
                 "product_half_pruned_lanes: wrong buffer sizes ("
                     << lanes.size() << ", " << hspec.size() << "), expected ("
                     << kLaneElem * half_size() << ", " << half_size() << ")");
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const std::size_t rs = kLaneElem * nh;  // floats per spectrum row
  float* d = lanes.data();
  column_lanes(d, nh, cols, /*inverse=*/true);

  // The forward uses `fa`; the rows live in `fb`: grid row l of spectrum
  // row i0 + r at out[4 r + l], then the product rows, then the row
  // transforms' work.
  constexpr std::size_t kL = simd::kLaneBatch;
  float* g = Scratch::get(scratch(n0_, n1_).fb, kProductRows * n1_ + kL * kLaneElem * (n1_ / 2));
  float* out[kL * kL];
  for (std::size_t q = 0; q < kL * kL; ++q) out[q] = g + q * n1_;
  float* const product = g + kL * kL * n1_;
  float* const work = product + kL * n1_;
  const float col_scale = (n0_ > 1) ? 1.0f / static_cast<float>(n0_) : 1.0f;
  forward_lanes(
      [&](std::size_t i0, std::size_t nrows, const float** x) {
        rrow_.inverse_lanes(d + i0 * rs, rs, nrows, cols, col_scale, work, out);
        for (std::size_t r = 0; r < nrows; ++r) {
          float* p = product + r * n1_;
          row_product(p, out[kL * r], out[kL * r + 1], out[kL * r + 2], out[kL * r + 3], n1_);
          x[r] = p;
        }
      },
      hspec, kcut);
}

void Fft2D::forward_half(std::span<const double> grid, std::span<Cplx> hspec) const {
  forward_half_pruned(grid, hspec, std::max(n0_, n1_));
}

void Fft2D::inverse_half(std::span<const Cplx> hspec, std::span<double> grid) const {
  inverse_half_pruned(hspec, grid, std::max(n0_, n1_));
}

}  // namespace turbda::fft
