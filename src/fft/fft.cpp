#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "simd/kernels.hpp"
#include "telemetry/trace.hpp"

namespace turbda::fft {

namespace {

constexpr std::size_t kLaneElem = 2 * simd::kLaneBatch;  // doubles per lane-batched element

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

void Fft1D::transform_lanes(double* d, std::size_t stride, std::size_t m, bool inverse) const {
  const std::size_t es = kLaneElem * stride;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap_ranges(d + i * es, d + i * es + kLaneElem * m, d + j * es);
  }
  stages_lanes(d, stride, m, inverse);
}

void Fft1D::stages_lanes(double* d, std::size_t stride, std::size_t m, bool inverse) const {
  if (n_ == 1) return;
  const std::size_t es = kLaneElem * stride;
  const simd::Kernels& kr = simd::active_kernels();
  if (n_ == 2) {
    for (std::size_t c = 0; c < kLaneElem * m; ++c) {
      const double u = d[c], t = d[es + c];
      d[c] = u + t;
      d[es + c] = u - t;
    }
  } else {
    kr.lane_pass_first(d, n_, stride, m, inverse ? 1.0 : -1.0);
  }
  // The stage sequence of transform(): fused radix-2^2 pairs, then the odd
  // stage.
  const auto& stages = inverse ? stage_inv_ : stage_fwd_;
  const auto tw = [&stages](int s) {
    return reinterpret_cast<const double*>(stages[static_cast<std::size_t>(s)].data());
  };
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

void Rfft1D::forward_lanes(const double* const* x, double* spec) const {
  const simd::Kernels& kr = simd::active_kernels();
  kr.lane_rows_in(x, h_, half_.bitrev_.data(), spec);
  half_.stages_lanes(spec, 1, 1, /*inverse=*/false);
  kr.lane_rfft_pack(spec, reinterpret_cast<const double*>(w_.data()), h_);
}

void Rfft1D::inverse_lanes(const double* spec, double pre_scale, double* work,
                           double* const* x) const {
  const simd::Kernels& kr = simd::active_kernels();
  kr.lane_rfft_unpack(spec, reinterpret_cast<const double*>(w_.data()), h_, pre_scale,
                      half_.bitrev_.data(), work);
  half_.stages_lanes(work, 1, 1, /*inverse=*/true);
  kr.lane_rows_out(work, h_, h_ > 1 ? 1.0 / static_cast<double>(h_) : 1.0, x);
}

// ---------------------------------------------------------------------------
// Fft2D. Scratch is per-thread and grown on demand, so plans stay immutable
// and shareable across threads.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kTransposeBlock = 32;  // 16 KiB src + 16 KiB dst tiles
constexpr unsigned kAllLanes = (1u << simd::kLaneBatch) - 1;
constexpr std::size_t kLaneColumns = 4;  // lane transforms per column-pass kernel call

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

/// Bit l set when lane l of the column (n elements, `es` doubles apart)
/// holds an entry other than ±0.
unsigned live_lanes(const double* col, std::size_t n, std::size_t es) {
  unsigned live = 0;
  for (std::size_t i = 0; i < n && live != kAllLanes; ++i) {
    const double* e = col + i * es;
    for (std::size_t l = 0; l < simd::kLaneBatch; ++l)
      if (e[l] != 0.0 || e[simd::kLaneBatch + l] != 0.0) live |= 1u << l;
  }
  return live;
}

/// Per-thread scratch: two buffers, 64-byte aligned so no lane element
/// straddles a cache line, each with one use at a time. `a` holds the
/// per-field inverse's row spectra, or the lane forward's column buffer and
/// lane row spectrum. `b` holds the inverse's transposed columns, a column
/// group's saved lanes, or the product transform's grid rows and
/// half-length row transform.
struct Scratch {
  using Buffer = std::vector<Cplx, simd::LaneAllocator<Cplx>>;
  Buffer a, b;

  static Cplx* cplx(Buffer& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }
  static double* doubles(Buffer& buf, std::size_t n) {
    return reinterpret_cast<double*>(cplx(buf, (n + 1) / 2));
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
  // In Cplx: the inverse's rows; the forward's column buffer and row spectrum.
  s.a.reserve(std::max(n0 * nh, (n0 + simd::kLaneBatch) * nb * kLaneElem / 2));
  // The inverse's columns; a saved column group; four grid, four product
  // and one work row.
  s.b.reserve(std::max({n0 * nh, n0 * kLaneColumns * kLaneElem / 2,
                        (2 * simd::kLaneBatch * n1 + kLaneElem * (n1 / 2)) / 2}));
  return s;
}

}  // namespace

Fft2D::Fft2D(std::size_t n0, std::size_t n1) : n0_(n0), n1_(n1), col_(n0), rrow_(n1) {}

// ---------------------------------------------------------------------------
// The lane forward: rows r2c four at a time (one row per lane, samples stored
// straight into their bit-reversed slots), one 4x4 transpose per column
// block into the compact buffer of the min(kcut, n1/2) + 1 retained columns,
// the columns in place on lanes, and one de-interleaving store. The pruned
// forward masks |my| > kcut rows for free while writing the packed output.
// ---------------------------------------------------------------------------

void Fft2D::column_lanes(double* d, std::size_t stride, std::size_t count, bool inverse) const {
  if (n0_ == 1) return;
  // An all-±0 column keeps its bits: the per-field inverse and the
  // forward's row-column definition never transform it. A group with no
  // live lane is skipped; lanes transformed alongside live ones are
  // restored from a copy afterwards: column mx = 0 of the two
  // i kx-derivatives in the product transform's inverse, or every column
  // but mx = 0 of a field constant along x in the forward. The 8 x 2 plan
  // at kcut 4 needs the restore: with theta_x and theta_y all ±0, the
  // product's zero signs come from the dead lanes, and without it they
  // differ from the per-field transforms' at every dispatch level
  // (Fft2dLanes.MatchesPerFieldBitwiseAtEveryLevel).
  const std::size_t es = kLaneElem * stride;           // doubles between a column's points
  const std::size_t block = kLaneElem * kLaneColumns;  // doubles per saved group row
  double* saved = Scratch::doubles(scratch(n0_, n1_).b, n0_ * block);
  for (std::size_t j0 = 0; j0 < count; j0 += kLaneColumns) {
    const std::size_t m = std::min(kLaneColumns, count - j0);
    double* blk = d + j0 * kLaneElem;
    unsigned live[kLaneColumns] = {};
    bool any = false, all = true;
    for (std::size_t c = 0; c < m; ++c) {
      live[c] = live_lanes(blk + c * kLaneElem, n0_, es);
      any = any || live[c] != 0;
      all = all && live[c] == kAllLanes;
    }
    if (!any) continue;
    if (!all)
      for (std::size_t i = 0; i < n0_; ++i)
        std::copy(blk + i * es, blk + i * es + m * kLaneElem, saved + i * block);
    col_.transform_lanes(blk, stride, m, inverse);
    if (!all)
      for (std::size_t i = 0; i < n0_; ++i)
        for (std::size_t c = 0; c < m; ++c)
          for (std::size_t l = 0; l < simd::kLaneBatch; ++l)
            if (!(live[c] & (1u << l))) {
              const std::size_t at = c * kLaneElem + l;
              blk[i * es + at] = saved[i * block + at];
              blk[i * es + at + simd::kLaneBatch] = saved[i * block + at + simd::kLaneBatch];
            }
  }
}

template <class Rows>
void Fft2D::forward_lanes(Rows&& rows, std::span<Cplx> hspec, std::size_t kcut) const {
  const simd::Kernels& kr = simd::active_kernels();
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const std::size_t nb = (cols + simd::kLaneBatch - 1) / simd::kLaneBatch;  // column blocks
  const std::size_t cs = kLaneElem * nb;  // doubles per column-buffer row
  const std::size_t spec_elems = std::max(nh, simd::kLaneBatch * nb);
  double* colbuf = Scratch::doubles(scratch(n0_, n1_).a, n0_ * cs + kLaneElem * spec_elems);
  double* spec = colbuf + n0_ * cs;
  // The last block's columns past n1/2 read +0 (their lanes are discarded).
  std::fill(spec + kLaneElem * nh, spec + kLaneElem * spec_elems, 0.0);
  for (std::size_t i0 = 0; i0 < n0_; i0 += simd::kLaneBatch) {
    const std::size_t nrows = std::min(simd::kLaneBatch, n0_ - i0);
    const double* x[simd::kLaneBatch];
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
  forward_lanes(
      [&](std::size_t i0, std::size_t nrows, const double** x) {
        for (std::size_t r = 0; r < nrows; ++r) x[r] = grid.data() + (i0 + r) * n1_;
      },
      hspec, kcut);
}

// ---------------------------------------------------------------------------
// Per-field inverse: cache-blocked transpose of the first min(kcut, n1/2) + 1
// columns, their column FFTs, transpose back, row c2r. The pruned inverse
// never touches the column transforms of truncated bins.
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

  Cplx* tbuf = Scratch::cplx(sc.b, cols * n0_);
  transpose_blocked(hspec.data(), nh, tbuf, n0_, n0_, cols);
  batch_inverse(tbuf, cols, n0_, col_);

  Cplx* hbuf = Scratch::cplx(sc.a, n0_ * nh);
  if (cols < nh) {  // truncated tail bins are identically zero
    for (std::size_t i = 0; i < n0_; ++i)
      std::fill(hbuf + i * nh + cols, hbuf + (i + 1) * nh, Cplx(0.0, 0.0));
  }
  transpose_blocked(tbuf, n0_, hbuf, nh, cols, n0_);

  for (std::size_t i = 0; i < n0_; ++i)
    rrow_.inverse_inplace(std::span<Cplx>(hbuf + i * nh, nh), grid.subspan(i * n1_, n1_));
}

// ---------------------------------------------------------------------------
// Fused product transform: four half spectra in one lane-interleaved buffer.
// The column pass runs in place down the strided columns (no transposes),
// kLaneColumns adjacent columns per kernel call. Each row then goes through
// the lane Rfft1D split (into bit-reversed slots), the half-length transform
// and the de-interleaving store into four grid rows, and the caller's
// product of those rows fills one product row; every four product rows
// enter the lane forward. The column transform's 1/n0 factor is applied by
// the row split as it loads each element.
// ---------------------------------------------------------------------------

void Fft2D::product_half_pruned_lanes(std::span<double> lanes, RowProduct row_product,
                                      std::span<Cplx> hspec, std::size_t kcut) const {
  TURBDA_SPAN("fft.half_product_lanes");
  TURBDA_REQUIRE(lanes.size() == kLaneElem * half_size() && hspec.size() == half_size(),
                 "product_half_pruned_lanes: wrong buffer sizes ("
                     << lanes.size() << ", " << hspec.size() << "), expected ("
                     << kLaneElem * half_size() << ", " << half_size() << ")");
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const std::size_t rs = kLaneElem * nh;  // doubles per spectrum row
  double* d = lanes.data();
  column_lanes(d, nh, cols, /*inverse=*/true);

  // The column pass is done with `b`; the forward's column pass reclaims it
  // after the last row.
  double* g =
      Scratch::doubles(scratch(n0_, n1_).b, 2 * simd::kLaneBatch * n1_ + kLaneElem * (n1_ / 2));
  double* const out[simd::kLaneBatch] = {g, g + n1_, g + 2 * n1_, g + 3 * n1_};
  double* const product = g + simd::kLaneBatch * n1_;
  double* const work = product + simd::kLaneBatch * n1_;
  const double col_scale = (n0_ > 1) ? 1.0 / static_cast<double>(n0_) : 1.0;
  forward_lanes(
      [&](std::size_t i0, std::size_t nrows, const double** x) {
        for (std::size_t r = 0; r < nrows; ++r) {
          double* row = d + (i0 + r) * rs;
          // Truncated bins enter the rows as +0, as inverse_half_pruned's
          // zero fill leaves them (the caller's buffer may hold anything
          // there).
          std::fill(row + cols * kLaneElem, row + rs, 0.0);
          rrow_.inverse_lanes(row, col_scale, work, out);
          double* p = product + r * n1_;
          row_product(p, out[0], out[1], out[2], out[3], n1_);
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
