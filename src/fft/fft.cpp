#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "simd/kernels.hpp"
#include "telemetry/trace.hpp"

namespace turbda::fft {

namespace {

constexpr std::size_t kLaneElem = 2 * simd::kLaneBatch;  // floats per lane-batched element

/// exp(-2πi k / n) for k < count, or its conjugate, rounded once from double
/// to float and interleaved (re, im).
std::vector<float> twiddles(std::size_t n, std::size_t count, bool conj) {
  std::vector<float> w(2 * count);
  for (std::size_t k = 0; k < count; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    w[2 * k] = static_cast<float>(std::cos(ang));
    w[2 * k + 1] = static_cast<float>(conj ? -std::sin(ang) : std::sin(ang));
  }
  return w;
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
  lane_fwd_.resize(static_cast<std::size_t>(log2n_) + 1);
  lane_inv_.resize(lane_fwd_.size());
  for (int s = 3; s <= log2n_; ++s) {
    const std::size_t len = std::size_t{1} << s;
    lane_fwd_[static_cast<std::size_t>(s)] = twiddles(len, len / 2, /*conj=*/false);
    lane_inv_[static_cast<std::size_t>(s)] = twiddles(len, len / 2, /*conj=*/true);
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
  // Fused radix-2^2 pairs, then the odd stage.
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

Rfft1D::Rfft1D(std::size_t n)
    : n_(n), h_(n / 2), half_(rfft_half_length(n)), lane_w_(twiddles(n, h_ / 2 + 1, /*conj=*/false)) {}

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

constexpr std::size_t kLaneColumns = 4;  // lane transforms per column-pass kernel call
// Float rows of the row c2r's scratch: four grid rows of each of four
// spectrum rows, and the product transform's four product rows.
constexpr std::size_t kProductRows = (simd::kLaneBatch + 1) * simd::kLaneBatch;

/// True when spectrum row i of an n0-row half spectrum holds |my| <= kcut.
bool row_retained(std::size_t i, std::size_t n0, std::size_t kcut) {
  return (i <= n0 / 2 ? i : n0 - i) <= kcut;
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
/// line: `fa` holds the forward's column buffer and lane row spectrum, or
/// the per-field inverse's lane spectrum; `fb` the forward's float grid
/// rows, or the row c2r's grid rows, product rows and half-length row
/// transforms.
struct Scratch {
  using Buffer = std::vector<float, simd::LaneAllocator<float>>;
  Buffer fa, fb;

  static float* get(Buffer& buf, std::size_t n) {
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
  s.fa.reserve(std::max((n0 + simd::kLaneBatch) * nb, n0 * nh) * kLaneElem);
  s.fb.reserve(kProductRows * n1 + simd::kLaneBatch * kLaneElem * (n1 / 2));
  return s;
}

/// The row c2r's destinations in `fb`: grid row l of spectrum row r of a
/// four-row batch at out[4 r + l], then four product rows, then the
/// half-length transforms' work.
struct RowScratch {
  float* out[simd::kLaneBatch * simd::kLaneBatch];
  float* product;
  float* work;
};

RowScratch row_scratch(std::size_t n0, std::size_t n1) {
  constexpr std::size_t kL = simd::kLaneBatch;
  float* g = Scratch::get(scratch(n0, n1).fb, kProductRows * n1 + kL * kLaneElem * (n1 / 2));
  RowScratch rs;
  for (std::size_t q = 0; q < kL * kL; ++q) rs.out[q] = g + q * n1;
  rs.product = g + kL * kL * n1;
  rs.work = rs.product + kL * n1;
  return rs;
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

  for (std::size_t i = 0; i < n0_; ++i) {
    Cplx* out = hspec.data() + i * nh;
    std::size_t kept = 0;
    if (row_retained(i, n0_, kcut)) {
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
// Per-field inverse, in single precision on lane 0: the retained square goes
// into lane 0 of a lane spectrum that holds only the retained columns (the
// other lanes, and the rows with |my| > kcut, are +0), the columns transform
// in place, every four spectrum rows go through the lane c2r side by side,
// and lane 0's grid rows are widened into the grid. The column transform's
// 1/n0 factor is applied by the row split.
// ---------------------------------------------------------------------------

void Fft2D::inverse_half_pruned(std::span<const Cplx> hspec, std::span<double> grid,
                                std::size_t kcut) const {
  TURBDA_SPAN("fft.half_inverse");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "inverse_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const std::size_t rs = kLaneElem * cols;  // floats per lane spectrum row
  float* d = Scratch::get(scratch(n0_, n1_).fa, n0_ * rs);
  for (std::size_t i = 0; i < n0_; ++i) {
    float* row = d + i * rs;
    std::fill(row, row + rs, 0.0f);
    if (!row_retained(i, n0_, kcut)) continue;
    const Cplx* in = hspec.data() + i * nh;
    for (std::size_t j = 0; j < cols; ++j) {
      row[kLaneElem * j] = static_cast<float>(in[j].real());
      row[kLaneElem * j + simd::kLaneBatch] = static_cast<float>(in[j].imag());
    }
  }
  column_lanes(d, cols, cols, /*inverse=*/true);

  RowScratch g = row_scratch(n0_, n1_);
  const float col_scale = 1.0f / static_cast<float>(n0_);
  for (std::size_t i0 = 0; i0 < n0_; i0 += simd::kLaneBatch) {
    const std::size_t nrows = std::min(simd::kLaneBatch, n0_ - i0);
    rrow_.inverse_lanes(d + i0 * rs, rs, nrows, cols, col_scale, g.work, g.out);
    for (std::size_t r = 0; r < nrows; ++r)
      std::copy_n(g.out[simd::kLaneBatch * r], n1_, grid.data() + (i0 + r) * n1_);
  }
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

  // The forward uses `fa`; the rows live in `fb`.
  constexpr std::size_t kL = simd::kLaneBatch;
  RowScratch g = row_scratch(n0_, n1_);
  const float col_scale = 1.0f / static_cast<float>(n0_);
  forward_lanes(
      [&](std::size_t i0, std::size_t nrows, const float** x) {
        rrow_.inverse_lanes(d + i0 * rs, rs, nrows, cols, col_scale, g.work, g.out);
        for (std::size_t r = 0; r < nrows; ++r) {
          float* p = g.product + r * n1_;
          float* const* in = g.out + kL * r;
          row_product(p, in[0], in[1], in[2], in[3], n1_);
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
