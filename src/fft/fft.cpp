#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "simd/dense_kernels.hpp"
#include "telemetry/trace.hpp"

namespace turbda::fft {

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
  // (scalar / AVX2 / AVX2+FMA; see simd_kernels.hpp).
  double* d = reinterpret_cast<double*>(x.data());
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  const FftKernels& kr = active_kernels();
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

void Fft1D::inverse_lanes(double* d, std::size_t stride, std::size_t m) const {
  if (n_ == 1) return;
  constexpr std::size_t kElem = 2 * simd::kLaneBatch;  // doubles per lane element
  const std::size_t es = kElem * stride;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap_ranges(d + i * es, d + i * es + kElem * m, d + j * es);
  }
  const FftKernels& kr = active_kernels();
  if (n_ == 2) {
    for (std::size_t c = 0; c < kElem * m; ++c) {
      const double u = d[c], t = d[es + c];
      d[c] = u + t;
      d[es + c] = u - t;
    }
  } else {
    kr.lane_pass_first(d, n_, stride, m);
  }
  // The stage sequence of transform(): fused radix-2^2 pairs, then the odd
  // stage.
  const auto tw = [this](int s) {
    return reinterpret_cast<const double*>(stage_inv_[static_cast<std::size_t>(s)].data());
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
  active_kernels().rfft_pack(reinterpret_cast<double*>(spec.data()),
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
  active_kernels().rfft_unpack(reinterpret_cast<double*>(spec.data()),
                               reinterpret_cast<const double*>(w_.data()), h);
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);
  half_.inverse(spec.first(h));
  for (std::size_t j = 0; j < h; ++j) {
    x[2 * j] = spec[j].real();
    x[2 * j + 1] = spec[j].imag();
  }
}

void Rfft1D::inverse_lanes(double* spec, double pre_scale, double* const* x) const {
  const FftKernels& kr = active_kernels();
  kr.lane_rfft_unpack(spec, reinterpret_cast<const double*>(w_.data()), h_, pre_scale);
  half_.inverse_lanes(spec, 1, 1);
  kr.lane_rows_out(spec, h_, h_ > 1 ? 1.0 / static_cast<double>(h_) : 1.0, x);
}

// ---------------------------------------------------------------------------
// Fft2D — rows, cache-blocked transpose, batched contiguous column
// transforms, transpose back. Scratch is per-thread and grown on demand, so
// plans stay immutable and shareable across threads.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kTransposeBlock = 32;  // 16 KiB src + 16 KiB dst tiles

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

/// Dense (c x r) destination convenience overload.
void transpose_blocked(const Cplx* src, std::size_t ls, Cplx* dst, std::size_t r, std::size_t c) {
  transpose_blocked(src, ls, dst, r, r, c);
}

bool all_zero(const Cplx* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (p[i].real() != 0.0 || p[i].imag() != 0.0) return false;
  return true;
}

/// Transforms `count` contiguous rows of length `len`, skipping all-zero rows
/// (a transform of zeros is zeros; the SQG tendency inverts dealiased spectra
/// whose outer third of rows vanishes identically).
void batch_transform(Cplx* data, std::size_t count, std::size_t len, const Fft1D& plan,
                     bool inverse) {
  for (std::size_t i = 0; i < count; ++i) {
    Cplx* row = data + i * len;
    if (all_zero(row, len)) continue;
    std::span<Cplx> s(row, len);
    if (inverse) {
      plan.inverse(s);
    } else {
      plan.forward(s);
    }
  }
}

/// Two per-thread scratch arenas (a 2-D transform needs at most two live
/// buffers). References stay valid across nested use because the slots are
/// distinct vectors. Slot 0 holds the row spectra, slot 1 the transposed
/// columns (or, in the fused product transform, first the column pass's
/// lane copy and then the grid rows).
std::vector<Cplx>& tls_buffer(int slot, std::size_t n) {
  thread_local std::vector<Cplx> bufs[2];
  auto& b = bufs[slot];
  if (b.size() < n) b.resize(n);
  return b;
}

}  // namespace

Fft2D::Fft2D(std::size_t n0, std::size_t n1) : n0_(n0), n1_(n1), col_(n0), rrow_(n1) {}

// ---------------------------------------------------------------------------
// Packed half-spectrum transforms: rows r2c -> transpose -> column FFTs over
// the first min(kcut, n1/2) + 1 columns only -> transpose back. The pruned
// forward masks |my| > kcut rows for free while writing the packed output;
// the pruned inverse never touches the column transforms of truncated bins.
// ---------------------------------------------------------------------------

void Fft2D::forward_half_pruned(std::span<const double> grid, std::span<Cplx> hspec,
                                std::size_t kcut) const {
  TURBDA_SPAN("fft.half_forward");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "forward_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  const std::size_t nh = half_cols();
  auto& hbuf = tls_buffer(0, n0_ * nh);
  for (std::size_t i = 0; i < n0_; ++i)
    rrow_.forward(grid.subspan(i * n1_, n1_), std::span<Cplx>(hbuf.data() + i * nh, nh));
  forward_columns(hbuf.data(), hspec, kcut);
}

void Fft2D::forward_columns(Cplx* rows, std::span<Cplx> hspec, std::size_t kcut) const {
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const long rowcut = static_cast<long>(std::min(kcut, n0_ / 2));

  auto& tbuf = tls_buffer(1, cols * n0_);
  transpose_blocked(rows, nh, tbuf.data(), n0_, cols);
  batch_transform(tbuf.data(), cols, n0_, col_, /*inverse=*/false);
  transpose_blocked(tbuf.data(), n0_, rows, cols, n0_);  // rows: dense n0 x cols

  for (std::size_t i = 0; i < n0_; ++i) {
    Cplx* out = hspec.data() + i * nh;
    const long my =
        (i <= n0_ / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n0_);
    if (std::labs(my) > rowcut) {
      std::fill(out, out + nh, Cplx(0.0, 0.0));
      continue;
    }
    const Cplx* src = rows + i * cols;
    std::copy(src, src + cols, out);
    std::fill(out + cols, out + nh, Cplx(0.0, 0.0));
  }
}

void Fft2D::inverse_half_pruned(std::span<const Cplx> hspec, std::span<double> grid,
                                std::size_t kcut) const {
  TURBDA_SPAN("fft.half_inverse");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "inverse_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  const std::size_t nh = half_cols();
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;

  auto& tbuf = tls_buffer(1, cols * n0_);
  transpose_blocked(hspec.data(), nh, tbuf.data(), n0_, cols);
  batch_transform(tbuf.data(), cols, n0_, col_, /*inverse=*/true);

  auto& hbuf = tls_buffer(0, n0_ * nh);
  if (cols < nh) {  // truncated tail bins are identically zero
    for (std::size_t i = 0; i < n0_; ++i)
      std::fill(hbuf.data() + i * nh + cols, hbuf.data() + (i + 1) * nh, Cplx(0.0, 0.0));
  }
  transpose_blocked(tbuf.data(), n0_, hbuf.data(), nh, cols, n0_);

  for (std::size_t i = 0; i < n0_; ++i)
    rrow_.inverse_inplace(std::span<Cplx>(hbuf.data() + i * nh, nh), grid.subspan(i * n1_, n1_));
}

// ---------------------------------------------------------------------------
// Fused product transform: four half spectra in one lane-interleaved buffer.
// The column pass runs in place down the strided columns (no transposes),
// kLaneColumns adjacent columns per kernel call. Each row then goes through
// the lane Rfft1D split, the half-length transform and the de-interleaving
// store into four grid rows, the caller's product of those rows, and the
// product row's r2c; the forward's columns finish the spectrum. The column
// transform's 1/n0 factor is applied by the row split as it loads each
// element.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLaneElem = 2 * simd::kLaneBatch;  // doubles per lane-batched bin
constexpr unsigned kAllLanes = (1u << simd::kLaneBatch) - 1;
constexpr std::size_t kLaneColumns = 4;

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

}  // namespace

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

  // batch_transform leaves an all-±0 column's bits untouched. A column block
  // with no live lane is skipped; lanes transformed alongside live ones are
  // restored from a copy afterwards (e.g. column mx = 0 of the two
  // i kx-derivatives). The 8 x 2 plan at kcut 4 needs the restore: with
  // theta_x and theta_y all ±0, the product's zero signs come from the dead
  // lanes, and without it they differ from the per-field transforms' at
  // every dispatch level (Fft2dLanes.MatchesPerFieldBitwiseAtEveryLevel).
  if (n0_ > 1) {
    const std::size_t block = kLaneElem * kLaneColumns;  // doubles per block row
    double* saved = reinterpret_cast<double*>(tls_buffer(1, n0_ * block / 2).data());
    for (std::size_t j0 = 0; j0 < cols; j0 += kLaneColumns) {
      const std::size_t m = std::min(kLaneColumns, cols - j0);
      double* blk = d + j0 * kLaneElem;
      unsigned live[kLaneColumns] = {};
      bool any = false, all = true;
      for (std::size_t c = 0; c < m; ++c) {
        live[c] = live_lanes(blk + c * kLaneElem, n0_, rs);
        any = any || live[c] != 0;
        all = all && live[c] == kAllLanes;
      }
      if (!any) continue;
      if (!all)
        for (std::size_t i = 0; i < n0_; ++i)
          std::copy(blk + i * rs, blk + i * rs + m * kLaneElem, saved + i * block);
      col_.inverse_lanes(blk, nh, m);
      if (!all)
        for (std::size_t i = 0; i < n0_; ++i)
          for (std::size_t c = 0; c < m; ++c)
            for (std::size_t l = 0; l < simd::kLaneBatch; ++l)
              if (!(live[c] & (1u << l))) {
                const std::size_t at = c * kLaneElem + l;
                blk[i * rs + at] = saved[i * block + at];
                blk[i * rs + at + simd::kLaneBatch] = saved[i * block + at + simd::kLaneBatch];
              }
    }
  }

  // The four grid rows and their product (5 n1 doubles) live in slot 1,
  // which the column pass is done with and forward_columns reclaims.
  auto& hbuf = tls_buffer(0, n0_ * nh);
  double* grid_rows =
      reinterpret_cast<double*>(tls_buffer(1, (simd::kLaneBatch + 1) * n1_ / 2).data());
  double* const out[simd::kLaneBatch] = {grid_rows, grid_rows + n1_, grid_rows + 2 * n1_,
                                         grid_rows + 3 * n1_};
  double* const product = grid_rows + simd::kLaneBatch * n1_;
  const double col_scale = (n0_ > 1) ? 1.0 / static_cast<double>(n0_) : 1.0;
  for (std::size_t i = 0; i < n0_; ++i) {
    double* row = d + i * rs;
    // Truncated bins enter the rows as +0, as inverse_half_pruned's zero
    // fill leaves them (the caller's buffer may hold anything there).
    std::fill(row + cols * kLaneElem, row + rs, 0.0);
    rrow_.inverse_lanes(row, col_scale, out);
    row_product(product, out[0], out[1], out[2], out[3], n1_);
    rrow_.forward(std::span<const double>(product, n1_),
                  std::span<Cplx>(hbuf.data() + i * nh, nh));
  }
  forward_columns(hbuf.data(), hspec, kcut);
}

void Fft2D::forward_half(std::span<const double> grid, std::span<Cplx> hspec) const {
  forward_half_pruned(grid, hspec, std::max(n0_, n1_));
}

void Fft2D::inverse_half(std::span<const Cplx> hspec, std::span<double> grid) const {
  inverse_half_pruned(hspec, grid, std::max(n0_, n1_));
}

}  // namespace turbda::fft
