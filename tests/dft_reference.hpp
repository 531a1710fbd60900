// Double-precision FFT oracle for the tests: a textbook recursive radix-2
// complex FFT, and the packed half-spectrum 2-D forward and inverse of
// fft::Fft2D built from it. It shares no code with src/fft (no SIMD, no
// plans, no lane layout, no float) and is O(n log n), so the Debug and
// sanitizer builds stay fast.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "common/math_utils.hpp"

namespace turbda::test {

using Cplx = std::complex<double>;

namespace detail {

/// out[k] = sum_j in[j * is] exp(sign 2πi jk / n), k < n: the DFTs of the
/// even and the odd samples into the two halves of out, then one butterfly
/// per k.
inline void dft_recursive(const Cplx* in, std::size_t is, Cplx* out, std::size_t n,
                          double sign) {
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const std::size_t h = n / 2;
  dft_recursive(in, 2 * is, out, h, sign);
  dft_recursive(in + is, 2 * is, out + h, h, sign);
  for (std::size_t k = 0; k < h; ++k) {
    const double ang = sign * kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    const Cplx e = out[k], t = std::polar(1.0, ang) * out[k + h];
    out[k] = e + t;
    out[k + h] = e - t;
  }
}

}  // namespace detail

/// DFT of a power-of-two-length x: X[k] = sum_j x[j] exp(-2πi jk / n);
/// the inverse has the + sign and the 1/n factor.
inline std::vector<Cplx> dft(const std::vector<Cplx>& x, bool inverse) {
  std::vector<Cplx> out(x.size());
  detail::dft_recursive(x.data(), 1, out.data(), x.size(), inverse ? 1.0 : -1.0);
  if (inverse)
    for (Cplx& v : out) v /= static_cast<double>(x.size());
  return out;
}

/// Packed half spectrum (n0 x (n1/2 + 1), the layout of fft::Fft2D) of a
/// real row-major n0 x n1 grid: each row's DFT, of which bins 0..n1/2 are
/// kept, then each kept column's DFT.
inline std::vector<Cplx> forward_half(const std::vector<double>& g, std::size_t n0,
                                      std::size_t n1) {
  const std::size_t nh = n1 / 2 + 1;
  std::vector<Cplx> out(n0 * nh), line(n1);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t x = 0; x < n1; ++x) line[x] = g[i * n1 + x];
    const std::vector<Cplx> row = dft(line, /*inverse=*/false);
    for (std::size_t j = 0; j < nh; ++j) out[i * nh + j] = row[j];
  }
  std::vector<Cplx> col(n0);
  for (std::size_t j = 0; j < nh; ++j) {
    for (std::size_t i = 0; i < n0; ++i) col[i] = out[i * nh + j];
    col = dft(col, /*inverse=*/false);
    for (std::size_t i = 0; i < n0; ++i) out[i * nh + j] = col[i];
  }
  return out;
}

/// Real grid of a packed half spectrum, with the 1/(n0 n1) factor: each
/// column's inverse DFT, then each row's inverse DFT after completing it by
/// X[n1 - j] = conj(X[j]), of which the real part is kept (so the imaginary
/// parts of bins 0 and n1/2 count for nothing, as in any c2r).
inline std::vector<double> inverse_half(const std::vector<Cplx>& hspec, std::size_t n0,
                                        std::size_t n1) {
  const std::size_t nh = n1 / 2 + 1;
  std::vector<Cplx> cols(hspec), col(n0);
  for (std::size_t j = 0; j < nh; ++j) {
    for (std::size_t i = 0; i < n0; ++i) col[i] = cols[i * nh + j];
    col = dft(col, /*inverse=*/true);
    for (std::size_t i = 0; i < n0; ++i) cols[i * nh + j] = col[i];
  }
  std::vector<double> g(n0 * n1);
  std::vector<Cplx> line(n1);
  for (std::size_t i = 0; i < n0; ++i) {
    for (std::size_t j = 0; j < nh; ++j) line[j] = cols[i * nh + j];
    for (std::size_t j = 1; j < n1 - j; ++j) line[n1 - j] = std::conj(line[j]);
    const std::vector<Cplx> row = dft(line, /*inverse=*/true);
    for (std::size_t x = 0; x < n1; ++x) g[i * n1 + x] = row[x].real();
  }
  return g;
}

}  // namespace turbda::test
