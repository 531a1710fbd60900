#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"

namespace turbda::tensor {

namespace {

// Cache-blocking tile sizes (doubles): fits comfortably in L1/L2 on
// contemporary x86 cores while letting the inner loop auto-vectorize.
constexpr std::size_t kMc = 64;
constexpr std::size_t kNc = 256;
constexpr std::size_t kKc = 128;

// Row-parallelization thresholds: below kParFlops the kernel runs serially
// (fork/join overhead dominates); each worker gets at least kParMinRows rows
// so the duplicated B-tile packing amortizes.
constexpr std::size_t kParFlops = std::size_t{1} << 20;
constexpr std::size_t kParMinRows = 16;

/// The calling thread's tile-packing scratch, at least `n` doubles. It only
/// grows, so once a thread has run a product of some shape, gemm calls of
/// that shape or smaller allocate nothing.
double* pack_scratch(std::size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Packs op(A) tile [i0,i1) x [k0,k1) into row-major contiguous storage.
void pack_a(Trans ta, const double* a, std::size_t lda, std::size_t i0, std::size_t i1,
            std::size_t k0, std::size_t k1, double* out) {
  const std::size_t kw = k1 - k0;
  if (ta == Trans::No) {
    for (std::size_t i = i0; i < i1; ++i) {
      const double* src = a + i * lda + k0;
      std::copy(src, src + kw, out + (i - i0) * kw);
    }
  } else {
    // op(A)(i,k) = A(k,i)
    for (std::size_t i = i0; i < i1; ++i) {
      double* dst = out + (i - i0) * kw;
      for (std::size_t k = k0; k < k1; ++k) dst[k - k0] = a[k * lda + i];
    }
  }
}

/// Packs op(B) tile [k0,k1) x [j0,j1) row-major.
void pack_b(Trans tb, const double* b, std::size_t ldb, std::size_t k0, std::size_t k1,
            std::size_t j0, std::size_t j1, double* out) {
  const std::size_t jw = j1 - j0;
  if (tb == Trans::No) {
    for (std::size_t k = k0; k < k1; ++k) {
      const double* src = b + k * ldb + j0;
      std::copy(src, src + jw, out + (k - k0) * jw);
    }
  } else {
    // op(B)(k,j) = B(j,k)
    for (std::size_t k = k0; k < k1; ++k) {
      double* dst = out + (k - k0) * jw;
      for (std::size_t j = j0; j < j1; ++j) dst[j - j0] = b[j * ldb + k];
    }
  }
}

/// Serial blocked kernel restricted to output rows [r0, r1). Per element
/// C(i, j) the accumulation order over k is fixed (ascending k-blocks, then
/// ascending kk), so any row partition produces bitwise-identical results.
void gemm_rows(Trans ta, Trans tb, std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
               double alpha, const double* a, std::size_t lda, const double* b, std::size_t ldb,
               double beta, double* c, std::size_t ldc) {
  // Scale C by beta first.
  if (beta == 0.0) {
    for (std::size_t i = r0; i < r1; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0);
  } else if (beta != 1.0) {
    for (std::size_t i = r0; i < r1; ++i)
      for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
  }
  if (alpha == 0.0 || r0 >= r1 || n == 0 || k == 0) return;

  const std::size_t pa_size = std::min(kMc, r1 - r0) * std::min(kKc, k);
  double* const pa = pack_scratch(pa_size + std::min(kKc, k) * std::min(kNc, n));
  double* const pb = pa + pa_size;
  for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
    const std::size_t k1 = std::min(k, k0 + kKc);
    for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
      const std::size_t j1 = std::min(n, j0 + kNc);
      pack_b(tb, b, ldb, k0, k1, j0, j1, pb);
      const std::size_t jw = j1 - j0;
      for (std::size_t i0 = r0; i0 < r1; i0 += kMc) {
        const std::size_t i1 = std::min(r1, i0 + kMc);
        pack_a(ta, a, lda, i0, i1, k0, k1, pa);
        const std::size_t kw = k1 - k0;
        // Micro-kernel: rank-kw update of the C tile; innermost loop over j
        // is contiguous in both pb and c so it auto-vectorizes.
        for (std::size_t i = i0; i < i1; ++i) {
          const double* arow = pa + (i - i0) * kw;
          double* crow = c + i * ldc + j0;
          for (std::size_t kk = 0; kk < kw; ++kk) {
            const double av = alpha * arow[kk];
            const double* brow = pb + kk * jw;
            for (std::size_t j = 0; j < jw; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

/// Dedicated matrix-vector rows kernel: an n = 1 "GEMM" is a dot-product
/// loop, and the tile-packing machinery of gemm_rows is pure overhead for
/// it. Accumulation per output element is beta-scale first, then ascending
/// k with alpha applied to the A element — exactly gemm_rows' per-element
/// order, so routing n = 1 products here is bitwise transparent.
void gemv_rows(Trans ta, std::size_t r0, std::size_t r1, std::size_t k, double alpha,
               const double* a, std::size_t lda, const double* x, std::size_t incx, double beta,
               double* y, std::size_t incy) {
  for (std::size_t i = r0; i < r1; ++i) {
    double acc = (beta == 0.0) ? 0.0 : beta * y[i * incy];
    if (alpha != 0.0) {
      if (ta == Trans::No && incx == 1) {
        const double* row = a + i * lda;
        for (std::size_t kk = 0; kk < k; ++kk) acc += alpha * row[kk] * x[kk];
      } else if (ta == Trans::No) {
        const double* row = a + i * lda;
        for (std::size_t kk = 0; kk < k; ++kk) acc += alpha * row[kk] * x[kk * incx];
      } else {
        for (std::size_t kk = 0; kk < k; ++kk) acc += alpha * a[kk * lda + i] * x[kk * incx];
      }
    }
    y[i * incy] = acc;
  }
}

/// Shared row-partition gating for the matvec kernel (same flop threshold
/// as the blocked GEMM path).
void gemv_dispatch(Trans ta, std::size_t m, std::size_t k, double alpha, const double* a,
                   std::size_t lda, const double* x, std::size_t incx, double beta, double* y,
                   std::size_t incy, std::size_t max_threads) {
  if (m == 0) return;
  if (max_threads != 1 && 2 * m * k >= kParFlops && m >= 2 * kParMinRows) {
    parallel::parallel_for(
        m,
        [&](std::size_t r0, std::size_t r1) {
          gemv_rows(ta, r0, r1, k, alpha, a, lda, x, incx, beta, y, incy);
        },
        kParMinRows, max_threads);
    return;
  }
  gemv_rows(ta, 0, m, k, alpha, a, lda, x, incx, beta, y, incy);
}

}  // namespace

void gemv(Trans ta, std::size_t m, std::size_t k, double alpha, const double* a, std::size_t lda,
          const double* x, double beta, double* y, std::size_t max_threads) {
  gemv_dispatch(ta, m, k, alpha, a, lda, x, 1, beta, y, 1, max_threads);
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, double alpha,
          const double* a, std::size_t lda, const double* b, std::size_t ldb, double beta,
          double* c, std::size_t ldc, std::size_t max_threads) {
  if (m == 0) return;
  if (n == 1) {
    // op(B) is k x 1: column stride ldb when stored k x 1, contiguous when
    // stored 1 x k (transposed).
    const std::size_t incx = (tb == Trans::No) ? ldb : 1;
    gemv_dispatch(ta, m, k, alpha, a, lda, b, incx, beta, c, ldc, max_threads);
    return;
  }
  // Disjoint row ranges: workers share nothing but read-only A/B, and the
  // per-element FP order is partition-invariant (see gemm_rows), so the
  // result is bitwise independent of the thread count.
  if (max_threads != 1 && 2 * m * n * k >= kParFlops && m >= 2 * kParMinRows) {
    parallel::parallel_for(
        m,
        [&](std::size_t r0, std::size_t r1) {
          gemm_rows(ta, tb, r0, r1, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        },
        kParMinRows, max_threads);
    return;
  }
  gemm_rows(ta, tb, 0, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

namespace {
Tensor matmul_impl(Trans ta, Trans tb, const Tensor& a, const Tensor& b,
                   std::size_t max_threads) {
  TURBDA_REQUIRE(a.rank() == 2 && b.rank() == 2, "matmul needs rank-2 tensors");
  const std::size_t m = (ta == Trans::No) ? a.extent(0) : a.extent(1);
  const std::size_t ka = (ta == Trans::No) ? a.extent(1) : a.extent(0);
  const std::size_t kb = (tb == Trans::No) ? b.extent(0) : b.extent(1);
  const std::size_t n = (tb == Trans::No) ? b.extent(1) : b.extent(0);
  TURBDA_REQUIRE(ka == kb, "matmul: inner dimensions differ (" << ka << " vs " << kb << ")");
  Tensor out({m, n});
  gemm(ta, tb, m, n, ka, 1.0, a.data(), a.extent(1), b.data(), b.extent(1), 0.0, out.data(), n,
       max_threads);
  return out;
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, std::size_t max_threads) {
  return matmul_impl(Trans::No, Trans::No, a, b, max_threads);
}
Tensor matmul_tn(const Tensor& a, const Tensor& b, std::size_t max_threads) {
  return matmul_impl(Trans::Yes, Trans::No, a, b, max_threads);
}
Tensor matmul_nt(const Tensor& a, const Tensor& b, std::size_t max_threads) {
  return matmul_impl(Trans::No, Trans::Yes, a, b, max_threads);
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  TURBDA_REQUIRE(a.rank() == 2 && x.rank() == 1, "matvec needs (rank-2, rank-1)");
  TURBDA_REQUIRE(a.extent(1) == x.extent(0), "matvec: dimension mismatch");
  Tensor y({a.extent(0)});
  gemv(Trans::No, a.extent(0), a.extent(1), 1.0, a.data(), a.extent(1), x.data(), 0.0, y.data());
  return y;
}

}  // namespace turbda::tensor
