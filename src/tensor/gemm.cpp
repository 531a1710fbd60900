#include "tensor/gemm.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/kernels.hpp"

namespace turbda::tensor {

namespace {

// Row-parallelization thresholds: below kParFlops the product runs serially
// (fork/join overhead dominates); each worker gets at least kParMinRows rows.
constexpr std::size_t kParFlops = std::size_t{1} << 20;
constexpr std::size_t kParMinRows = 16;

/// At least `n` doubles of `buf`. The buffers passed here are thread_local
/// and only grow, so once a thread has run a product of some shape, calls of
/// that shape or smaller allocate nothing.
double* grow(std::vector<double>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, double alpha,
          const double* a, std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc, std::size_t max_threads) {
  if (m == 0 || n == 0) return;
  const simd::Kernels& dk = simd::active_kernels();

  // The kernel reads B as a contiguous k x n block: pack op(B) into one,
  // once per call, unless it is one already. Workers share it read-only.
  const double* bk = b;
  if (tb == Trans::Yes || ldb != n) {
    thread_local std::vector<double> packed_b;
    double* p = grow(packed_b, k * n);
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j)
        p[kk * n + j] = (tb == Trans::No) ? b[kk * ldb + j] : b[j * ldb + kk];
    bk = p;
  }

  // Output rows [r0, r1). alpha * op(A) is copied unless the kernel can read
  // A as stored, and the output is staged when C's rows are not contiguous.
  const bool copy_a = ta == Trans::Yes || alpha != 1.0;
  const bool stage_c = ldc != n;
  const auto rows = [&](std::size_t r0, std::size_t r1) {
    const std::size_t mr = r1 - r0;
    thread_local std::vector<double> scratch;
    double* s = grow(scratch, (copy_a ? mr * k : 0) + (stage_c ? mr * n : 0));
    if (copy_a)
      for (std::size_t i = r0; i < r1; ++i)
        for (std::size_t kk = 0; kk < k; ++kk)
          s[(i - r0) * k + kk] = alpha * ((ta == Trans::No) ? a[i * lda + kk] : a[kk * lda + i]);
    double* out = stage_c ? s + (copy_a ? mr * k : 0) : c + r0 * ldc;
    dk.matmul_rows(out, copy_a ? s : a + r0 * lda, copy_a ? k : lda, mr, bk, k, n);
    if (stage_c)
      for (std::size_t i = 0; i < mr; ++i) std::copy_n(out + i * n, n, c + (r0 + i) * ldc);
  };
  // Disjoint row ranges: workers share nothing but read-only A and B, and an
  // element's sum does not depend on the partition, so the result is bitwise
  // independent of the thread count.
  if (max_threads != 1 && 2 * m * n * k >= kParFlops && m >= 2 * kParMinRows) {
    parallel::parallel_for(m, rows, kParMinRows, max_threads);
    return;
  }
  rows(0, m);
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
  gemm(ta, tb, m, n, ka, 1.0, a.data(), a.extent(1), b.data(), b.extent(1), out.data(), n,
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

}  // namespace turbda::tensor
