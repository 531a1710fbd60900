// General matrix multiply (double precision), a front end to the one
// dispatched product kernel, simd::Kernels::matmul_rows.
//
// The ViT surrogate's cost is GEMM-dominated ("making matrix-matrix
// multiplication (GEMM) the most computationally intensive operation",
// paper §III-B-a), so this carries both training and the Fig. 6 GEMM sweep
// (bench_fig6_kernel_heatmap); ETKF's products run here too.
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace turbda::tensor {

enum class Trans { No, Yes };

/// C = alpha * op(A) * op(B), row-major.
/// op(A) is M x K, op(B) is K x N, C is M x N.
/// lda/ldb/ldc are the leading (row) strides of the *stored* matrices.
/// Each element starts at +0.0 and adds (alpha * a) * b in ascending k,
/// unfused, so every SIMD level gives the same bits; alpha = 0 is not a
/// special case (a NaN or inf in A or B still reaches C). Large products
/// split output rows across the process-wide thread pool, which leaves each
/// element's sum unchanged; `max_threads` caps the workers (0 = all,
/// 1 = serial).
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, double alpha,
          const double* a, std::size_t lda, const double* b, std::size_t ldb, double* c,
          std::size_t ldc, std::size_t max_threads = 0);

/// C = A * B for rank-2 tensors (convenience wrapper).
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b, std::size_t max_threads = 0);

/// C = A^T * B.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b, std::size_t max_threads = 0);

/// C = A * B^T.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b, std::size_t max_threads = 0);

}  // namespace turbda::tensor
