// The one listing of simd::Kernels: every entry's kernel template, in the
// struct's order. Included only by the two table TUs, kernels.cpp (VecScalar)
// and kernels_avx2.cpp (VecAvx2), which CMakeLists.txt compiles with
// -ffp-contract=off and auto-vectorization off, so the only FMA contractions
// are the explicit kFma instantiations. An entry without a kFma parameter
// has no FMA variant and takes no kFma argument.
#pragma once

#include "fft/simd_kernels_impl.hpp"
#include "simd/dense_kernels_impl.hpp"
#include "simd/kernels.hpp"
#include "simd/pointwise_kernels_impl.hpp"
#include "simd/vec.hpp"

namespace turbda::simd {

template <class V, bool kFma>
constexpr Kernels kernel_table() {
  static_assert(V::kWidth == kLaneBatch, "lane-batched kernels assume kWidth lanes");
  namespace fd = fft::detail;
  return {
      // FFT butterflies
      .lane_pass_first = fd::lane_pass_first_impl<V>,
      .lane_pass_radix4 = fd::lane_pass_radix4_impl<V, kFma>,
      .lane_pass_radix2 = fd::lane_pass_radix2_impl<V, kFma>,
      .lane_rows_in = fd::lane_rows_in_impl<V>,
      .lane_rfft_pack = fd::lane_rfft_pack_impl<V, kFma>,
      .lane_cols_in = fd::lane_cols_in_impl<V>,
      .lane_cols_out = fd::lane_cols_out_impl<V>,
      .lane_rfft_unpack = fd::lane_rfft_unpack_impl<V, kFma>,
      .lane_rows_out = fd::lane_rows_out_impl<V>,
      // Small dense
      .rot_rows = detail::rot_rows_impl<V, kFma>,
      .scale = detail::scale_impl<V>,
      .baccum_rows = detail::baccum_rows_impl<V, kFma>,
      .bscale = detail::bscale_impl<V>,
      .bscale_shift = detail::bscale_shift_impl<V, kFma>,
      .bjacobi_sweeps = detail::bjacobi_sweeps_impl<V, kFma>,
      .axpy = detail::axpy_impl<V, kFma>,
      .clamped_axpy = detail::clamped_axpy_impl<V>,
      .matmul_rows = detail::matmul_rows_impl<V>,
      .gaussian_pairs = detail::gaussian_pairs_impl<V>,
      // SQG pointwise
      .sqg_pass1 = detail::sqg_pass1_impl<V, kFma>,
      .sqg_jacobian = detail::sqg_jacobian_impl<V, kFma>,
      .sqg_combine = detail::sqg_combine_impl<V, kFma>,
      .mul_inplace = detail::mul_inplace_impl<V>,
      .add_scaled = detail::add_scaled_impl<V, kFma>,
      .rk4_update = detail::rk4_update_impl<V, kFma>,
  };
}

}  // namespace turbda::simd
