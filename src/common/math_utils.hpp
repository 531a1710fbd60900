// Small math helpers shared across modules.
#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>

#include "common/check.hpp"

namespace turbda {

inline constexpr double kPi = std::numbers::pi_v<double>;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi_v<double>;

template <typename T>
[[nodiscard]] constexpr T sqr(T x) {
  return x * x;
}

/// True iff n is a power of two (n > 0).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// log2 of a power-of-two value.
[[nodiscard]] constexpr int ilog2(std::size_t n) {
  int l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

/// Euclidean 2-norm of a span.
[[nodiscard]] inline double norm2(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

/// RMS of a span (norm2 / sqrt(n)).
[[nodiscard]] inline double rms(std::span<const double> v) {
  TURBDA_REQUIRE(!v.empty(), "rms of empty span");
  return norm2(v) / std::sqrt(static_cast<double>(v.size()));
}

}  // namespace turbda
