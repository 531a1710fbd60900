// Bitwise comparisons shared by the cycling tests: two ensembles, and two
// runs' per-cycle records.
//
// expect_metrics_bitwise_equal walks every stream_metrics_row column, so it
// checks every StreamCycleMetrics field in for_each_metric order and skips
// only the wall-clock columns, which are measured rather than computed. A
// field added to for_each_metric is compared at every call site unedited.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "da/ensemble.hpp"
#include "stream/realtime_runner.hpp"

namespace turbda {

inline void expect_bitwise_equal(const da::Ensemble& a, const da::Ensemble& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dim(), b.dim());
  for (std::size_t m = 0; m < a.size(); ++m) {
    const auto ra = a.member(m);
    const auto rb = b.member(m);
    EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)))
        << "member " << m << " differs";
  }
}

/// The columns that hold measured wall-clock time.
inline bool is_wall_clock_column(std::string_view name) {
  for (const std::string_view c :
       {"forecast_ms", "analysis_ms", "qc_ms", "checkpoint_ms", "cycle_ms", "pool_idle_frac"})
    if (name == c) return true;
  return false;
}

/// Every column but the wall-clock ones (and, when `skip_prefix` is
/// non-empty, those whose name starts with it) matches bitwise, row by row.
inline void expect_metrics_bitwise_equal(const std::vector<stream::StreamCycleMetrics>& a,
                                         const std::vector<stream::StreamCycleMetrics>& b,
                                         std::string_view skip_prefix = {}) {
  ASSERT_EQ(a.size(), b.size());
  const std::vector<std::string> cols = stream::stream_metrics_columns();
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::vector<double> ra = stream::stream_metrics_row(a[k]);
    const std::vector<double> rb = stream::stream_metrics_row(b[k]);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (is_wall_clock_column(cols[i])) continue;
      if (!skip_prefix.empty() && cols[i].starts_with(skip_prefix)) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ra[i]), std::bit_cast<std::uint64_t>(rb[i]))
          << "cycle " << k << " column " << cols[i] << ": " << ra[i] << " vs " << rb[i];
    }
  }
}

}  // namespace turbda
