// Scoped SIMD dispatch level for tests that force each level in turn.
#pragma once

#include "simd/dispatch.hpp"

namespace turbda::test {

/// Restores the entry dispatch level even when an assertion fails mid-test.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(simd::active_simd_level()) {}
  ~SimdLevelGuard() { simd::force_simd_level(saved_); }
  SimdLevelGuard(const SimdLevelGuard&) = delete;
  SimdLevelGuard& operator=(const SimdLevelGuard&) = delete;

 private:
  simd::SimdLevel saved_;
};

}  // namespace turbda::test
