// Runtime SIMD level detection: CPUID + TURBDA_SIMD override. No floating
// point here — this TU needs no special flags.
#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace turbda::simd {

namespace {

bool cpu_supports(SimdLevel level) {
#if defined(TURBDA_HAVE_AVX2) && defined(__x86_64__)
  switch (level) {
    case SimdLevel::Scalar:
      return true;
    case SimdLevel::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdLevel::Avx2Fma:
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
  }
  return false;
#else
  return level == SimdLevel::Scalar;
#endif
}

SimdLevel parse_level_env(SimdLevel fallback) {
  const char* env = std::getenv("TURBDA_SIMD");
  if (env == nullptr || *env == '\0') return fallback;
  if (std::strcmp(env, "scalar") == 0) return SimdLevel::Scalar;
  if (std::strcmp(env, "avx2") == 0) return SimdLevel::Avx2;
  if (std::strcmp(env, "avx2fma") == 0) return SimdLevel::Avx2Fma;
  // A typo must not quietly run the detected level: a per-level test loop
  // would then test the default level and pass. This runs before main (see
  // kStartupLevel), so there is no output to flush and _Exit is enough.
  std::fprintf(stderr, "TURBDA_SIMD=%s is not a SIMD level: use scalar, avx2 or avx2fma\n", env);
  std::_Exit(2);
}

SimdLevel detect_level() {
  SimdLevel best = SimdLevel::Scalar;
  if (cpu_supports(SimdLevel::Avx2)) best = SimdLevel::Avx2;
  if (cpu_supports(SimdLevel::Avx2Fma)) best = SimdLevel::Avx2Fma;
  SimdLevel want = parse_level_env(best);
  return cpu_supports(want) ? want : best;
}

std::atomic<SimdLevel>& level_slot() {
  static std::atomic<SimdLevel> level{detect_level()};
  return level;
}

// Read TURBDA_SIMD while the program starts, so an unknown value stops every
// program that links the kernels before any kernel runs, including one that
// only looks tables up by level.
[[maybe_unused]] const SimdLevel kStartupLevel = level_slot().load(std::memory_order_relaxed);

}  // namespace

SimdLevel active_simd_level() { return level_slot().load(std::memory_order_relaxed); }

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar:
      return "scalar";
    case SimdLevel::Avx2:
      return "avx2";
    case SimdLevel::Avx2Fma:
      return "avx2fma";
  }
  return "unknown";
}

bool simd_level_available(SimdLevel level) { return cpu_supports(level); }

bool force_simd_level(SimdLevel level) {
  if (!simd_level_available(level)) return false;
  level_slot().store(level, std::memory_order_relaxed);
  return true;
}

}  // namespace turbda::simd
