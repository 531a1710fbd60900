#include <gtest/gtest.h>

#include <thread>

#include "common/check.hpp"
#include "common/math_utils.hpp"
#include "common/timer.hpp"

namespace turbda {
namespace {

TEST(Check, RequirePassesOnTrue) { EXPECT_NO_THROW(TURBDA_REQUIRE(1 + 1 == 2, "fine")); }

TEST(Check, RequireThrowsWithMessage) {
  try {
    TURBDA_REQUIRE(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string w = e.what();
    EXPECT_NE(w.find("context 42"), std::string::npos);
    EXPECT_NE(w.find("test_common.cpp"), std::string::npos);
  }
}

TEST(MathUtils, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(64), 6);
}

TEST(MathUtils, VectorOps) {
  const std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(rms(a), 5.0 / std::sqrt(2.0));
}

TEST(MathUtils, RmsOfEmptyThrows) {
  std::vector<double> empty;
  EXPECT_THROW((void)rms(empty), Error);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
}

TEST(Timer, WallTimerResetRestartsTheClock) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  // Right after reset the elapsed time must be far below the pre-reset wait.
  EXPECT_LT(t.milliseconds(), 15.0);
  EXPECT_GE(t.seconds(), 0.0);
}

}  // namespace
}  // namespace turbda
