#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
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

TEST(Bytes, F64SpanIsTheScalarEncodingBitForBit) {
  const std::vector<double> v{-0.0, std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity(),
                              std::bit_cast<double>(std::uint64_t{0x7FF8'0000'0000'0ABCu}),
                              std::numeric_limits<double>::denorm_min()};
  std::vector<std::uint8_t> bulk, scalar;
  bytes::put_f64_span(bulk, v);
  bytes::put_u64(scalar, v.size());
  for (double x : v) bytes::put_u64(scalar, std::bit_cast<std::uint64_t>(x));
  EXPECT_EQ(bulk, scalar);

  bytes::Reader rd(bulk);
  std::vector<double> back;
  ASSERT_TRUE(rd.f64_vec(back));
  EXPECT_TRUE(rd.done());
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]), std::bit_cast<std::uint64_t>(v[i])) << i;
}

TEST(Bytes, DoubleCountBeyondTheBytesLeftFails) {
  // Two doubles' worth of bytes behind each count: 2 fits, 3 does not, and
  // 2^61 + 1 (whose byte count wraps to 8) does not either.
  for (const std::uint64_t n : {std::uint64_t{2}, std::uint64_t{3}, (std::uint64_t{1} << 61) + 1}) {
    std::vector<std::uint8_t> in;
    bytes::put_u64(in, n);
    in.resize(in.size() + 16, 0);
    bytes::Reader rd(in);
    std::vector<double> out;
    EXPECT_EQ(rd.f64_vec(out), n == 2) << n;
    EXPECT_EQ(rd.ok(), n == 2) << n;
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
