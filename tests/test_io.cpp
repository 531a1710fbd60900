#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/npy.hpp"
#include "io/table.hpp"
#include "models/lorenz96.hpp"
#include "models/scaled_forecast.hpp"

namespace turbda {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "test_io_tmp.csv";
  {
    io::CsvWriter w(path, {"a", "b"});
    w.row({1.0, 2.5});
    w.row({3.0, -4.0});
  }
  const std::string s = slurp(path);
  EXPECT_NE(s.find("a,b\n"), std::string::npos);
  EXPECT_NE(s.find("1,2.5"), std::string::npos);
  EXPECT_NE(s.find("3,-4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWrongWidth) {
  const std::string path = "test_io_tmp2.csv";
  io::CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.row({1.0}), Error);
  std::remove(path.c_str());
}

TEST(Npy, HeaderAndPayload) {
  const std::string path = "test_io_tmp.npy";
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  io::write_npy(path, data, {2, 3});
  const std::string s = slurp(path);
  ASSERT_GT(s.size(), 10u);
  EXPECT_EQ(s.substr(1, 5), "NUMPY");
  EXPECT_NE(s.find("'descr': '<f8'"), std::string::npos);
  EXPECT_NE(s.find("(2, 3)"), std::string::npos);
  // Payload: little-endian doubles at the end.
  double got = 0.0;
  std::memcpy(&got, s.data() + s.size() - sizeof(double), sizeof(double));
  EXPECT_DOUBLE_EQ(got, 6.0);
  // Header block (magic..newline) is 64-byte aligned.
  EXPECT_EQ((s.size() - data.size() * sizeof(double)) % 64, 0u);
  std::remove(path.c_str());
}

TEST(Npy, ShapeMismatchThrows) {
  const std::vector<double> data{1.0, 2.0};
  EXPECT_THROW(io::write_npy("x.npy", data, {3}), Error);
}

TEST(Table, AlignsAndPrints) {
  io::Table t({"name", "value"});
  t.add_row({"alpha", io::Table::num(1.5, 2)});
  t.add_row({"longer-name", io::Table::sci(12345.0, 1)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("1.2e+04"), std::string::npos);
  // All lines equally wide.
  std::istringstream is(s);
  std::string line, first;
  std::getline(is, first);
  while (std::getline(is, line)) EXPECT_EQ(line.size(), first.size());
}

TEST(Args, FlagsAndValues) {
  const char* argv[] = {"prog", "--full", "--cycles=25", "--rate=0.5", "--name=abc"};
  io::Args a(5, const_cast<char**>(argv));
  EXPECT_TRUE(a.flag("full"));
  EXPECT_FALSE(a.flag("quick"));
  EXPECT_EQ(a.get_int("cycles", 1), 25);
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(a.get_str("name", ""), "abc");
}

TEST(ArgsDeathTest, RefusesUnknownFlagsAndMalformedNumbers) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  static constexpr char kUsage[] =
      "prog: usage text\n"
      "  --cycles=<int>  cycles\n"
      "  --rate=<f>      rate\n"
      "  --full          a flag\n";
  // Parses `args` after a program name and reads both numbers; `usage`
  // false gives the unchecked parser the cycle benchmark uses.
  const auto parse = [](std::vector<const char*> args, bool usage = true) {
    args.insert(args.begin(), "prog");
    const io::Args a(static_cast<int>(args.size()), const_cast<char**>(args.data()),
                     usage ? kUsage : "");
    return a.get_int("cycles", 1) + static_cast<long>(a.get_double("rate", 0.0));
  };
  EXPECT_EQ(parse({"--cycles=3", "--rate=2.5", "--full"}), 5);
  EXPECT_EQ(parse({"stray", "--no-such-flag"}, false), 1);

  using testing::ExitedWithCode;
  EXPECT_EXIT(parse({"--no-measure"}), ExitedWithCode(2), "unknown argument '--no-measure'");
  EXPECT_EXIT(parse({"--cycle=3"}), ExitedWithCode(2), "unknown argument '--cycle=3'");
  EXPECT_EXIT(parse({"--full", "stray"}), ExitedWithCode(2), "unknown argument 'stray'");
  EXPECT_EXIT(parse({"--cycles=abc"}), ExitedWithCode(2), "--cycles needs an integer, got 'abc'");
  EXPECT_EXIT(parse({"--cycles="}), ExitedWithCode(2), "--cycles needs an integer, got ''");
  EXPECT_EXIT(parse({"--cycles"}), ExitedWithCode(2), "--cycles needs a value");
  EXPECT_EXIT(parse({"--rate=0.5x"}), ExitedWithCode(2), "--rate needs a number, got '0.5x'");
  EXPECT_EXIT(parse({"--cycles=abc"}, false), ExitedWithCode(2), "--cycles needs an integer");
  // The refusal prints the usage after the reason; --help prints it to
  // stdout and exits 0 whatever else is given.
  EXPECT_EXIT(parse({"--cycle=3"}), ExitedWithCode(2), "--rate=<f>");
  EXPECT_EXIT(parse({"--help", "--no-measure"}), ExitedWithCode(0), "");
}

TEST(ScaledForecast, RoundTripsUnits) {
  models::Lorenz96Config mc;
  mc.dim = 8;
  mc.steps_per_window = 2;
  models::Lorenz96 inner(mc), reference(mc);
  models::ScaledForecast scaled(inner, 10.0);
  EXPECT_EQ(scaled.dim(), 8u);

  std::vector<double> raw(8, 8.0);
  raw[0] += 0.5;
  std::vector<double> outer(8);
  for (std::size_t i = 0; i < 8; ++i) outer[i] = raw[i] * 10.0;

  reference.forecast(raw);
  scaled.forecast(outer);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(outer[i], raw[i] * 10.0, 1e-9);
}

TEST(ScaledForecast, KelvinScaleValue) {
  // theta0 * f / g with defaults: 300 * 1e-4 / 9.81.
  EXPECT_NEAR(models::sqg_kelvin_scale(), 300.0 * 1e-4 / 9.81, 1e-12);
}

}  // namespace
}  // namespace turbda
