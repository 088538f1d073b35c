#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/timer.h"
#include "ulp_testutil.h"

namespace pverify {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(PV_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(PV_CHECK_MSG(true, "never shown"));
}

TEST(CheckTest, FailingCheckThrowsWithContext) {
  try {
    PV_CHECK_MSG(false, "the message");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    double va = a.Uniform(0, 1);
    EXPECT_DOUBLE_EQ(va, b.Uniform(0, 1));
    (void)c.Uniform(0, 1);
  }
  Rng a2(123), c2(124);
  EXPECT_NE(a2.Uniform(0, 1), c2.Uniform(0, 1));
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(1, 6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng rng(17);
  Rng f1 = rng.Fork(1);
  Rng f2 = rng.Fork(2);
  EXPECT_NE(f1.Uniform(0, 1), f2.Uniform(0, 1));
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.ElapsedUs(), 0.0);
  double before = t.ElapsedMs();
  t.Restart();
  EXPECT_LE(t.ElapsedMs(), before + 1000.0);  // restarted
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double sink = 0.0;
  {
    ScopedTimerMs scoped(&sink);
    volatile double x = 0.0;
    for (int i = 0; i < 10000; ++i) x += i;
  }
  EXPECT_GT(sink, 0.0);
  double first = sink;
  {
    ScopedTimerMs scoped(&sink);
  }
  EXPECT_GE(sink, first);  // accumulates, does not reset
}

TEST(ResultTableTest, RejectsBadRows) {
  ResultTable table({"a", "b"});
  EXPECT_THROW(table.AddRow(std::vector<std::string>{"only-one"}),
               std::logic_error);
  EXPECT_THROW(ResultTable({}), std::logic_error);
}

TEST(ResultTableTest, WritesCsvMirror) {
  std::string path = ::testing::TempDir() + "/pverify_table_test.csv";
  {
    ResultTable table({"x", "y"}, path);
    table.AddRow(std::vector<std::string>{"1", "2"});
    table.AddRow(std::vector<double>{3.5, 4.25}, 2);
    table.Print();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3.50,4.25");
}

TEST(FormatDoubleTest, FixedPrecision) {
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatDouble(0.12349, 3), "0.123");
  EXPECT_EQ(FormatDouble(-2.5, 1), "-2.5");
}

// The ULP helper behind the differential harness: keys order correctly
// around zero and the distance is symmetric, zero on equality, and huge
// for NaN.
TEST(UlpDistanceTest, Basics) {
  using testutil::UlpDistance;
  EXPECT_EQ(UlpDistance(1.0, 1.0), 0u);
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);
  const double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(UlpDistance(1.0, next), 1u);
  EXPECT_EQ(UlpDistance(next, 1.0), 1u);
  EXPECT_EQ(UlpDistance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_EQ(UlpDistance(0.0, std::numeric_limits<double>::denorm_min()), 1u);
  EXPECT_GT(UlpDistance(1.0, 1.0 + 1e-9), 1000000u);
  EXPECT_EQ(UlpDistance(std::numeric_limits<double>::quiet_NaN(), 1.0),
            std::numeric_limits<uint64_t>::max());
}

}  // namespace
}  // namespace pverify
