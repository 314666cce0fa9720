//===- perfbench/tests/StatsTest.cpp - Benchmark statistics tests ---------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include <gtest/gtest.h>

using namespace qcf::perfbench;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

} // namespace

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(minSamplesFor(0.99), 1000u);
  EXPECT_EQ(minSamplesFor(0.50), 20u);
  EXPECT_FALSE(percentile(iota(999), 0.99).has_value());
  EXPECT_FALSE(percentile(iota(19), 0.50).has_value());
  EXPECT_FALSE(percentile({}, 0.50).has_value());
  ASSERT_TRUE(percentile(iota(1000), 0.99).has_value());
  ASSERT_TRUE(percentile(iota(20), 0.50).has_value());
}

TEST(Percentile, NearestRank) {
  // Nearest rank: the ceil(P * N)-th smallest sample.
  EXPECT_EQ(*percentile(iota(1000), 0.99), 990.0);
  EXPECT_EQ(*percentile(iota(1001), 0.99), 991.0);
  EXPECT_EQ(*percentile(iota(20), 0.50), 10.0);
  std::vector<double> Shuffled = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                                  15, 11, 14, 12, 13, 19, 18, 17, 16, 20};
  EXPECT_EQ(*percentile(Shuffled, 0.50), 10.0);
}

TEST(Percentile, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, Windowed) {
  // Three 1000-sample windows in time order whose p99s are 990, 1990 and
  // 2990; the 5 samples after them join the last window.
  std::vector<std::pair<uint64_t, double>> S;
  for (uint64_t I = 1; I <= 3000; ++I)
    S.push_back({I, double(I)});
  for (uint64_t I = 1; I <= 5; ++I)
    S.push_back({3000 + I, 1e9});
  WindowedPercentile R = windowedPercentile(S, 0.99, 1000, 3);
  EXPECT_EQ(R.Windows, 3u);
  EXPECT_EQ(*R.Value, 990.0);
  // A window smaller than the percentile needs is raised to 1000.
  EXPECT_EQ(windowedPercentile(S, 0.99, 10, 3).Windows, 3u);
  // Fewer windows than asked for: the percentile of all samples.
  R = windowedPercentile(S, 0.99, 1000, 4);
  EXPECT_EQ(R.Windows, 0u);
  EXPECT_EQ(*R.Value, 2975.0); // The ceil(0.99 * 3005)-th sample.
  // Eleven windows: the lower decile is the second lowest.
  std::vector<std::pair<uint64_t, double>> Many;
  for (uint64_t I = 0; I != 11000; ++I)
    Many.push_back({I, double((I / 1000 + 5) % 11)});
  EXPECT_EQ(*windowedPercentile(Many, 0.99, 1000, 3).Value, 1.0);
  // Below 1000 samples in all: nothing.
  S.resize(999);
  EXPECT_FALSE(windowedPercentile(S, 0.99, 1000, 1).Value.has_value());
}

TEST(SelfTime, NestedChildren) {
  // root [0,100) > a [10,40) > b [20,30); root > c [50,60).
  std::vector<Span> S = {{"root", 0, 100, -1, 1},
                         {"a", 10, 40, 0, 1},
                         {"b", 20, 30, 1, 1},
                         {"c", 50, 60, 0, 1}};
  std::vector<uint64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 60u); // 100 - 30 - 10; b is a's child, not root's.
  EXPECT_EQ(Self[1], 20u);
  EXPECT_EQ(Self[2], 10u);
  EXPECT_EQ(Self[3], 10u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two children running in parallel over [10,50) and [30,70), and one
  // sticking out past the parent's end.
  std::vector<Span> S = {{"root", 0, 100, -1, 1},
                         {"w1", 10, 50, 0, 1},
                         {"w2", 30, 70, 0, 1},
                         {"late", 90, 120, 0, 1}};
  std::vector<uint64_t> Self = selfTimes(S);
  EXPECT_EQ(Self[0], 100u - 60u - 10u);
  EXPECT_EQ(Self[3], 30u);
}

TEST(SelfTime, FullyCoveredIsZeroNotNegative) {
  std::vector<Span> S = {{"root", 0, 10, -1, 1},
                         {"x", 0, 10, 0, 1},
                         {"y", 2, 8, 0, 1}};
  EXPECT_EQ(selfTimes(S)[0], 0u);
}

TEST(SelfTime, LogSumsByNameAndRoots) {
  SpanLog L;
  int64_t R1 = L.open("req", -1, 1, 0);
  L.add("codegen", R1, 1, 0, 3);
  L.add("exec", R1, 1, 3, 9);
  L.close(R1, 10);
  int64_t R2 = L.open("req", -1, 2, 100);
  L.add("exec", R2, 2, 100, 104);
  L.close(R2, 105);
  std::map<std::string, uint64_t> By = L.selfByName();
  EXPECT_EQ(By["req"], 1u + 1u);
  EXPECT_EQ(By["codegen"], 3u);
  EXPECT_EQ(By["exec"], 6u + 4u);
  EXPECT_EQ(L.rootNs(), 15u);
}

TEST(Unattributed, WallMinusLayers) {
  EXPECT_DOUBLE_EQ(unattributed(10.0, {{"a", 3.0}, {"b", 4.5}}), 2.5);
  EXPECT_DOUBLE_EQ(unattributed(10.0, {}), 10.0);
  // Layers measured in a slower (traced) run can exceed the wall time.
  EXPECT_DOUBLE_EQ(unattributed(1.0, {{"a", 1.5}}), -0.5);
}
