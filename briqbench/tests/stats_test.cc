#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace briqbench {
namespace {

TEST(OrderStatisticTest, NearestRankOnKnownSamples) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(OrderStatistic(v, 0.5), 500);
  EXPECT_EQ(OrderStatistic(v, 0.99), 990);
  EXPECT_EQ(OrderStatistic(v, 1.0), 1000);
  EXPECT_EQ(OrderStatistic(v, 0.0001), 1);
}

TEST(OrderStatisticTest, TailKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(5000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(20, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(19, 0.99), 1.0);
  EXPECT_DOUBLE_EQ(SupportedTailQuantile(10, 0.99), 1.0);
}

TEST(OrderStatisticTest, SummaryIsExactNotBucketed) {
  // Values a factor-4 bucket layout would report as 2.56 and 10.24.
  std::vector<double> v(2000, 2.01);
  for (size_t i = 1980; i < v.size(); ++i) v[i] = 9.0;
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.samples, 2000u);
  EXPECT_DOUBLE_EQ(s.p50, 2.01);
  EXPECT_DOUBLE_EQ(s.tail_q, 0.99);
  EXPECT_DOUBLE_EQ(s.tail, 2.01);  // rank 1980 is the last 2.01
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

}  // namespace
}  // namespace briqbench
