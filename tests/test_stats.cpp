// Tests for the statistics toolkit (summaries, samples, histograms,
// time series, bootstrap intervals).
#include <gtest/gtest.h>

#include <cmath>

#include "stats/bootstrap.hpp"
#include "stats/histogram.hpp"
#include "stats/sample.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace lagover {
namespace {

TEST(RunningSummaryTest, BasicMoments) {
  RunningSummary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningSummaryTest, MergeMatchesSequential) {
  RunningSummary all;
  RunningSummary left;
  RunningSummary right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningSummaryTest, EmptyIsZero) {
  RunningSummary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SampleTest, QuantilesExactOnSmallSets) {
  Sample s;
  s.add_all({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleTest, MedianInterpolatesEvenCounts) {
  Sample s;
  s.add_all({1.0, 2.0, 3.0, 10.0});
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(SampleTest, LazySortSurvivesInterleavedAdds) {
  Sample s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SampleTest, TrimmedMeanDropsExtremes) {
  Sample s;
  s.add_all({100.0, 1.0, 2.0, 3.0, -50.0});
  EXPECT_DOUBLE_EQ(s.trimmed_mean(1), 2.0);
}

TEST(SampleTest, StddevMatchesHandComputation) {
  Sample s;
  s.add_all({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(HistogramTest, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(1.5);
  h.add(9.9);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.count_in_bin(0), 2u);  // [0,2)
  EXPECT_EQ(h.count_in_bin(4), 1u);  // [8,10)
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(1), 4.0);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(HistogramTest, ExactBinBoundariesAreHalfOpen) {
  Histogram h(0.0, 10.0, 5);  // bins of width 2
  h.add(0.0);   // lower edge of bin 0
  h.add(2.0);   // boundary: belongs to bin 1, not bin 0
  h.add(4.0);
  h.add(8.0);
  h.add(9.999);
  EXPECT_EQ(h.count_in_bin(0), 1u);
  EXPECT_EQ(h.count_in_bin(1), 1u);
  EXPECT_EQ(h.count_in_bin(2), 1u);
  EXPECT_EQ(h.count_in_bin(4), 2u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  // hi itself is outside [lo, hi).
  h.add(10.0);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(HistogramTest, SaturatingTailsKeepTotalExact) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 100; ++i) h.add(-1.0);
  for (int i = 0; i < 50; ++i) h.add(5.0);
  h.add(0.25);
  EXPECT_EQ(h.underflow(), 100u);
  EXPECT_EQ(h.overflow(), 50u);
  EXPECT_EQ(h.total(), 151u);
  EXPECT_EQ(h.count_in_bin(0), 1u);
}

TEST(TimeSeriesTest, StepSemanticsAndQueries) {
  TimeSeries ts;
  ts.add(0.0, 0.1);
  ts.add(1.0, 0.5);
  ts.add(2.0, 0.8);
  ts.add(3.0, 1.0);
  EXPECT_DOUBLE_EQ(ts.step_value_at(0.5), 0.1);
  EXPECT_DOUBLE_EQ(ts.step_value_at(2.0), 0.8);
  EXPECT_DOUBLE_EQ(ts.step_value_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.first_time_at_least(0.8), 2.0);
  EXPECT_LT(ts.first_time_at_least(2.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.mean_after(2.0), 0.9);
  EXPECT_DOUBLE_EQ(ts.min_after(1.0), 0.5);
}

TEST(TimeSeriesTest, DownsampleKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i <= 100; ++i) ts.add(i, i * 0.01);
  const TimeSeries small = ts.downsample(11);
  EXPECT_EQ(small.size(), 11u);
  EXPECT_DOUBLE_EQ(small.time_at(0), 0.0);
  EXPECT_DOUBLE_EQ(small.time_at(10), 100.0);
  EXPECT_DOUBLE_EQ(small.value_at(10), 1.0);
}

TEST(TimeSeriesTest, CsvHasHeaderAndRows) {
  TimeSeries ts;
  ts.add(1.0, 2.0);
  const std::string csv = ts.to_csv("fraction");
  EXPECT_NE(csv.find("t,fraction"), std::string::npos);
  EXPECT_NE(csv.find("1,2"), std::string::npos);
}

TEST(BootstrapTest, MedianCiCoversPointEstimate) {
  Rng rng(11);
  std::vector<double> values{10, 12, 9, 11, 10, 13, 10, 9, 11, 12};
  const auto ci = bootstrap_median_ci(values, 0.95, 2000, rng);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
  EXPECT_NEAR(ci.point, 10.5, 1e-12);
}

TEST(BootstrapTest, MedianDifferenceCiSeparatesShiftedSamples) {
  Rng rng(13);
  const std::vector<double> a{10, 12, 9, 11, 10, 13, 10, 9, 11, 12};
  std::vector<double> shifted = a;
  for (double& x : shifted) x += 100.0;
  const auto same = bootstrap_median_difference_ci(a, a, 0.99, 2000, rng);
  EXPECT_DOUBLE_EQ(same.point, 0.0);
  EXPECT_LE(same.lower, 0.0);
  EXPECT_GE(same.upper, 0.0);
  const auto apart =
      bootstrap_median_difference_ci(shifted, a, 0.99, 2000, rng);
  EXPECT_DOUBLE_EQ(apart.point, 100.0);
  EXPECT_GT(apart.lower, 0.0);
  EXPECT_LE(apart.lower, apart.point);
  EXPECT_GE(apart.upper, apart.point);
}

TEST(BootstrapTest, MeanCiNarrowsWithTightData) {
  Rng rng(12);
  std::vector<double> tight(50, 5.0);
  const auto ci = bootstrap_mean_ci(tight, 0.95, 500, rng);
  EXPECT_DOUBLE_EQ(ci.lower, 5.0);
  EXPECT_DOUBLE_EQ(ci.upper, 5.0);
}

}  // namespace
}  // namespace lagover
