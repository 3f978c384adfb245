// Copyright (c) the twbg authors. Licensed under the MIT license.

#include "sim/stats.h"

#include <gtest/gtest.h>

#include "baselines/factory.h"
#include "common/stopwatch.h"
#include "sim/simulator.h"

namespace twbg::sim {
namespace {

TEST(SampleStatsTest, EmptyIsSafe) {
  SampleStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 0.0);
  EXPECT_EQ(stats.Summary(), "n=0");
}

TEST(SampleStatsTest, SingleSample) {
  SampleStats stats;
  stats.Add(7.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
  EXPECT_DOUBLE_EQ(stats.max(), 7.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 7.0);
}

TEST(SampleStatsTest, PercentilesInterpolate) {
  SampleStats stats;
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 30.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100), 50.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(25), 20.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(12.5), 15.0);  // interpolated
  EXPECT_DOUBLE_EQ(stats.mean(), 30.0);
}

TEST(SampleStatsTest, UnsortedInsertOrder) {
  SampleStats stats;
  for (double v : {5.0, 1.0, 4.0, 2.0, 3.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.Percentile(50), 3.0);
  stats.Add(0.0);  // adding after a percentile query re-sorts lazily
  EXPECT_DOUBLE_EQ(stats.Percentile(0), 0.0);
}

TEST(SampleStatsTest, PercentileClampsArgument) {
  SampleStats stats;
  stats.Add(1.0);
  stats.Add(2.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(200), 2.0);
}

TEST(SampleStatsTest, SummaryFormat) {
  SampleStats stats;
  stats.Add(1.0);
  stats.Add(3.0);
  std::string s = stats.Summary();
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("mean=2.0"), std::string::npos);
}

TEST(StopwatchTest, ElapsedIsMonotoneAndResets) {
  common::Stopwatch watch;
  int64_t first = watch.ElapsedNanos();
  EXPECT_GE(first, 0);
  // Do a little work; elapsed must not go backwards.
  volatile int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  int64_t second = watch.ElapsedNanos();
  EXPECT_GE(second, first);
  EXPECT_GE(watch.ElapsedMicros(), second / 1e3);  // unit conversions agree
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(SimWaitStatsTest, ContendedRunRecordsWaits) {
  SimConfig config;
  config.workload.seed = 3;
  config.workload.num_transactions = 60;
  config.workload.concurrency = 6;
  config.workload.num_resources = 8;
  config.workload.zipf_theta = 0.9;
  config.detection_period = 5;
  Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
  SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.wait_ticks.count(), 0u);
  EXPECT_GT(metrics.wait_ticks.max(), 0.0);
  EXPECT_GE(metrics.wait_ticks.Percentile(95),
            metrics.wait_ticks.Percentile(50));
  EXPECT_NE(metrics.ToString().find("wait[n="), std::string::npos);
}

TEST(SimWaitStatsTest, UncontendedRunHasNoWaits) {
  SimConfig config;
  config.workload.seed = 4;
  config.workload.num_transactions = 40;
  config.workload.concurrency = 4;
  config.workload.num_resources = 5000;
  config.workload.zipf_theta = 0.0;
  config.detection_period = 5;
  Simulator sim(config, baselines::MakeStrategy("hwtwbg-periodic"));
  SimMetrics metrics = sim.Run();
  EXPECT_EQ(metrics.wait_ticks.count(), 0u);
}

}  // namespace
}  // namespace twbg::sim
