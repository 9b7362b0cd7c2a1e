#include "src/query/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace stateslice {
namespace {

TEST(ConditionForSelectivityTest, ResolvesPaperValuesExactly) {
  const JoinCondition c025 = ConditionForSelectivity(0.025);
  EXPECT_EQ(c025.mod, 40);
  EXPECT_EQ(c025.band, 1);
  const JoinCondition c1 = ConditionForSelectivity(0.1);
  EXPECT_EQ(c1.mod, 10);
  EXPECT_EQ(c1.band, 1);
  const JoinCondition c4 = ConditionForSelectivity(0.4);
  EXPECT_EQ(c4.mod, 5);
  EXPECT_EQ(c4.band, 2);
  const JoinCondition c5 = ConditionForSelectivity(0.5);
  EXPECT_EQ(c5.mod, 2);
  EXPECT_EQ(c5.band, 1);
}

TEST(ConditionForSelectivityTest, SelectivityMatchesRequest) {
  for (double s1 : {0.025, 0.1, 0.4, 0.5, 1.0}) {
    const JoinCondition c = ConditionForSelectivity(s1);
    EXPECT_NEAR(c.Selectivity(c.mod), s1, 1e-9);
  }
}

TEST(GenerateWorkloadTest, StreamsAreOrderedAndSided) {
  WorkloadSpec spec;
  spec.duration_s = 10;
  const Workload w = GenerateWorkload(spec);
  ASSERT_FALSE(w.stream_a.empty());
  ASSERT_FALSE(w.stream_b.empty());
  for (size_t i = 1; i < w.stream_a.size(); ++i) {
    EXPECT_LE(w.stream_a[i - 1].timestamp, w.stream_a[i].timestamp);
    EXPECT_EQ(w.stream_a[i].side, StreamSide::kA);
  }
  for (const Tuple& t : w.stream_b) {
    EXPECT_EQ(t.side, StreamSide::kB);
    EXPECT_LT(t.timestamp, SecondsToTicks(10.0));
  }
}

TEST(GenerateWorkloadTest, RateIsApproximatelyHonored) {
  WorkloadSpec spec;
  spec.rate_a = 50;
  spec.rate_b = 20;
  spec.duration_s = 100;
  spec.seed = 5;
  const Workload w = GenerateWorkload(spec);
  EXPECT_NEAR(static_cast<double>(w.stream_a.size()), 5000, 300);
  EXPECT_NEAR(static_cast<double>(w.stream_b.size()), 2000, 200);
}

TEST(GenerateWorkloadTest, DeterministicForSeed) {
  WorkloadSpec spec;
  spec.duration_s = 5;
  spec.seed = 42;
  const Workload w1 = GenerateWorkload(spec);
  const Workload w2 = GenerateWorkload(spec);
  ASSERT_EQ(w1.stream_a.size(), w2.stream_a.size());
  for (size_t i = 0; i < w1.stream_a.size(); ++i) {
    EXPECT_EQ(w1.stream_a[i].timestamp, w2.stream_a[i].timestamp);
    EXPECT_EQ(w1.stream_a[i].key, w2.stream_a[i].key);
  }
}

TEST(GenerateWorkloadTest, EmpiricalJoinSelectivityMatchesS1) {
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 40;
  spec.duration_s = 50;
  spec.join_selectivity = 0.1;
  spec.seed = 11;
  const Workload w = GenerateWorkload(spec);
  uint64_t matches = 0;
  uint64_t pairs = 0;
  for (size_t i = 0; i < w.stream_a.size(); i += 3) {
    for (size_t j = 0; j < w.stream_b.size(); j += 3) {
      ++pairs;
      if (w.condition.Match(w.stream_a[i], w.stream_b[j])) ++matches;
    }
  }
  EXPECT_NEAR(static_cast<double>(matches) / pairs, 0.1, 0.01);
}

TEST(GenerateWorkloadTest, FixedRateModeIsEvenlySpaced) {
  WorkloadSpec spec;
  spec.poisson = false;
  spec.rate_a = 10;
  spec.duration_s = 2;
  const Workload w = GenerateWorkload(spec);
  ASSERT_GE(w.stream_a.size(), 19u);
  const Duration gap = w.stream_a[1].timestamp - w.stream_a[0].timestamp;
  for (size_t i = 2; i < w.stream_a.size(); ++i) {
    EXPECT_EQ(w.stream_a[i].timestamp - w.stream_a[i - 1].timestamp, gap);
  }
}

TEST(MergedArrivalsTest, GloballyOrderedWithStreamOrderOnTies) {
  // The one arrival feed benches and tests replay: every tuple of both
  // streams, in timestamp order, and stream A first on equal timestamps.
  WorkloadSpec spec;
  spec.duration_s = 5;
  spec.poisson = false;  // fixed rate: both streams tie at every step
  const Workload w = GenerateWorkload(spec);
  const std::vector<Tuple> merged = MergedArrivals(w);
  ASSERT_EQ(merged.size(), w.stream_a.size() + w.stream_b.size());
  int ties = 0;
  for (size_t i = 1; i < merged.size(); ++i) {
    ASSERT_LE(merged[i - 1].timestamp, merged[i].timestamp);
    if (merged[i - 1].timestamp == merged[i].timestamp) {
      EXPECT_LT(merged[i - 1].side, merged[i].side);
      ++ties;
    }
  }
  EXPECT_GT(ties, 0);
}

TEST(Section72WindowsTest, MatchesTable3) {
  EXPECT_EQ(Section72Windows(WindowDistribution3::kMostlySmall),
            (std::vector<double>{5, 10, 30}));
  EXPECT_EQ(Section72Windows(WindowDistribution3::kUniform),
            (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(Section72Windows(WindowDistribution3::kMostlyLarge),
            (std::vector<double>{20, 25, 30}));
}

TEST(Section72QueriesTest, OnlyQ2AndQ3Filtered) {
  const auto queries =
      MakeSection72Queries(WindowDistribution3::kUniform, 0.5);
  ASSERT_EQ(queries.size(), 3u);
  EXPECT_TRUE(queries[0].selection_a.IsTrue());
  EXPECT_FALSE(queries[1].selection_a.IsTrue());
  EXPECT_FALSE(queries[2].selection_a.IsTrue());
  EXPECT_NEAR(queries[1].selection_a.selectivity(), 0.5, 1e-12);
}

TEST(Section73WindowsTest, MatchesTable4At12Queries) {
  EXPECT_EQ(Section73Windows(WindowDistributionN::kUniformN, 12),
            (std::vector<double>{2.5, 5, 7.5, 10, 12.5, 15, 17.5, 20, 22.5,
                                 25, 27.5, 30}));
  EXPECT_EQ(Section73Windows(WindowDistributionN::kMostlySmallN, 12),
            (std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30}));
  EXPECT_EQ(Section73Windows(WindowDistributionN::kSmallLargeN, 12),
            (std::vector<double>{1, 2, 3, 4, 5, 6, 25, 26, 27, 28, 29, 30}));
}

TEST(Section73WindowsTest, ScalesToOtherQueryCounts) {
  for (int n : {4, 24, 36}) {
    for (auto dist : {WindowDistributionN::kUniformN,
                      WindowDistributionN::kMostlySmallN,
                      WindowDistributionN::kSmallLargeN}) {
      const auto windows = Section73Windows(dist, n);
      EXPECT_EQ(windows.size(), static_cast<size_t>(n)) << ToString(dist);
      for (size_t i = 1; i < windows.size(); ++i) {
        EXPECT_LE(windows[i - 1], windows[i]);
      }
      EXPECT_LE(windows.back(), 30.0);
    }
  }
}

TEST(Section73QueriesTest, AllUnfiltered) {
  const auto queries =
      MakeSection73Queries(WindowDistributionN::kSmallLargeN, 12);
  for (const auto& q : queries) {
    EXPECT_TRUE(q.Unfiltered());
  }
}

}  // namespace
}  // namespace stateslice
