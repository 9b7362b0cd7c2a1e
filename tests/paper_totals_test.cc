// Pins the paper-unit totals of the figure reproductions: per-category
// logical comparisons, delivered results and scheduler events of one
// Figure 17 panel (the three sharing strategies) and one Figure 19 panel
// (Mem-Opt vs CPU-Opt), replayed through the benches' Engine path. Any
// change that moves one of these numbers changes what the figure benches
// reproduce.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "src/stateslice.h"

namespace stateslice {
namespace {

struct Totals {
  // Indexed by CostCategory: probe, purge, route, filter, union, split,
  // gate.
  uint64_t cost[static_cast<int>(CostCategory::kCategoryCount)];
  uint64_t results;
  uint64_t events;
};

void ExpectTotals(const bench::BenchRun& run, const Totals& expected) {
  for (int c = 0; c < static_cast<int>(CostCategory::kCategoryCount); ++c) {
    const auto category = static_cast<CostCategory>(c);
    EXPECT_EQ(run.stats.cost.Get(category), expected.cost[c])
        << CostCounters::Name(category);
  }
  EXPECT_EQ(run.stats.results_delivered, expected.results);
  EXPECT_EQ(run.stats.events_processed, expected.events);
}

// Figure 17(b): Uniform windows, S1 = 0.1, Ss = 0.5, 20 tuples/s per
// stream, the bench's quick 45-second run and 30-second warm-up.
TEST(PaperTotalsTest, Figure17UniformPanel) {
  const auto queries =
      MakeSection72Queries(WindowDistribution3::kUniform, 0.5);
  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = 20;
  wspec.duration_s = 45;
  wspec.join_selectivity = 0.1;
  wspec.seed = 17020;
  const Workload workload = GenerateWorkload(wspec);
  const std::vector<Tuple> feed = MergedArrivals(workload);
  const struct {
    SharingStrategy strategy;
    Totals totals;
  } arms[] = {
      {SharingStrategy::kPullUp,
       {{678573, 2388, 134922, 0, 0, 0, 119198}, 91260, 279691}},
      {SharingStrategy::kStateSlice,
       {{495190, 6010, 0, 3101, 2656, 0, 60032}, 91260, 239288}},
      {SharingStrategy::kPushDown,
       {{495190, 4084, 69412, 0, 1339, 894, 0}, 91260, 184128}},
  };
  for (const auto& arm : arms) {
    SCOPED_TRACE(bench::Name(arm.strategy));
    ExpectTotals(bench::ReplayEngine({.strategy = arm.strategy,
                                      .condition = workload.condition},
                                     queries, feed, /*warmup_s=*/30),
                 arm.totals);
  }
}

// Figure 19(c): Small-Large windows, 12 queries, S1 = 0.025, 20 tuples/s
// per stream, the bench's quick 30-second run; CPU-Opt calibrated at the
// bench's 40 tuples/s midpoint.
TEST(PaperTotalsTest, Figure19SmallLargePanel) {
  const auto queries =
      MakeSection73Queries(WindowDistributionN::kSmallLargeN, 12);
  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = 20;
  wspec.duration_s = 30;
  wspec.join_selectivity = 0.025;
  wspec.seed = 19020;
  const Workload workload = GenerateWorkload(wspec);
  const std::vector<Tuple> feed = MergedArrivals(workload);
  ChainCostParams params;
  params.lambda_a = params.lambda_b = 40;
  params.s1 = 0.025;
  const struct {
    ChainObjective objective;
    Totals totals;
  } arms[] = {
      {ChainObjective::kMemOpt,
       {{370152, 15315, 0, 0, 13409, 0, 0}, 67104, 263738}},
      {ChainObjective::kCpuOpt,
       {{370152, 8431, 3563, 0, 12190, 0, 0}, 67104, 223690}},
  };
  for (const auto& arm : arms) {
    SCOPED_TRACE(arm.objective == ChainObjective::kMemOpt ? "Mem-Opt"
                                                          : "CPU-Opt");
    ExpectTotals(bench::ReplayEngine({.objective = arm.objective,
                                      .condition = workload.condition,
                                      .cost_params = params},
                                     queries, feed, /*warmup_s=*/30),
                 arm.totals);
  }
}

}  // namespace
}  // namespace stateslice
