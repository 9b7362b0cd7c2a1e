// Runs the same three-query workload (Section 7.2) under every sharing
// strategy and prints the measured memory / CPU trade-offs side by side —
// a one-screen version of Figures 17 and 18.
//
//   $ ./examples/strategy_comparison [rate_tuples_per_sec]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/stateslice.h"

using namespace stateslice;

namespace {

struct Row {
  std::string name;
  RunStats stats;
};

// One Engine session per strategy, fed the merged arrivals tuple by tuple.
Row RunStrategy(const std::string& name, const Engine::Options& options,
                const std::vector<ContinuousQuery>& queries,
                const Workload& workload) {
  Engine engine(options);
  for (const ContinuousQuery& q : queries) engine.RegisterQuery(q);
  for (const Tuple& t : MergedArrivals(workload)) engine.Push(t.side, t);
  engine.Finish();
  return Row{name, engine.Snapshot()};
}

}  // namespace

int main(int argc, char** argv) {
  const double rate = argc > 1 ? std::atof(argv[1]) : 40.0;

  // Q1 (no σ), Q2/Q3 (σ on A) over the Uniform window set 10/20/30 s.
  const auto queries =
      MakeSection72Queries(WindowDistribution3::kUniform, /*s_sigma=*/0.5);
  std::printf("workload: λ=%.0f t/s per stream, S1=0.1, Sσ=0.5, 90 s\n",
              rate);
  for (const auto& q : queries) {
    std::printf("  %s\n", q.DebugString().c_str());
  }

  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = rate;
  wspec.duration_s = 90;
  wspec.join_selectivity = 0.1;
  const Workload workload = GenerateWorkload(wspec);

  ChainCostParams params;
  params.lambda_a = params.lambda_b = rate;
  params.s1 = 0.1;
  const JoinCondition condition = workload.condition;

  std::vector<Row> rows;
  rows.push_back(RunStrategy(
      "unshared (no sharing)",
      {.strategy = SharingStrategy::kUnshared, .condition = condition},
      queries, workload));
  rows.push_back(RunStrategy(
      "selection pull-up (Fig. 3)",
      {.strategy = SharingStrategy::kPullUp, .condition = condition},
      queries, workload));
  rows.push_back(RunStrategy(
      "selection push-down (Fig. 4)",
      {.strategy = SharingStrategy::kPushDown, .condition = condition},
      queries, workload));
  rows.push_back(RunStrategy("state-slice Mem-Opt (Fig. 12)",
                             {.condition = condition}, queries, workload));
  rows.push_back(RunStrategy("state-slice CPU-Opt (Fig. 13)",
                             {.objective = ChainObjective::kCpuOpt,
                              .condition = condition,
                              .cost_params = params},
                             queries, workload));

  const TimePoint warmup = SecondsToTicks(35);
  std::printf("\n%-32s %12s %14s %14s %12s\n", "strategy", "avg state",
              "comparisons/s", "service rate", "results");
  for (const Row& row : rows) {
    std::printf("%-32s %9.0f tu %14.0f %11.0f /s %12llu\n", row.name.c_str(),
                row.stats.AvgStateTuples(warmup),
                row.stats.ComparisonsPerVirtualSecond(),
                row.stats.ServiceRate(),
                static_cast<unsigned long long>(
                    row.stats.results_delivered));
  }

  // The analytic prediction for the same setting (Eqs. 1-3, two-query form
  // shown for Q1 vs Q3).
  TwoQueryParams p;
  p.lambda = rate;
  p.w1 = 10;
  p.w2 = 30;
  p.s_sigma = 0.5;
  p.s1 = 0.1;
  std::printf("\nanalytic (Eqs. 1-3, Q1 vs Q3 windows): "
              "pullup mem=%.0f tu cpu=%.0f/s | "
              "pushdown mem=%.0f tu cpu=%.0f/s | "
              "state-slice mem=%.0f tu cpu=%.0f/s\n",
              PullUpCost(p).memory_tuples, PullUpCost(p).cpu_per_sec,
              PushDownCost(p).memory_tuples, PushDownCost(p).cpu_per_sec,
              StateSliceCost(p).memory_tuples, StateSliceCost(p).cpu_per_sec);
  return 0;
}
