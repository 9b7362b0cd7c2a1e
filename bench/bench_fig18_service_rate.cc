// Figure 18 — service-rate comparison of the three sharing strategies over
// the Section 7.2 workload grid.
//
// Panels (as in the paper):
//   (a) Mostly-Small windows, S1=0.1,   Ss=0.5
//   (b) Uniform windows,      S1=0.1,   Ss=0.5
//   (c) Mostly-Large windows, S1=0.1,   Ss=0.5
//   (d) Uniform windows,      S1=0.025, Ss=0.8
//   (e) Uniform windows,      S1=0.1,   Ss=0.8
//   (f) Uniform windows,      S1=0.4,   Ss=0.8
//
// Service rate is reported in the paper's own CPU unit — results delivered
// per modeled CPU-second, with the modeled CPU performing a fixed number of
// tuple comparisons per second (Section 3's cost metric). The wall-clock
// rate of this C++ runtime is printed alongside for reference; see
// EXPERIMENTS.md for the discussion of the two metrics.
//
//   $ ./bench/bench_fig18_service_rate [--quick]
//         [--json BENCH_fig18_service_rate.json]
#include <cstdio>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct Panel {
  const char* label;
  WindowDistribution3 dist;
  double s1;
  double s_sigma;
};

constexpr Panel kPanels[] = {
    {"(a) Mostly-Small, S1=0.1, Ss=0.5", WindowDistribution3::kMostlySmall,
     0.1, 0.5},
    {"(b) Uniform, S1=0.1, Ss=0.5", WindowDistribution3::kUniform, 0.1, 0.5},
    {"(c) Mostly-Large, S1=0.1, Ss=0.5", WindowDistribution3::kMostlyLarge,
     0.1, 0.5},
    {"(d) Uniform, S1=0.025, Ss=0.8", WindowDistribution3::kUniform, 0.025,
     0.8},
    {"(e) Uniform, S1=0.1, Ss=0.8", WindowDistribution3::kUniform, 0.1, 0.8},
    {"(f) Uniform, S1=0.4, Ss=0.8", WindowDistribution3::kUniform, 0.4, 0.8},
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 30 : 90;
  const double rates[] = {20, 40, 60, 80};

  BenchReport report;
  report.bench = "fig18_service_rate";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(30));
  report.SetConfig("comparisons_per_sec", JsonScalar::Num(kComparisonsPerSec));

  std::printf("Figure 18: service rate (results per modeled CPU-second at "
              "%.0fM comparisons/s), %g-second runs\n\n",
              kComparisonsPerSec / 1e6, duration_s);
  for (const Panel& panel : kPanels) {
    std::printf("=== %s ===\n", panel.label);
    std::printf("%6s | %12s %12s %12s | %34s\n", "rate", "PullUp",
                "StateSlice", "PushDown", "(wall-clock rates, this runtime)");
    const auto queries = MakeSection72Queries(panel.dist, panel.s_sigma);
    for (double rate : rates) {
      WorkloadSpec wspec;
      wspec.rate_a = wspec.rate_b = rate;
      wspec.duration_s = duration_s;
      wspec.join_selectivity = panel.s1;
      wspec.seed = 18000 + static_cast<uint64_t>(rate);
      const Workload workload = GenerateWorkload(wspec);
      const std::vector<Tuple> feed = MergedArrivals(workload);

      BenchRun runs[3];
      const SharingStrategy order[] = {SharingStrategy::kPullUp,
                                       SharingStrategy::kStateSlice,
                                       SharingStrategy::kPushDown};
      for (int s = 0; s < 3; ++s) {
        runs[s] = ReplayEngine(
            {.strategy = order[s], .condition = workload.condition},
            queries, feed, /*warmup_s=*/30);
        JsonObject& row = report.AddRow();
        Set(&row, "panel", JsonScalar::Str(panel.label));
        Set(&row, "s1", JsonScalar::Num(panel.s1));
        Set(&row, "s_sigma", JsonScalar::Num(panel.s_sigma));
        Set(&row, "rate", JsonScalar::Num(rate));
        Set(&row, "strategy", JsonScalar::Str(Name(order[s])));
        AddRunMetrics(&row, runs[s]);
      }
      std::printf("%6.0f | %9.0f /s %9.0f /s %9.0f /s | %9.2e %9.2e %9.2e\n",
                  rate, runs[0].service_rate_modeled,
                  runs[1].service_rate_modeled,
                  runs[2].service_rate_modeled, runs[0].service_rate_wall,
                  runs[1].service_rate_wall, runs[2].service_rate_wall);
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape (paper): State-Slice-Chain highest everywhere; its\n"
      "advantage grows with the data rate (routing cost grows ~rate^2 while\n"
      "the chain's extra purging grows ~rate) and reaches ~40%% at high S1\n"
      "and high rates; PushDown sits between the two.\n");
  return FinishReport(args, report);
}
