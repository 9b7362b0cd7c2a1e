// Parallel-runtime scaling bench: pipeline speedup over worker threads.
//
// Runs the chain-scaling workload (12 uniform-window queries sharing one
// Mem-Opt sliced chain, the Section 7.3 setting of bench_chain_scaling)
// under the deterministic single-threaded scheduler, then under the
// parallel pipeline scheduler sweeping 1..N worker threads, and reports
// wall-clock throughput and speedup. Result counts are CHECKed against the
// deterministic run, so this bench doubles as an end-to-end equivalence
// smoke test.
//
// Pipeline parallelism needs cores: on a single-core machine the sweep
// degenerates to ~1x (threads timeshare) — the printed
// hardware_concurrency tells you which regime a report came from.
//
//   $ ./bench/bench_parallel_scaling [--quick] [--json BENCH_....json]
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

struct ScalingRun {
  BenchRun run;
  int stages = 1;
  uint64_t edge_events = 0;
  size_t edge_hwm = 0;
  // Per-stage busy (vs idle-polling) wall-clock fraction, stage order.
  std::vector<double> stage_busy;
};

// Replays the workload through a fresh Engine session in the given mode
// via the shared bench harness, so the JSON rows carry the full
// derived-metric vocabulary (service rates, comparisons/s, state
// averages), not just wall-clock throughput.
ScalingRun RunOnce(const std::vector<ContinuousQuery>& queries,
                   const Workload& workload, ExecutionMode mode,
                   int workers, double warmup_s) {
  ScalingRun out;
  out.run = ReplayEngine({.mode = mode,
                          .worker_threads = workers,
                          .condition = workload.condition},
                         queries, MergedArrivals(workload), warmup_s);
  out.stages = out.run.stats.worker_threads;
  out.edge_events = out.run.stats.parallel_edge_events;
  out.edge_hwm = out.run.stats.parallel_edge_high_water_mark;
  out.stage_busy = out.run.stats.stage_busy_fraction;
  return out;
}

double Throughput(const ScalingRun& r) {
  return r.run.stats.wall_seconds > 0
             ? static_cast<double>(r.run.stats.input_tuples) /
                   r.run.stats.wall_seconds
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;
  const double duration_s = args.quick ? 30 : 90;
  const double warmup_s = 10;  // steady-state CPU accounting cutoff
  const double rate = 60;
  const double s1 = 0.05;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  const auto queries =
      MakeSection73Queries(WindowDistributionN::kUniformN, 12);
  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = rate;
  wspec.duration_s = duration_s;
  wspec.join_selectivity = s1;
  wspec.seed = 11;
  const Workload workload = GenerateWorkload(wspec);

  BenchReport report;
  report.bench = "parallel_scaling";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("warmup_s", JsonScalar::Num(warmup_s));
  report.SetConfig("rate", JsonScalar::Num(rate));
  report.SetConfig("s1", JsonScalar::Num(s1));
  report.SetConfig("num_queries", JsonScalar::Num(12));
  report.SetConfig("hardware_concurrency", JsonScalar::Num(hw));

  std::printf("parallel pipeline scaling (12 uniform queries, Mem-Opt "
              "chain, %g t/s, S1=%g, %g s, %u hardware threads)\n\n",
              rate, s1, duration_s, hw);

  const ScalingRun det = RunOnce(queries, workload,
                                 ExecutionMode::kDeterministic, 1, warmup_s);
  const double det_tput = Throughput(det);
  std::printf("%-16s %8s %14s %10s %10s %10s\n", "mode", "stages",
              "tuples/s", "speedup", "results", "edge hwm");
  std::printf("%-16s %8d %14.0f %10s %10llu %10s\n", "deterministic", 1,
              det_tput, "1.00x",
              static_cast<unsigned long long>(
                  det.run.stats.results_delivered), "-");
  {
    JsonObject& row = report.AddRow();
    Set(&row, "mode", JsonScalar::Str("deterministic"));
    Set(&row, "workers", JsonScalar::Num(1));
    Set(&row, "stages", JsonScalar::Num(1));
    Set(&row, "speedup_vs_deterministic", JsonScalar::Num(1.0));
    AddRunMetrics(&row, det.run);
  }

  // Fixed sweep on every machine so the report's row set (and the
  // regression gate's median over it) is hardware-independent; the
  // recorded hardware_concurrency says how many stages had real cores.
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  for (const int workers : worker_counts) {
    const ScalingRun par = RunOnce(queries, workload,
                                   ExecutionMode::kParallel, workers,
                                   warmup_s);
    // The parallel runtime must deliver exactly the deterministic answer.
    SLICE_CHECK_EQ(par.run.stats.results_delivered,
                   det.run.stats.results_delivered);
    const double tput = Throughput(par);
    const double speedup = det_tput > 0 ? tput / det_tput : 0.0;
    std::printf("%-16s %8d %14.0f %9.2fx %10llu %10zu\n",
                ("parallel-" + std::to_string(workers)).c_str(), par.stages,
                tput, speedup,
                static_cast<unsigned long long>(
                    par.run.stats.results_delivered),
                par.edge_hwm);
    JsonObject& row = report.AddRow();
    Set(&row, "mode", JsonScalar::Str("parallel"));
    Set(&row, "workers", JsonScalar::Num(workers));
    Set(&row, "stages", JsonScalar::Num(par.stages));
    Set(&row, "speedup_vs_deterministic", JsonScalar::Num(speedup));
    Set(&row, "edge_events", JsonScalar::Num(
        static_cast<double>(par.edge_events)));
    Set(&row, "edge_high_water_mark", JsonScalar::Num(
        static_cast<double>(par.edge_hwm)));
    // Per-stage occupancy: the spread exposes the heaviest-stage
    // bottleneck that caps pipeline speedup (and that the sharded mode
    // sidesteps by replicating the whole chain per key partition).
    double busy_sum = 0;
    double busy_max = 0;
    for (size_t i = 0; i < par.stage_busy.size(); ++i) {
      Set(&row, "stage" + std::to_string(i) + "_busy_fraction",
          JsonScalar::Num(par.stage_busy[i]));
      busy_sum += par.stage_busy[i];
      busy_max = std::max(busy_max, par.stage_busy[i]);
    }
    if (!par.stage_busy.empty()) {
      Set(&row, "avg_stage_busy_fraction",
          JsonScalar::Num(busy_sum /
                          static_cast<double>(par.stage_busy.size())));
      Set(&row, "max_stage_busy_fraction", JsonScalar::Num(busy_max));
    }
    AddRunMetrics(&row, par.run);
  }

  std::printf("\nexpected: speedup approaches the stage count on machines "
              "with that many free cores (the chain's slices pipeline); "
              "~1x on a single core, where the sweep only measures "
              "scheduler overhead.\n");
  return FinishReport(args, report);
}
