// Shared helpers for the figure-reproduction benches.
//
// Metric notes (see EXPERIMENTS.md):
//  - State memory is counted in tuples, exactly as Figures 17(a-f).
//  - The paper's CPU unit is comparisons per time unit (Section 3). Our C++
//    runtime is per-event-overhead bound rather than per-comparison bound
//    (a 2006 Java engine spends far more per comparison), so Figure-18
//    service rates are reported on the paper's own unit: results delivered
//    per modeled CPU-second, where a modeled CPU performs kComparisonsPerSec
//    comparisons per second. Wall-clock service rate is printed alongside.
#ifndef STATESLICE_BENCH_BENCH_UTIL_H_
#define STATESLICE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "src/stateslice.h"

namespace stateslice::bench {

// Nominal comparison throughput of the modeled CPU (used to convert
// measured comparison counts into the paper's service-rate unit).
inline constexpr double kComparisonsPerSec = 2.0e6;

// Outcome of one strategy run.
struct BenchRun {
  RunStats stats;
  double avg_state_tuples = 0.0;
  double comparisons_per_vsec = 0.0;
  double steady_comparisons_per_vsec = 0.0;  // after warm-up
  double service_rate_modeled = 0.0;  // results per modeled CPU-second
  double service_rate_wall = 0.0;     // results per wall-clock second
};

// Derives a BenchRun from a finished run. `warmup_cost` holds the cost
// counters when the feed first reached `warmup_s` (empty if it never did);
// memory averaging and steady-state CPU exclude the warm-up.
inline BenchRun Summarize(RunStats stats,
                          const std::optional<CostCounters>& warmup_cost,
                          double warmup_s) {
  BenchRun run;
  run.stats = std::move(stats);
  const TimePoint warmup = SecondsToTicks(warmup_s);
  run.avg_state_tuples = run.stats.AvgStateTuples(warmup);
  run.comparisons_per_vsec = run.stats.ComparisonsPerVirtualSecond();
  run.steady_comparisons_per_vsec = run.comparisons_per_vsec;
  if (warmup_cost && run.stats.virtual_end_time > warmup) {
    run.steady_comparisons_per_vsec =
        (static_cast<double>(run.stats.cost.Total()) -
         static_cast<double>(warmup_cost->Total())) /
        TicksToSeconds(run.stats.virtual_end_time - warmup);
  }
  const double cpu_seconds =
      static_cast<double>(run.stats.cost.Total()) / kComparisonsPerSec;
  run.service_rate_modeled =
      cpu_seconds > 0
          ? static_cast<double>(run.stats.results_delivered) / cpu_seconds
          : 0.0;
  run.service_rate_wall = run.stats.ServiceRate();
  return run;
}

// Replays `feed` (one globally ordered arrival feed: MergedArrivals of a
// workload) through one Engine session serving `queries`: one Push per
// tuple, a Snapshot when the feed first reaches `warmup_s` (steady-state
// CPU accounting), then Finish. Only the push loop and Finish are timed.
// Exits the process with status 1 if the engine rejects a query or
// bounces or drops an arrival: a bench must never measure a partial feed.
inline BenchRun ReplayEngine(const Engine::Options& options,
                             const std::vector<ContinuousQuery>& queries,
                             const std::vector<Tuple>& feed,
                             double warmup_s) {
  Engine engine(options);
  for (const ContinuousQuery& q : queries) {
    if (!engine.RegisterQuery(q).valid()) {
      std::fprintf(stderr, "error: query %s rejected: %s\n", q.name.c_str(),
                   engine.last_error().c_str());
      std::exit(1);
    }
  }
  const TimePoint warmup = SecondsToTicks(warmup_s);
  std::optional<CostCounters> warmup_cost;
  const auto start = std::chrono::steady_clock::now();
  for (const Tuple& t : feed) {
    if (!warmup_cost && warmup > 0 && t.timestamp >= warmup) {
      warmup_cost = engine.Snapshot().cost;
    }
    engine.Push(t.side, t);
  }
  engine.Finish();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  if (engine.rejected_tuples() > 0 || engine.dropped_tuples() > 0) {
    std::fprintf(stderr,
                 "error: engine rejected %llu and dropped %llu of %zu "
                 "arrivals (%s)\n",
                 static_cast<unsigned long long>(engine.rejected_tuples()),
                 static_cast<unsigned long long>(engine.dropped_tuples()),
                 feed.size(), engine.last_error().c_str());
    std::exit(1);
  }
  RunStats stats = engine.Snapshot();
  stats.wall_seconds = wall;
  return Summarize(std::move(stats), warmup_cost, warmup_s);
}

// ReplayEngine's deterministic discipline for a plan Engine does not
// build (hand-drawn partitions, the nested-loop probe arm): per-second
// memory samples, the warm-up cost snapshot, then a closing sample and
// the FinishAll flush, exactly as an Engine session takes them.
inline BenchRun ReplayPlan(BuiltPlan* built, const std::vector<Tuple>& feed,
                           double warmup_s) {
  QueryPlan* plan = built->plan.get();
  RoundRobinScheduler scheduler(plan);
  RunStats stats;
  stats.input_tuples = feed.size();
  const TimePoint warmup = SecondsToTicks(warmup_s);
  std::optional<CostCounters> warmup_cost;
  TimePoint next_sample = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const Tuple& t : feed) {
    for (; t.timestamp >= next_sample; next_sample += kTicksPerSecond) {
      stats.memory_samples.push_back(MemorySample{
          next_sample, plan->TotalStateSize(), plan->TotalQueueSize()});
    }
    if (!warmup_cost && warmup > 0 && t.timestamp >= warmup) {
      warmup_cost = plan->cost_counters();
    }
    built->entry->Push(t);
    scheduler.RunUntilQuiescent();
    stats.virtual_end_time = t.timestamp;
  }
  stats.memory_samples.push_back(MemorySample{stats.virtual_end_time,
                                              plan->TotalStateSize(),
                                              plan->TotalQueueSize()});
  plan->FinishAll();
  RoundRobinScheduler flush(plan);
  flush.RunUntilQuiescent();
  stats.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  stats.events_processed =
      scheduler.total_processed() + flush.total_processed();
  stats.cost = plan->cost_counters();
  for (const CountingSink* sink : built->sinks) {
    if (sink != nullptr) stats.results_delivered += sink->result_count();
  }
  return Summarize(std::move(stats), warmup_cost, warmup_s);
}

// Flattens one run's measurements into a report row: throughput, CPU in
// comparisons/s (total and steady-state), and state memory including the
// high-water mark. Used by every figure bench so the BENCH_*.json files
// share one metric vocabulary.
inline void AddRunMetrics(JsonObject* row, const BenchRun& run) {
  const double tuples = static_cast<double>(run.stats.input_tuples);
  Set(row, "input_tuples", JsonScalar::Num(tuples));
  Set(row, "events_processed",
      JsonScalar::Num(static_cast<double>(run.stats.events_processed)));
  Set(row, "results_delivered",
      JsonScalar::Num(static_cast<double>(run.stats.results_delivered)));
  Set(row, "wall_seconds", JsonScalar::Num(run.stats.wall_seconds));
  Set(row, "throughput_tuples_per_wall_sec",
      JsonScalar::Num(run.stats.wall_seconds > 0
                          ? tuples / run.stats.wall_seconds
                          : 0.0));
  Set(row, "service_rate_modeled", JsonScalar::Num(run.service_rate_modeled));
  Set(row, "service_rate_wall", JsonScalar::Num(run.service_rate_wall));
  Set(row, "comparisons_per_vsec", JsonScalar::Num(run.comparisons_per_vsec));
  Set(row, "steady_comparisons_per_vsec",
      JsonScalar::Num(run.steady_comparisons_per_vsec));
  Set(row, "total_comparisons",
      JsonScalar::Num(static_cast<double>(run.stats.cost.Total())));
  Set(row, "avg_state_tuples", JsonScalar::Num(run.avg_state_tuples));
  Set(row, "max_state_tuples",
      JsonScalar::Num(static_cast<double>(run.stats.MaxStateTuples())));
}

// Row labels of the sharing strategies compared in Figures 17/18.
inline const char* Name(SharingStrategy s) {
  switch (s) {
    case SharingStrategy::kPullUp:
      return "Selection-PullUp";
    case SharingStrategy::kPushDown:
      return "Selection-PushDown";
    case SharingStrategy::kStateSlice:
      return "State-Slice-Chain";
    case SharingStrategy::kUnshared:
      return "Unshared";
  }
  return "?";
}

}  // namespace stateslice::bench

#endif  // STATESLICE_BENCH_BENCH_UTIL_H_
