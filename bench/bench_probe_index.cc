// Probe-index bench: hash-indexed equi probes vs the nested-loop baseline.
//
// Part 1 sweeps key-domain x state-size at the state level (the probe path
// in isolation): a JoinState holding W entries is probed repeatedly with
// uniform keys, once without the index (O(W) scan) and once with it
// (O(matches) bucket lookup). This is the acceptance measurement for the
// index: at key-domain >= 1024 and W >= 10k entries the indexed arm must
// beat the nested loop by >= 5x (it is typically 100-1000x).
//
// Part 2 measures the end-to-end effect: identical equi-join workloads run
// through a shared binary state-slice chain and through a 3-way tree, with
// BuildOptions::use_key_index on vs off. Results are byte-identical (the
// equivalence suite pins that); only the wall clock moves. The paper-unit
// comparison counters are also reported and must match across arms.
//
//   $ ./bench/bench_probe_index [--quick] [--json BENCH_probe_index.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace stateslice;
using namespace stateslice::bench;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One state-level probe arm: W entries with uniform keys over `domain`,
// probed `probes` times with cycling keys. Returns probes per second.
double MeasureStateProbes(int64_t entries, int64_t domain, bool use_index,
                          int64_t probes) {
  JoinState state(WindowSpec::Count(entries));
  if (use_index) state.EnableKeyIndex();
  Rng rng(42);
  for (int64_t i = 0; i < entries; ++i) {
    Tuple t;
    t.side = StreamSide::kA;
    t.seq = static_cast<uint32_t>(i);
    t.timestamp = i;
    t.key = static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(domain)));
    state.Insert(t);
  }
  uint64_t sink = 0;
  Tuple probe;
  probe.side = StreamSide::kB;
  probe.timestamp = entries;
  const JoinCondition cond = JoinCondition::EquiKey();
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t p = 0; p < probes; ++p) {
    probe.key = p % domain;
    state.Probe(probe, cond, [&](const Tuple& m) { sink += m.seq; });
  }
  const double seconds = SecondsSince(t0);
  // Keep `sink` observable so the emit loop isn't dead code.
  if (sink == 0xdeadbeef) std::printf("(unreachable %llu)\n",
                                      static_cast<unsigned long long>(sink));
  return seconds > 0 ? static_cast<double>(probes) / seconds : 0.0;
}

// Generates a workload and rewrites it to an equi join over `domain` keys
// (RekeyForEquiJoin, shared with the probe-index equivalence suite).
Workload EquiWorkload(const WorkloadSpec& spec, int64_t domain) {
  Workload w = GenerateWorkload(spec);
  RekeyForEquiJoin(&w, domain, spec.seed * 2 + 1);
  return w;
}

MultiWorkload EquiMultiWorkload(const WorkloadSpec& spec, int num_streams,
                                int64_t domain) {
  MultiWorkload w = GenerateMultiWorkload(spec, num_streams);
  RekeyForEquiJoin(&w, domain, spec.seed * 2 + 1);
  return w;
}

// One end-to-end arm. The indexed arm is an ordinary Engine session (the
// engine always builds key-indexed plans); the nested-loop reference arm
// turns the index off, which only a hand-built plan can.
BenchRun RunArm(bool use_index, const std::vector<ContinuousQuery>& queries,
                const JoinCondition& condition,
                const std::vector<Tuple>& feed, double warmup_s) {
  if (use_index) {
    return ReplayEngine({.condition = condition}, queries, feed, warmup_s);
  }
  BuildOptions options;
  options.condition = condition;
  options.use_key_index = false;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptTree(queries), options);
  return ReplayPlan(&built, feed, warmup_s);
}

// The CI gate medians throughput_tuples_per_wall_sec across a report's
// rows; the intentionally slow nested-loop arm must not blend into (and
// mask) the indexed arm's number, so its throughput moves to a distinct
// key and the gated key is zeroed (check_regression.py skips non-positive
// values).
void ExcludeFromGate(JsonObject* row) {
  if (const JsonScalar* v = Find(*row, "throughput_tuples_per_wall_sec")) {
    Set(row, "ungated_throughput_tuples_per_wall_sec", *v);
    Set(row, "throughput_tuples_per_wall_sec", JsonScalar::Num(0.0));
  }
}

void AddPhysicalMetrics(JsonObject* row, const BenchRun& run) {
  Set(row, "physical_key_lookups",
      JsonScalar::Num(static_cast<double>(
          run.stats.cost.GetPhysical(PhysCategory::kKeyLookup))));
  Set(row, "physical_entry_visits",
      JsonScalar::Num(static_cast<double>(
          run.stats.cost.GetPhysical(PhysCategory::kEntryVisit))));
  Set(row, "physical_index_upkeep",
      JsonScalar::Num(static_cast<double>(
          run.stats.cost.GetPhysical(PhysCategory::kIndexUpkeep))));
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  if (!args.ok) return 2;

  BenchReport report;
  report.bench = "probe_index";
  report.SetConfig("quick", JsonScalar::Bool(args.quick));

  // ---------------- Part 1: state-level probe sweep ---------------------
  std::printf("Part 1: state-level equi-probe throughput, nested-loop vs "
              "hash-indexed\n");
  std::printf("%10s %10s %16s %16s %10s\n", "domain", "entries",
              "nested pr/s", "indexed pr/s", "speedup");
  const std::vector<int64_t> domains = {16, 1024, 8192};
  const std::vector<int64_t> sizes =
      args.quick ? std::vector<int64_t>{1000, 10000, 50000}
                 : std::vector<int64_t>{1000, 10000, 100000};
  // Acceptance floor: the indexed probe path must beat the nested loop by
  // >= 5x wherever the index is supposed to pay off (key-domain >= 1024,
  // window >= 10k entries). Enforced with a nonzero exit below.
  constexpr double kAcceptanceSpeedup = 5.0;
  double min_acceptance_speedup = 1e300;
  for (const int64_t domain : domains) {
    for (const int64_t entries : sizes) {
      // Budget the nested arm by total entry visits, the indexed arm by
      // probe count (its per-probe cost is near-constant).
      const int64_t nested_probes =
          std::max<int64_t>(int64_t{20'000'000} / entries, 50);
      const int64_t indexed_probes = args.quick ? 200'000 : 1'000'000;
      const double nested =
          MeasureStateProbes(entries, domain, false, nested_probes);
      const double indexed =
          MeasureStateProbes(entries, domain, true, indexed_probes);
      const double speedup = nested > 0 ? indexed / nested : 0;
      if (domain >= 1024 && entries >= 10000) {
        min_acceptance_speedup = std::min(min_acceptance_speedup, speedup);
      }
      std::printf("%10lld %10lld %16.0f %16.0f %9.1fx\n",
                  static_cast<long long>(domain),
                  static_cast<long long>(entries), nested, indexed, speedup);
      JsonObject& row = report.AddRow();
      Set(&row, "section", JsonScalar::Str("state_probe"));
      Set(&row, "key_domain", JsonScalar::Num(static_cast<double>(domain)));
      Set(&row, "window_entries",
          JsonScalar::Num(static_cast<double>(entries)));
      Set(&row, "nested_probes_per_sec", JsonScalar::Num(nested));
      Set(&row, "indexed_probes_per_sec", JsonScalar::Num(indexed));
      Set(&row, "probe_speedup", JsonScalar::Num(speedup));
    }
  }

  // ---------------- Part 2a: binary chain, end to end -------------------
  const double duration_s = args.quick ? 40 : 90;
  const double warmup_s = 10;
  const double rate = args.quick ? 60 : 100;
  report.SetConfig("duration_s", JsonScalar::Num(duration_s));
  report.SetConfig("rate", JsonScalar::Num(rate));

  std::printf("\nPart 2a: shared binary chain (3 queries, 5/10/20 s "
              "windows), %g t/s per stream, %g s\n", rate, duration_s);
  std::printf("%10s %16s %16s %10s\n", "domain", "nested tu/s",
              "indexed tu/s", "speedup");
  std::vector<ContinuousQuery> queries(3);
  const double windows[] = {5.0, 10.0, 20.0};
  for (int q = 0; q < 3; ++q) {
    queries[q].id = q;
    queries[q].name = "Q" + std::to_string(q + 1);
    queries[q].window = WindowSpec::TimeSeconds(windows[q]);
  }
  for (const int64_t domain : {64, 1024}) {
    WorkloadSpec wspec;
    wspec.rate_a = wspec.rate_b = rate;
    wspec.duration_s = duration_s;
    wspec.seed = 20060912 + static_cast<uint64_t>(domain);
    const Workload workload = EquiWorkload(wspec, domain);
    const std::vector<Tuple> feed = MergedArrivals(workload);

    double tps[2] = {0, 0};
    uint64_t logical[2] = {0, 0};
    for (const bool use_index : {false, true}) {
      const BenchRun run = RunArm(use_index, queries, workload.condition,
                                  feed, warmup_s);
      const double tuples = static_cast<double>(run.stats.input_tuples);
      tps[use_index ? 1 : 0] =
          run.stats.wall_seconds > 0 ? tuples / run.stats.wall_seconds : 0;
      logical[use_index ? 1 : 0] = run.stats.cost.Total();

      JsonObject& row = report.AddRow();
      Set(&row, "section", JsonScalar::Str("binary_chain"));
      Set(&row, "key_domain", JsonScalar::Num(static_cast<double>(domain)));
      Set(&row, "probe_path",
          JsonScalar::Str(use_index ? "indexed" : "nested_loop"));
      AddRunMetrics(&row, run);
      AddPhysicalMetrics(&row, run);
      if (!use_index) ExcludeFromGate(&row);
    }
    std::printf("%10lld %16.0f %16.0f %9.2fx\n",
                static_cast<long long>(domain), tps[0], tps[1],
                tps[0] > 0 ? tps[1] / tps[0] : 0);
    if (logical[0] != logical[1]) {
      std::fprintf(stderr,
                   "error: paper-unit comparison totals diverged "
                   "(%llu nested vs %llu indexed)\n",
                   static_cast<unsigned long long>(logical[0]),
                   static_cast<unsigned long long>(logical[1]));
      return 1;
    }
  }

  // ---------------- Part 2b: 3-way tree, end to end ---------------------
  const double tree_rate = args.quick ? 20 : 30;
  std::printf("\nPart 2b: shared 3-way tree (3 queries, 2/4/6 s windows), "
              "%g t/s per stream, %g s\n", tree_rate, duration_s);
  std::printf("%10s %16s %16s %10s\n", "domain", "nested tu/s",
              "indexed tu/s", "speedup");
  std::vector<ContinuousQuery> tree_queries(3);
  const double tree_windows[] = {2.0, 4.0, 6.0};
  for (int q = 0; q < 3; ++q) {
    tree_queries[q].id = q;
    tree_queries[q].name = "T" + std::to_string(q + 1);
    tree_queries[q].window = WindowSpec::TimeSeconds(tree_windows[q]);
    for (int s = 0; s < 3; ++s) {
      tree_queries[q].stream_names.push_back("S" + std::to_string(s));
    }
  }
  for (const int64_t domain : {64, 1024}) {
    WorkloadSpec wspec;
    wspec.rate_a = wspec.rate_b = tree_rate;
    wspec.duration_s = duration_s;
    wspec.seed = 7 + static_cast<uint64_t>(domain);
    const MultiWorkload workload = EquiMultiWorkload(wspec, 3, domain);
    const std::vector<Tuple> feed = MergedArrivals(workload);

    double tps[2] = {0, 0};
    for (const bool use_index : {false, true}) {
      const BenchRun run = RunArm(use_index, tree_queries,
                                  workload.condition, feed, warmup_s);
      const double tuples = static_cast<double>(run.stats.input_tuples);
      tps[use_index ? 1 : 0] =
          run.stats.wall_seconds > 0 ? tuples / run.stats.wall_seconds : 0;

      JsonObject& row = report.AddRow();
      Set(&row, "section", JsonScalar::Str("threeway_tree"));
      Set(&row, "key_domain", JsonScalar::Num(static_cast<double>(domain)));
      Set(&row, "probe_path",
          JsonScalar::Str(use_index ? "indexed" : "nested_loop"));
      AddRunMetrics(&row, run);
      AddPhysicalMetrics(&row, run);
      if (!use_index) ExcludeFromGate(&row);
    }
    std::printf("%10lld %16.0f %16.0f %9.2fx\n",
                static_cast<long long>(domain), tps[0], tps[1],
                tps[0] > 0 ? tps[1] / tps[0] : 0);
  }

  std::printf("\nexpected: state-level speedup grows with window size and "
              "key domain (>= 5x at domain 1024 / 10k entries, usually far "
              "more); end-to-end ingest gains are bounded by the "
              "non-probe per-event overhead.\n");
  if (min_acceptance_speedup < kAcceptanceSpeedup) {
    std::fprintf(stderr,
                 "error: indexed probe speedup %.1fx is below the %.0fx "
                 "acceptance floor (domain >= 1024, window >= 10k)\n",
                 min_acceptance_speedup, kAcceptanceSpeedup);
    return 1;
  }
  return FinishReport(args, report);
}
