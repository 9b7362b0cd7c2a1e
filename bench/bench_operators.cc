// Google-benchmark microbenches for the runtime primitives: join-state
// insert/purge/probe, queue transfer, union merge, and whole-join
// throughput. Used to calibrate the ChainCostParams::c_sys constant (the
// per-operator, per-tuple overhead relative to one probe comparison).
//
// Accepts the standard Google Benchmark flags plus the repo-wide
// `--json <path>` reporter flag (writes the shared BENCH_*.json schema).
//
//   $ ./bench/bench_operators [--json BENCH_operators.json]
#include <benchmark/benchmark.h>

#include <string>
#include <type_traits>
#include <vector>

#include "bench/bench_report.h"
#include "src/stateslice.h"

namespace stateslice {
namespace {

Tuple MakeTuple(StreamSide side, uint32_t seq, TimePoint ts, int64_t key) {
  Tuple t;
  t.side = side;
  t.seq = seq;
  t.timestamp = ts;
  t.key = key;
  return t;
}

void BM_JoinStateInsertPurge(benchmark::State& state) {
  const Duration window = SecondsToTicks(10);
  JoinState js(WindowSpec::Time(window));
  TimePoint now = 0;
  uint32_t seq = 0;
  for (auto _ : state) {
    now += SecondsToTicks(0.01);
    ++seq;
    js.Insert(MakeTuple(StreamSide::kA, seq, now, seq % 16));
    benchmark::DoNotOptimize(js.Purge(now, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinStateInsertPurge);

void BM_JoinStateProbe(benchmark::State& state) {
  const int64_t size = state.range(0);
  JoinState js(WindowSpec::Count(size));
  for (int64_t i = 0; i < size; ++i) {
    js.Insert(MakeTuple(StreamSide::kA, static_cast<uint32_t>(i), i, i % 16));
  }
  const Tuple probe = MakeTuple(StreamSide::kB, 1, size, 3);
  const JoinCondition cond = JoinCondition::EquiKey();
  std::vector<Tuple> matches;
  for (auto _ : state) {
    matches.clear();
    benchmark::DoNotOptimize(js.Probe(
        probe, cond, [&matches](const Tuple& e) { matches.push_back(e); }));
  }
  // items == comparisons: this measures ns per probe comparison, the
  // denominator of the c_sys calibration.
  state.SetItemsProcessed(state.iterations() * size);
}
BENCHMARK(BM_JoinStateProbe)->Arg(64)->Arg(1024)->Arg(8192);

void BM_QueueTransfer(benchmark::State& state) {
  EventQueue queue("bench");
  const Tuple t = MakeTuple(StreamSide::kA, 1, 1, 1);
  for (auto _ : state) {
    queue.Push(t);
    benchmark::DoNotOptimize(queue.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueueTransfer);

void BM_UnionMergeThroughput(benchmark::State& state) {
  UnionMerge merge("u", 2);
  EventQueue out("out");
  merge.AttachOutput(UnionMerge::kOutPort, &out);
  TimePoint now = 0;
  for (auto _ : state) {
    ++now;
    merge.Process(JoinResult{MakeTuple(StreamSide::kA, 1, now, 0),
                             MakeTuple(StreamSide::kB, 1, now, 0)},
                  now & 1);
    merge.Process(Punctuation{.watermark = now}, 0);
    merge.Process(Punctuation{.watermark = now}, 1);
    while (!out.empty()) benchmark::DoNotOptimize(out.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnionMergeThroughput);

// Whole-operator throughput: a regular window join fed alternating
// A/B tuples at a fixed arrival rate and window.
void BM_SlidingWindowJoin(benchmark::State& state) {
  const double rate = 50;                       // tuples/sec
  const Duration window = SecondsToTicks(state.range(0));
  SlidingWindowJoin::Options options;
  options.condition = JoinCondition::ModSum(10, 1);  // S1 = 0.1
  SlidingWindowJoin join("bench", WindowSpec::Time(window),
                         WindowSpec::Time(window), options);
  EventQueue out("out");
  join.AttachOutput(SlidingWindowJoin::kResultPort, &out);
  const Duration step = static_cast<Duration>(kTicksPerSecond / rate);
  TimePoint now = 0;
  uint32_t seq = 0;
  for (auto _ : state) {
    now += step;
    ++seq;
    const StreamSide side = (seq & 1) ? StreamSide::kA : StreamSide::kB;
    join.Process(MakeTuple(side, seq, now, seq % 10), 0);
    while (!out.empty()) benchmark::DoNotOptimize(out.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingWindowJoin)->Arg(5)->Arg(20);

// Sliced join slice: same load, one slice of a chain (measures the extra
// propagate/punctuation work a slice performs vs a plain join).
void BM_SlicedWindowJoinSlice(benchmark::State& state) {
  const double rate = 50;
  const Duration window = SecondsToTicks(state.range(0));
  SlicedWindowJoin::Options options;
  options.condition = JoinCondition::ModSum(10, 1);
  SlicedWindowJoin join("bench", SliceRange{WindowKind::kTime, 0, window},
                        options);
  EventQueue out("out"), next("next");
  join.AttachOutput(SlicedWindowJoin::kResultPort, &out);
  join.AttachOutput(SlicedWindowJoin::kNextPort, &next);
  const Duration step = static_cast<Duration>(kTicksPerSecond / rate);
  TimePoint now = 0;
  uint32_t seq = 0;
  for (auto _ : state) {
    now += step;
    ++seq;
    const StreamSide side = (seq & 1) ? StreamSide::kA : StreamSide::kB;
    join.Process(MakeTuple(side, seq, now, seq % 10), 0);
    while (!out.empty()) benchmark::DoNotOptimize(out.Pop());
    while (!next.empty()) benchmark::DoNotOptimize(next.Pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlicedWindowJoinSlice)->Arg(5)->Arg(20);

// End-to-end shared plan throughput (3 queries, Mem-Opt chain): one
// Engine session per iteration, fed tuple by tuple.
void BM_EndToEndStateSlicePlan(benchmark::State& state) {
  const auto queries =
      MakeSection72Queries(WindowDistribution3::kUniform, 0.5);
  WorkloadSpec wspec;
  wspec.rate_a = wspec.rate_b = 40;
  wspec.duration_s = 10;
  wspec.join_selectivity = 0.1;
  const Workload workload = GenerateWorkload(wspec);
  const std::vector<Tuple> feed = MergedArrivals(workload);
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine({.condition = workload.condition});
    for (const ContinuousQuery& q : queries) engine.RegisterQuery(q);
    state.ResumeTiming();
    for (const Tuple& t : feed) engine.Push(t.side, t);
    engine.Finish();
    benchmark::DoNotOptimize(engine.input_tuples());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(feed.size()));
}
BENCHMARK(BM_EndToEndStateSlicePlan);

// Benchmark <= 1.7 exposes Run::error_occurred; 1.8 replaced it with the
// Run::skipped state. Detect which member exists so either library works.
template <typename R, typename = void>
struct HasErrorOccurred : std::false_type {};
template <typename R>
struct HasErrorOccurred<
    R, std::void_t<decltype(std::declval<const R&>().error_occurred)>>
    : std::true_type {};

template <typename R>
bool RunWasSkipped(const R& run) {
  if constexpr (HasErrorOccurred<R>::value) {
    return run.error_occurred;
  } else {
    return run.skipped != decltype(run.skipped){};  // {} == NotSkipped
  }
}

// Console output plus a row per benchmark run in the shared report schema.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (RunWasSkipped(run)) continue;
      bench::JsonObject& row = report_->AddRow();
      bench::Set(&row, "name", bench::JsonScalar::Str(run.benchmark_name()));
      bench::Set(&row, "iterations",
                 bench::JsonScalar::Num(static_cast<double>(run.iterations)));
      bench::Set(&row, "real_time_ns_per_iter",
                 bench::JsonScalar::Num(run.GetAdjustedRealTime()));
      bench::Set(&row, "cpu_time_ns_per_iter",
                 bench::JsonScalar::Num(run.GetAdjustedCPUTime()));
      // SetItemsProcessed surfaces here as the "items_per_second" counter —
      // comparisons/s for the probe benches, tuples/s for the rest.
      for (const auto& [name, counter] : run.counters) {
        bench::Set(&row, name, bench::JsonScalar::Num(counter.value));
      }
    }
  }

 private:
  bench::BenchReport* report_;
};

}  // namespace
}  // namespace stateslice

int main(int argc, char** argv) {
  // Peel off --json before benchmark::Initialize rejects it.
  std::string json_path;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (i > 0 && arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                             passthrough.data())) {
    return 1;
  }

  stateslice::bench::BenchReport report;
  report.bench = "operators";
  report.SetConfig("time_unit", stateslice::bench::JsonScalar::Str("ns"));
  stateslice::CollectingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  stateslice::bench::BenchArgs report_args;
  report_args.json_path = json_path;
  return stateslice::bench::FinishReport(report_args, report);
}
