// Engine-level benchmark.
//
// Replays a seeded two-stream feed through the public Engine API (plus
// ParseQuery and the core chain/plan builders in the traced run), checks
// every query's result count against an engine-free reference, and prints
// the metrics named in enginebench/README.md. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   enginebench --workload <name> --seed <n> --seconds <s>
//               --trace <0|1> [--trace-out <dir>]
//
// --trace 0 measures the end-to-end metrics: set-up repeated in batches,
// and sessions (see below) of alternating closed-loop and open-loop
// segments, until --seconds have elapsed. --trace 1 alternates untraced and
// traced all-closed-loop sessions and reports per-layer metrics plus the
// tracing overhead.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "enginebench/feed.h"
#include "enginebench/open_loop.h"
#include "enginebench/reference.h"
#include "enginebench/stats.h"
#include "enginebench/trace.h"
#include "src/api/engine.h"
#include "src/core/chain_builder.h"
#include "src/core/shared_plan_builder.h"
#include "src/query/parser.h"

namespace enginebench {
namespace {

using stateslice::ChainPlan;
using stateslice::ContinuousQuery;
using stateslice::CostCategory;
using stateslice::Engine;
using stateslice::ExecutionMode;
using stateslice::JoinCondition;
using stateslice::JoinResult;
using stateslice::PhysCategory;
using stateslice::QueryHandle;
using stateslice::RunStats;
using stateslice::SecondsToTicks;
using stateslice::TimePoint;
using stateslice::Tuple;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name = "";
  FeedSpec feed = {};
  JoinCondition condition = {};
  std::vector<double> windows_s = {};  // initial queries, one per window
  ExecutionMode mode = ExecutionMode::kDeterministic;
  int shard_count = 0;
  // Open-loop mean arrival rate (tuples per wall second): about half the
  // closed-loop capacity of the code this benchmark was introduced on,
  // measured on a 4-core x86-64 host. Fixed, so parent and change are
  // offered the same load.
  double open_loop_rate = 0;
  // churn_checkpoint only: every churn_period_s of virtual time one query
  // is unregistered and one registered with a window from churn_pool_s;
  // every checkpoint_period_s the engine is checkpointed and restored into
  // a fresh Engine that carries on.
  double churn_period_s = 0;
  double checkpoint_period_s = 0;
  std::vector<double> churn_pool_s = {};
  bool churn() const { return churn_period_s > 0; }
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  {
    // Paper Table 4 Small-Large, 12 queries, on the Mem-Opt chain with a
    // ModSum join at S1 = 0.001: nested-loop probes and cross-purge over
    // ~24k state tuples dominate.
    Workload c{.name = "chain12_modsum"};
    c.feed = {.rate_per_stream = 400, .duration_s = 60,
              .keys = KeyModel::kUniform, .key_domain = 1000};
    c.condition = JoinCondition::ModSum(1000, 1);
    c.windows_s = {1, 2, 3, 4, 5, 6, 25, 26, 27, 28, 29, 30};
    c.open_loop_rate = 5800;
    w.push_back(c);
  }
  {
    // Zipf(1.0) equi-join keys: index-lookup probes, ~300 results per
    // arrival, so composing, union-ordering and delivering results
    // dominate. The deterministic yardstick for the sharded run below.
    Workload z{.name = "zipf_fanout_det"};
    z.feed = {.rate_per_stream = 400, .duration_s = 26,
              .keys = KeyModel::kZipf, .key_domain = 1024, .zipf_s = 1.0};
    z.condition = JoinCondition::EquiKey();
    z.windows_s = {2, 6, 10, 14};
    z.open_loop_rate = 5600;
    w.push_back(z);
    Workload s = z;
    s.name = "zipf_fanout_sharded";
    s.mode = ExecutionMode::kSharded;
    s.shard_count = 2;
    s.open_loop_rate = 1600;
    w.push_back(s);
  }
  {
    // Uniform keys over a large domain (few results per arrival), eight
    // selection-free queries on one chain, with in-place churn and
    // periodic checkpoint + restore.
    Workload c{.name = "churn_checkpoint"};
    c.feed = {.rate_per_stream = 400, .duration_s = 48,
              .keys = KeyModel::kUniform, .key_domain = 10000};
    c.condition = JoinCondition::EquiKey();
    c.windows_s = {1, 2, 3, 5, 6, 8, 10, 12};
    c.open_loop_rate = 42000;
    c.churn_period_s = 0.5;
    c.checkpoint_period_s = 3;  // (48 s - 12 s warm-up) / kSegments
    c.churn_pool_s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    w.push_back(c);
  }
  return w;
}

double MaxWindow(const Workload& w) {
  double m = 0;
  for (double x : w.windows_s) m = std::max(m, x);
  for (double x : w.churn_pool_s) m = std::max(m, x);
  return m;
}

std::string Cql(double window_s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SELECT * FROM A A, B B WHERE A.key = B.key WINDOW %lld ms",
                static_cast<long long>(window_s * 1000 + 0.5));
  return buf;
}

Engine::Options EngineOptions(const Workload& w) {
  Engine::Options o;
  o.condition = w.condition;
  o.mode = w.mode;
  o.shard_count = w.shard_count;
  return o;
}

// ------------------------------------------------------------- churn plan

// One churn point: before pushing feed[index], either checkpoint and
// restore, or unregister query `remove` (an index into the run's query
// list) and register the next query of the list.
struct ChurnOp {
  size_t index = 0;
  bool checkpoint = false;
  int remove = -1;
};

// The queries of a run: the initial ones, then one per churn registration,
// with the feed range each one observes.
struct QueryPlanEntry {
  double window_s = 0;
  RefQuery ref;
};

struct RunPlan {
  std::vector<Tuple> feed;
  size_t warm_index = 0;  // first arrival after the warm-up window
  TimePoint warm_ts = 0;
  std::vector<ChurnOp> ops;
  std::vector<QueryPlanEntry> queries;
  std::vector<uint64_t> expected;  // reference counts, no rebuild cutoffs
};

std::vector<RefQuery> Refs(const RunPlan& plan) {
  std::vector<RefQuery> refs;
  for (const QueryPlanEntry& q : plan.queries) refs.push_back(q.ref);
  return refs;
}

RunPlan MakeRunPlan(const Workload& w, uint64_t seed) {
  RunPlan plan;
  plan.feed = GenerateFeed(w.feed, seed);
  plan.warm_ts = SecondsToTicks(MaxWindow(w));
  while (plan.warm_index < plan.feed.size() &&
         plan.feed[plan.warm_index].timestamp < plan.warm_ts) {
    ++plan.warm_index;
  }
  for (double win : w.windows_s) {
    plan.queries.push_back({win, RefQuery{SecondsToTicks(win)}});
  }
  if (w.churn()) {
    SplitMix64 rng(seed ^ 0x5EED0C4A7ULL);
    // The query with the widest window is never churned: Restore aborts on
    // a migrated chain whose last slice no query reads any more (a known
    // engine defect, see README.md), so removing it would crash the run
    // rather than measure it.
    std::vector<int> active;
    for (size_t q = 0; q < plan.queries.size(); ++q) {
      if (plan.queries[q].window_s < MaxWindow(w)) {
        active.push_back(static_cast<int>(q));
      }
    }
    const TimePoint churn_period = SecondsToTicks(w.churn_period_s);
    const TimePoint checkpoint_period = SecondsToTicks(w.checkpoint_period_s);
    TimePoint next_churn = churn_period;
    // Mid-period phase: with the period equal to a segment's length, every
    // segment holds one checkpoint, away from its ends.
    TimePoint next_checkpoint = checkpoint_period / 2;
    for (size_t i = 1; i < plan.feed.size(); ++i) {
      const TimePoint ts = plan.feed[i].timestamp;
      if (ts >= next_churn) {
        next_churn += churn_period;
        ChurnOp op{.index = i};
        const size_t victim = rng.Next() % active.size();
        op.remove = active[victim];
        plan.queries[static_cast<size_t>(op.remove)].ref.until = ts;
        const double window_s =
            w.churn_pool_s[rng.Next() % w.churn_pool_s.size()];
        active[victim] = static_cast<int>(plan.queries.size());
        plan.queries.push_back(
            {window_s, RefQuery{SecondsToTicks(window_s), ts}});
        plan.ops.push_back(op);
      }
      if (ts >= next_checkpoint) {
        next_checkpoint += checkpoint_period;
        plan.ops.push_back(ChurnOp{.index = i, .checkpoint = true});
      }
    }
  }
  plan.expected = ReferenceCounts(plan.feed, w.condition, Refs(plan));
  return plan;
}

// ---------------------------------------------------------------- sessions
//
// A session is one Engine fed the whole feed, in a process of its own. The
// warm-up (the first largest window of virtual time) is pushed as fast as
// Push returns. The rest of the feed is split into kSegments equal segments
// that alternate between closed loop and open loop, each starting from an
// empty backlog (Drain()), and the session ends with Finish(). One warm-up
// thus serves many measured segments, and each segment is one sample.

constexpr int kSegments = 12;

enum class SegmentKind { kClosed, kOpen };

struct Segment {
  size_t begin = 0;  // feed indices [begin, end)
  size_t end = 0;
  SegmentKind kind = SegmentKind::kClosed;
};

// Session `session` starts with a closed segment when even, open when odd,
// so both kinds sample every stretch of a run alike.
std::vector<Segment> Segments(const RunPlan& plan, int session,
                              bool all_closed) {
  std::vector<Segment> segments;
  const size_t measured = plan.feed.size() - plan.warm_index;
  for (int k = 0; k < kSegments; ++k) {
    Segment seg;
    seg.begin = plan.warm_index + measured * k / kSegments;
    seg.end = plan.warm_index + measured * (k + 1) / kSegments;
    seg.kind = all_closed || (k + session) % 2 == 0 ? SegmentKind::kClosed
                                                    : SegmentKind::kOpen;
    segments.push_back(seg);
  }
  return segments;
}

// Operations attempted and refused, and whether results were correct.
struct Accounting {
  bool correct = true;
  std::string error;  // the first failure
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(std::string message) {
    if (correct) error = std::move(message);
    correct = false;
  }
  // A refused operation also fails the run: no workload expects refusals.
  void Refused(std::string message) {
    ++failed;
    Fail(std::move(message));
  }
  void Add(const Accounting& other) {
    if (!other.correct) Fail(other.error);
    attempted += other.attempted;
    failed += other.failed;
  }
};

struct SessionOutcome {
  Accounting acct;
  double state_tuples_avg = 0;
  // One entry per closed-loop segment.
  std::vector<double> ingest_tps;
  // One entry per open-loop segment.
  std::vector<double> latency_p50_ns;
  std::vector<double> latency_p99_ns;
  std::vector<double> latency_tail_pct;  // highest percentile supported
  std::vector<double> latency_tail_ns;
  std::vector<double> latency_samples;
  std::vector<double> send_lag_p99_ns;
  // Post-warm-up operations: each register or unregister, and each
  // checkpoint and restore.
  std::vector<double> churn_op_ns;
  std::vector<double> checkpoint_ns;
  std::vector<double> restore_ns;
  std::vector<double> checkpoint_bytes;
  // Peak resident memory of the process that ran the session.
  double peak_rss_mb = 0;
  // Traced-run extras.
  RunStats at_warm;  // Snapshot() at the warm-up boundary
  RunStats at_end;   // Snapshot() after Finish()
  size_t slice_state_max = 0;
  uint64_t migrations = 0;
  uint64_t rebuilds = 0;
};

// The sample vectors a session process reports back (see Encode).
constexpr std::vector<double> SessionOutcome::*kSampleFields[] = {
    &SessionOutcome::ingest_tps,       &SessionOutcome::latency_p50_ns,
    &SessionOutcome::latency_p99_ns,   &SessionOutcome::latency_tail_pct,
    &SessionOutcome::latency_tail_ns,  &SessionOutcome::latency_samples,
    &SessionOutcome::send_lag_p99_ns,  &SessionOutcome::churn_op_ns,
    &SessionOutcome::checkpoint_ns,    &SessionOutcome::restore_ns,
    &SessionOutcome::checkpoint_bytes,
};

int64_t NowNs() { return MonotonicNs(); }

// State shared with the subscriber callbacks, sized before the engine
// starts: in sharded mode callbacks run on the merge worker, so nothing
// here may reallocate while the engine runs. Segment k's schedule is set
// before its first arrival is pushed, hence before any of its results
// exist.
struct SessionSinks {
  std::vector<uint64_t> counts;           // per query
  std::vector<TimePoint> segment_start;   // first timestamp per segment
  std::vector<std::optional<OpenLoopSchedule>> schedules;  // open only
  std::vector<std::vector<float>> latency_ns;  // per segment, ns
  const SteadyLoopClock* clock = nullptr;
  Tracer* tracer = nullptr;  // traced sessions: time each callback
};

stateslice::ResultCallback MakeCallback(SessionSinks* sinks, size_t query) {
  return [sinks, query](const JoinResult& r) {
    const int64_t start = sinks->tracer != nullptr ? NowNs() : 0;
    ++sinks->counts[query];
    const TimePoint ts = r.timestamp();
    const std::vector<TimePoint>& starts = sinks->segment_start;
    if (ts < starts.front()) return;  // a warm-up result
    const size_t k = static_cast<size_t>(
        std::upper_bound(starts.begin(), starts.end(), ts) - starts.begin() -
        1);
    if (sinks->schedules[k].has_value()) {
      // float: 24 bits of mantissa is far finer than the clock's jitter,
      // and halves the benchmark's own memory.
      sinks->latency_ns[k].push_back(static_cast<float>(ResultLatencyNs(
          *sinks->schedules[k], ts, sinks->clock->NowNs())));
    }
    if (sinks->tracer != nullptr) sinks->tracer->AddCallback(NowNs() - start);
  };
}

// Runs the feed through one fresh Engine (replaced by a restored one at
// each checkpoint). `tracer` records spans from the warm-up boundary to the
// return of Finish(). `all_closed` makes every segment closed-loop and
// takes the warm-up Snapshot() the traced run diffs its counters against
// (untimed; it also drains a sharded backlog, so both sides of the
// tracing-overhead comparison take it).
SessionOutcome RunSession(const Workload& w, const RunPlan& plan,
                          int session, Tracer* tracer, bool all_closed) {
  SessionOutcome out;
  const Engine::Options options = EngineOptions(w);
  const std::vector<Segment> segments = Segments(plan, session, all_closed);
  const SteadyLoopClock clock;
  SessionSinks sinks;
  sinks.counts.assign(plan.queries.size(), 0);
  sinks.schedules.resize(segments.size());
  sinks.latency_ns.resize(segments.size());
  uint64_t expected_results = 0;
  for (uint64_t e : plan.expected) expected_results += e;
  for (size_t k = 0; k < segments.size(); ++k) {
    sinks.segment_start.push_back(plan.feed[segments[k].begin].timestamp);
    if (segments[k].kind == SegmentKind::kOpen) {
      // Untouched reserved pages cost no resident memory.
      sinks.latency_ns[k].reserve(2 * expected_results / segments.size());
    }
  }
  sinks.clock = &clock;
  sinks.tracer = tracer;

  auto engine = std::make_unique<Engine>(options);
  std::vector<QueryHandle> handles(plan.queries.size());
  auto subscribe = [&](size_t q) {
    engine->Subscribe(handles[q], MakeCallback(&sinks, q));
  };
  for (size_t q = 0; q < w.windows_s.size(); ++q) {
    ++out.acct.attempted;
    handles[q] = engine->RegisterQuery(Cql(plan.queries[q].window_s));
    if (!handles[q].valid()) {
      out.acct.Refused("RegisterQuery refused: " + engine->last_error());
      return out;
    }
    subscribe(q);
  }

  size_t next_query = w.windows_s.size();
  size_t next_op = 0;
  Tracer* active_tracer = nullptr;  // spans only after the warm-up
  // Times one call; returns its duration in ns.
  auto timed = [&](const char* span_name, auto&& call) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(active_tracer, span_name);
      call();
    }
    return static_cast<double>(NowNs() - t0);
  };
  auto checkpoint_and_restore = [&](bool sampled) {
    std::string snapshot;
    bool ok = false;
    ++out.acct.attempted;
    const double checkpoint_ns =
        timed("api.checkpoint", [&] { ok = engine->Checkpoint(&snapshot); });
    if (!ok) {
      out.acct.Refused("Checkpoint refused: " + engine->last_error());
      return;
    }
    auto fresh = std::make_unique<Engine>(options);
    ++out.acct.attempted;
    const double restore_ns =
        timed("api.restore", [&] { ok = fresh->Restore(snapshot); });
    if (!ok) {
      out.acct.Refused("Restore refused: " + fresh->last_error());
      return;
    }
    if (sampled) {
      out.checkpoint_ns.push_back(checkpoint_ns);
      out.restore_ns.push_back(restore_ns);
      out.checkpoint_bytes.push_back(static_cast<double>(snapshot.size()));
    }
    engine = std::move(fresh);
    for (size_t q = 0; q < next_query; ++q) {
      if (engine->IsActive(handles[q])) subscribe(q);
    }
  };
  // Applies the churn points scheduled before feed[i].
  auto apply_ops = [&](size_t i) {
    while (next_op < plan.ops.size() && plan.ops[next_op].index == i) {
      const ChurnOp& op = plan.ops[next_op++];
      const bool sampled = i >= plan.warm_index;
      if (op.checkpoint) {
        checkpoint_and_restore(sampled);
        continue;
      }
      bool removed = false;
      ++out.acct.attempted;
      const double unregister_ns = timed("api.unregister", [&] {
        removed =
            engine->UnregisterQuery(handles[static_cast<size_t>(op.remove)]);
      });
      if (!removed) {
        out.acct.Refused("UnregisterQuery refused: " + engine->last_error());
      }
      const size_t q = next_query++;
      ++out.acct.attempted;
      const double register_ns = timed("api.register", [&] {
        handles[q] = engine->RegisterQuery(Cql(plan.queries[q].window_s));
      });
      if (!handles[q].valid()) {
        out.acct.Refused("RegisterQuery refused: " + engine->last_error());
      } else {
        subscribe(q);
      }
      if (sampled) {
        out.churn_op_ns.push_back(unregister_ns);
        out.churn_op_ns.push_back(register_ns);
      }
    }
  };
  auto push = [&](size_t i) {
    apply_ops(i);
    ScopedSpan span(active_tracer, "api.push");
    engine->Push(plan.feed[i].side, plan.feed[i]);
  };

  for (size_t i = 0; i < plan.warm_index; ++i) push(i);
  engine->Drain();
  if (all_closed) {
    out.at_warm = engine->Snapshot();
    for (const Engine::SliceInfo& s : engine->ChainSlices()) {
      out.slice_state_max = std::max(out.slice_state_max, s.state_tuples);
    }
  }

  active_tracer = tracer;
  const std::span<const Tuple> feed(plan.feed);
  const double speedup = w.open_loop_rate / (2 * w.feed.rate_per_stream);
  std::vector<double> lag_ns;
  for (size_t k = 0; k < segments.size(); ++k) {
    const Segment& seg = segments[k];
    const size_t n = seg.end - seg.begin;
    if (seg.kind == SegmentKind::kClosed) {
      const int64_t start = NowNs();
      for (size_t i = seg.begin; i < seg.end; ++i) push(i);
      timed("api.drain", [&] { engine->Drain(); });
      out.ingest_tps.push_back(static_cast<double>(n) /
                               (static_cast<double>(NowNs() - start) * 1e-9));
      continue;
    }
    sinks.schedules[k].emplace(plan.feed[seg.begin].timestamp, speedup,
                               clock.NowNs());
    size_t i = seg.begin;
    lag_ns.clear();
    DriveOpenLoop(feed.subspan(seg.begin, n), *sinks.schedules[k], clock,
                  &lag_ns, [&](const Tuple&) { push(i++); });
    engine->Drain();
    out.send_lag_p99_ns.push_back(Percentile(&lag_ns, 99));
  }
  timed("api.finish", [&] { engine->Finish(); });
  active_tracer = nullptr;

  const uint64_t pushed = engine->input_tuples() + engine->dropped_tuples() +
                          engine->rejected_tuples();
  out.acct.attempted += pushed;
  if (engine->rejected_tuples() > 0) {
    out.acct.failed += engine->rejected_tuples();
    out.acct.Fail("engine rejected " +
                  std::to_string(engine->rejected_tuples()) +
                  " arrivals: " + engine->last_error());
  }
  if (pushed != feed.size()) {
    out.acct.Fail("engine accounted for " + std::to_string(pushed) + " of " +
                  std::to_string(feed.size()) + " arrivals");
  }

  // Correctness: each query's delivered count equals the reference. A
  // drain-rebuild resets operator state at its cutoff (documented engine
  // semantics), so the reference is recomputed when any happened.
  std::vector<uint64_t> expected = plan.expected;
  const std::vector<TimePoint>& cutoffs = engine->rebuild_cutoffs();
  if (!cutoffs.empty()) {
    expected = ReferenceCounts(plan.feed, w.condition, Refs(plan), cutoffs);
  }
  for (size_t q = 0; q < plan.queries.size(); ++q) {
    const uint64_t reported = engine->ResultCount(handles[q]);
    if (sinks.counts[q] != expected[q] || reported != expected[q]) {
      out.acct.Fail("query " + std::to_string(q) + " (window " +
                    std::to_string(plan.queries[q].window_s) +
                    " s): callbacks saw " + std::to_string(sinks.counts[q]) +
                    ", ResultCount " + std::to_string(reported) +
                    ", reference " + std::to_string(expected[q]));
    }
  }

  for (std::vector<float>& v : sinks.latency_ns) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    auto at = [&v](double pct) { return v[NearestRank(v.size(), pct) - 1]; };
    const double tail = HighestSupportedPercentile(v.size());
    out.latency_p50_ns.push_back(at(50));
    out.latency_p99_ns.push_back(at(99));
    out.latency_tail_pct.push_back(tail);
    out.latency_tail_ns.push_back(at(tail));
    out.latency_samples.push_back(static_cast<double>(v.size()));
    std::vector<float>().swap(v);
  }

  out.at_end = engine->Snapshot();
  out.migrations = engine->migrations();
  out.rebuilds = engine->rebuilds();
  if (w.mode == ExecutionMode::kDeterministic) {
    out.state_tuples_avg = out.at_end.AvgStateTuples(plan.warm_ts);
  }
  return out;
}

// What a session process reports back: the scalars, then each sample
// vector with its length, then the error message.
std::string Encode(const SessionOutcome& s) {
  std::vector<double> v = {s.acct.correct ? 1.0 : 0.0,
                           static_cast<double>(s.acct.attempted),
                           static_cast<double>(s.acct.failed),
                           s.state_tuples_avg};
  for (const auto field : kSampleFields) {
    v.push_back(static_cast<double>((s.*field).size()));
    v.insert(v.end(), (s.*field).begin(), (s.*field).end());
  }
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(double)) +
         s.acct.error;
}

bool Decode(const std::string& bytes, SessionOutcome* s) {
  constexpr size_t kScalars = 4;
  std::vector<double> v(bytes.size() / sizeof(double));
  std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
  if (v.size() < kScalars) return false;
  s->acct.correct = v[0] != 0;
  s->acct.attempted = static_cast<uint64_t>(v[1]);
  s->acct.failed = static_cast<uint64_t>(v[2]);
  s->state_tuples_avg = v[3];
  size_t at = kScalars;
  for (const auto field : kSampleFields) {
    if (at >= v.size()) return false;
    const size_t n = static_cast<size_t>(v[at++]);
    if (n > v.size() - at) return false;
    (s->*field).assign(v.begin() + static_cast<ptrdiff_t>(at),
                       v.begin() + static_cast<ptrdiff_t>(at + n));
    at += n;
  }
  s->acct.error = bytes.substr(at * sizeof(double));
  return true;
}

// Runs one session in a forked child process, so every session starts from
// the same heap and the peak resident memory measured is its own.
SessionOutcome RunSessionInChild(const Workload& w, const RunPlan& plan,
                                 int session) {
  SessionOutcome out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.acct.Fail("pipe() failed");
    return out;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    out.acct.Fail("fork() failed");
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string bytes =
        Encode(RunSession(w, plan, session, nullptr, false));
    size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          write(fds[1], bytes.data() + written, bytes.size() - written);
      if (n <= 0) _exit(1);
      written += static_cast<size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !Decode(bytes, &out)) {
    out = SessionOutcome{};
    out.acct.Fail(WIFSIGNALED(status)
                      ? "session process killed by signal " +
                            std::to_string(WTERMSIG(status))
                      : std::string("session process failed"));
  }
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return out;
}

// ------------------------------------------------------------------- setup

// Engine construction, registering the workload's queries as CQL text, and
// the first Push (which builds the shared plan). Returns seconds.
double TimeSetup(const Workload& w, const RunPlan& plan, Accounting* acct) {
  const int64_t start = NowNs();
  double seconds;
  {
    Engine engine(EngineOptions(w));
    for (double win : w.windows_s) {
      ++acct->attempted;
      if (!engine.RegisterQuery(Cql(win)).valid()) {
        acct->Refused("RegisterQuery refused: " + engine.last_error());
      }
    }
    ++acct->attempted;
    engine.Push(plan.feed[0].side, plan.feed[0]);
    seconds = static_cast<double>(NowNs() - start) * 1e-9;
    if (engine.rejected_tuples() > 0) {
      acct->Refused("first push rejected: " + engine.last_error());
    }
  }
  return seconds;
}

// The traced counterpart of setup's query and core layers: ParseQuery on
// each query's CQL, then BuildMemOptChain and BuildStateSlicePlan on the
// parsed set. Returns {parse_s, chain_build_s, plan_build_s, slices}.
struct CoreTimes {
  double parse_s = 0;
  double chain_build_s = 0;
  double plan_build_s = 0;
  int slices = 0;
};

CoreTimes TimeCoreLayers(const Workload& w, Tracer* tracer,
                         Accounting* acct) {
  CoreTimes t;
  std::vector<ContinuousQuery> queries;
  int64_t start = NowNs();
  for (double win : w.windows_s) {
    ScopedSpan span(tracer, "query.parse");
    stateslice::ParseResult parsed = stateslice::ParseQuery(Cql(win));
    if (!parsed.ok) {
      acct->Fail("ParseQuery failed: " + parsed.error);
      return t;
    }
    parsed.query.id = static_cast<int>(queries.size());
    parsed.query.name = "Q" + std::to_string(queries.size());
    queries.push_back(std::move(parsed.query));
  }
  t.parse_s = static_cast<double>(NowNs() - start) * 1e-9;
  start = NowNs();
  ChainPlan chain;
  {
    ScopedSpan span(tracer, "core.chain_build");
    chain = stateslice::BuildMemOptChain(queries);
  }
  t.chain_build_s = static_cast<double>(NowNs() - start) * 1e-9;
  t.slices = chain.partition.num_slices();
  stateslice::BuildOptions build;
  build.condition = w.condition;
  start = NowNs();
  {
    ScopedSpan span(tracer, "core.plan_build");
    stateslice::BuiltPlan built =
        stateslice::BuildStateSlicePlan(queries, chain, build);
  }
  t.plan_build_s = static_cast<double>(NowNs() - start) * 1e-9;
  return t;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("#   %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Pools one sample vector across sessions.
std::vector<double> Pooled(const std::vector<SessionOutcome>& sessions,
                           std::vector<double> SessionOutcome::*field) {
  std::vector<double> all;
  for (const SessionOutcome& s : sessions) {
    all.insert(all.end(), (s.*field).begin(), (s.*field).end());
  }
  return all;
}

double PooledMedian(const std::vector<SessionOutcome>& sessions,
                    std::vector<double> SessionOutcome::*field) {
  return Median(Pooled(sessions, field));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "arguments come in --key value pairs\n");
    return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Finish(const Accounting& totals, const std::vector<Metric>& reported,
           const std::vector<Metric>& extra) {
  std::vector<Metric> all = reported;
  all.insert(all.end(), extra.begin(), extra.end());
  PrintTable("all metrics", all);
  std::printf("enginebench-record %s\n", JsonMetrics(all).c_str());
  if (!totals.correct) {
    std::printf("# WRONG RESULTS: %s\n", totals.error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      totals.correct ? "true" : "false",
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(totals.failed),
      JsonMetrics(reported).c_str());
  std::fflush(stdout);
  return totals.correct ? 0 : 1;
}

int RunEndToEnd(const Workload& w, const RunPlan& plan, const Args& args) {
  Accounting totals;
  const int64_t start = NowNs();
  auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) * 1e-9; };

  // Set-up is short, so it is repeated in batches spread over the run
  // (the host's speed drifts over seconds) and the median is reported.
  constexpr size_t kSetupBatch = 32;
  std::vector<double> setup_s;
  Accounting setup_acct;
  auto setup_batch = [&] {
    for (size_t i = 0; i < kSetupBatch; ++i) {
      setup_s.push_back(TimeSetup(w, plan, &setup_acct));
    }
  };

  // Another session starts only if it is expected to end within --seconds.
  std::vector<SessionOutcome> sessions;
  double session_s = 0;
  do {
    const double session_start = elapsed_s();
    setup_batch();
    sessions.push_back(
        RunSessionInChild(w, plan, static_cast<int>(sessions.size())));
    const SessionOutcome& s = sessions.back();
    totals.Add(s.acct);
    session_s = elapsed_s() - session_start;
    std::printf("# session %zu: %.3g s, closed %.6g tuples/s, open p50 %.6g "
                "ms p99 %.6g ms, send lag p99 %.6g ms, rss %.4g MB\n",
                sessions.size(), session_s, Median(s.ingest_tps),
                Median(s.latency_p50_ns) * 1e-6,
                Median(s.latency_p99_ns) * 1e-6,
                Median(s.send_lag_p99_ns) * 1e-6, s.peak_rss_mb);
  } while (elapsed_s() + session_s < args.seconds);
  if (sessions.size() == 1) setup_batch();
  totals.Add(setup_acct);

  double peak_rss_mb = 0;
  std::vector<double> state_tuples;
  for (const SessionOutcome& s : sessions) {
    peak_rss_mb = std::max(peak_rss_mb, s.peak_rss_mb);
    state_tuples.push_back(s.state_tuples_avg);
  }
  std::vector<Metric> reported = {
      {"setup_s", Median(setup_s), "s"},
      {"ingest_tps", PooledMedian(sessions, &SessionOutcome::ingest_tps),
       "tuples/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  if (w.mode == ExecutionMode::kDeterministic) {
    reported.push_back({"state_tuples_avg", Median(state_tuples), "tuples"});
  }
  std::vector<Metric> extra = {
      {"result_latency_p50_ms",
       PooledMedian(sessions, &SessionOutcome::latency_p50_ns) * 1e-6, "ms"},
      {"result_latency_p99_ms",
       PooledMedian(sessions, &SessionOutcome::latency_p99_ns) * 1e-6, "ms"},
      {"send_lag_p99_ms",
       PooledMedian(sessions, &SessionOutcome::send_lag_p99_ns) * 1e-6, "ms"},
      {"failed_ops_frac",
       static_cast<double>(totals.failed) /
           static_cast<double>(std::max<uint64_t>(totals.attempted, 1)),
       "fraction"},
      {"sessions", static_cast<double>(sessions.size()), "count"},
      {"closed_segments",
       static_cast<double>(Pooled(sessions, &SessionOutcome::ingest_tps).size()),
       "count"},
      {"result_latency_samples_per_segment",
       PooledMedian(sessions, &SessionOutcome::latency_samples), "count"},
      {"result_latency_tail_pct",
       PooledMedian(sessions, &SessionOutcome::latency_tail_pct), "%"},
      {"result_latency_tail_ms",
       PooledMedian(sessions, &SessionOutcome::latency_tail_ns) * 1e-6, "ms"},
  };
  if (w.churn()) {
    std::vector<double> churn = Pooled(sessions, &SessionOutcome::churn_op_ns);
    extra.push_back({"churn_op_p50_us", Percentile(&churn, 50) * 1e-3, "us"});
    extra.push_back({"churn_op_p90_us", Percentile(&churn, 90) * 1e-3, "us"});
    extra.push_back({"churn_ops", static_cast<double>(churn.size()), "count"});
    extra.push_back(
        {"checkpoint_ms",
         PooledMedian(sessions, &SessionOutcome::checkpoint_ns) * 1e-6, "ms"});
    extra.push_back(
        {"restore_ms",
         PooledMedian(sessions, &SessionOutcome::restore_ns) * 1e-6, "ms"});
  }
  return Finish(totals, reported, extra);
}

int RunTraced(const Workload& w, const RunPlan& plan, const Args& args) {
  Accounting totals;
  const int64_t start = NowNs();
  auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) * 1e-9; };

  Tracer setup_tracer;
  std::vector<double> parse_s, chain_s, plan_s;
  CoreTimes core;
  Accounting acct;
  for (int rep = 0; rep < 11; ++rep) {
    core = TimeCoreLayers(w, rep == 0 ? &setup_tracer : nullptr, &acct);
    parse_s.push_back(core.parse_s);
    chain_s.push_back(core.chain_build_s);
    plan_s.push_back(core.plan_build_s);
  }
  totals.Add(acct);

  // Untraced and traced all-closed sessions alternate; the last traced one
  // supplies the layer breakdown.
  std::vector<SessionOutcome> untraced;
  std::vector<SessionOutcome> traced;
  std::unique_ptr<Tracer> tracer;
  double pair_s = 0;
  do {
    const double pair_start = elapsed_s();
    untraced.push_back(RunSession(w, plan, 0, nullptr, true));
    totals.Add(untraced.back().acct);
    tracer = std::make_unique<Tracer>();
    traced.push_back(RunSession(w, plan, 0, tracer.get(), true));
    totals.Add(traced.back().acct);
    pair_s = elapsed_s() - pair_start;
  } while (elapsed_s() + pair_s < args.seconds);

  const Tracer& t = *tracer;
  const SessionOutcome& last = traced.back();
  std::vector<double> push_ns = t.Durations("api.push");
  const double tuples = static_cast<double>(last.at_end.input_tuples -
                                            last.at_warm.input_tuples);
  const double results = static_cast<double>(
      last.at_end.results_delivered - last.at_warm.results_delivered);
  auto delta = [&](auto field) {
    return static_cast<double>(last.at_end.*field - last.at_warm.*field);
  };
  auto logical = [&](CostCategory c) {
    return static_cast<double>(last.at_end.cost.Get(c) -
                               last.at_warm.cost.Get(c));
  };
  auto physical = [&](PhysCategory c) {
    return static_cast<double>(last.at_end.cost.GetPhysical(c) -
                               last.at_warm.cost.GetPhysical(c));
  };
  auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
  auto self_s = [&](const char* name) {
    return static_cast<double>(t.TotalSelfNs(name)) * 1e-9;
  };
  const double untraced_tps = PooledMedian(untraced, &SessionOutcome::ingest_tps);
  const double traced_tps = PooledMedian(traced, &SessionOutcome::ingest_tps);
  std::vector<Metric> reported = {
      {"api.push_self_s", self_s("api.push"), "s"},
      {"api.push_p99_us", Percentile(&push_ns, 99) * 1e-3, "us"},
      {"api.drain_s", self_s("api.drain"), "s"},
      {"api.finish_s", self_s("api.finish"), "s"},
      {"api.callback_s", static_cast<double>(t.TotalCallbackNs()) * 1e-9, "s"},
      {"api.callback_results", static_cast<double>(t.callback_results()),
       "count"},
      {"api.register_s", self_s("api.register"), "s"},
      {"api.unregister_s", self_s("api.unregister"), "s"},
      {"api.checkpoint_s", self_s("api.checkpoint"), "s"},
      {"api.restore_s", self_s("api.restore"), "s"},
      {"api.checkpoint_bytes", Median(last.checkpoint_bytes), "bytes"},
      {"query.parse_s", Median(parse_s), "s"},
      {"core.chain_build_s", Median(chain_s), "s"},
      {"core.plan_build_s", Median(plan_s), "s"},
      {"core.slices", static_cast<double>(core.slices), "count"},
      {"core.migrations", static_cast<double>(last.migrations), "count"},
      {"core.rebuilds", static_cast<double>(last.rebuilds), "count"},
      {"operators.probe_cmp_per_tuple",
       per(logical(CostCategory::kProbe), tuples), "cmp/tuple"},
      {"operators.entry_visits_per_tuple",
       per(physical(PhysCategory::kEntryVisit), tuples), "visits/tuple"},
      {"operators.key_lookups_per_tuple",
       per(physical(PhysCategory::kKeyLookup), tuples), "lookups/tuple"},
      {"operators.index_upkeep_per_tuple",
       per(physical(PhysCategory::kIndexUpkeep), tuples), "ops/tuple"},
      {"operators.purge_cmp_per_tuple",
       per(logical(CostCategory::kPurge), tuples), "cmp/tuple"},
      {"operators.route_cmp_per_tuple",
       per(logical(CostCategory::kRoute), tuples), "cmp/tuple"},
      {"operators.union_cmp_per_result",
       per(logical(CostCategory::kUnion), results), "cmp/result"},
      {"operators.results_per_tuple", per(results, tuples), "results/tuple"},
      {"operators.slice_state_max", static_cast<double>(last.slice_state_max),
       "tuples"},
      {"runtime.events_per_tuple",
       per(delta(&RunStats::events_processed), tuples), "events/tuple"},
      {"runtime.edge_events_per_tuple",
       per(delta(&RunStats::parallel_edge_events), tuples), "events/tuple"},
      {"runtime.edge_hwm",
       static_cast<double>(last.at_end.parallel_edge_high_water_mark),
       "events"},
      {"runtime.shard_steals", delta(&RunStats::shard_steals), "count"},
      {"runtime.shard_spilled_runs", delta(&RunStats::shard_spilled_runs),
       "count"},
      {"trace.overhead_frac", untraced_tps / traced_tps - 1.0, "fraction"},
  };
  std::vector<Metric> extra = {
      {"trace.untraced_ingest_tps", untraced_tps, "tuples/s"},
      {"trace.traced_ingest_tps", traced_tps, "tuples/s"},
      {"trace.session_pairs", static_cast<double>(traced.size()), "count"},
      {"trace.spans", static_cast<double>(t.spans().size()), "count"},
  };
  if (!args.trace_out.empty()) {
    const std::string stem = args.trace_out + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    if (!setup_tracer.WriteJsonLines(stem + "-setup.jsonl") ||
        !t.WriteJsonLines(stem + "-session.jsonl")) {
      std::fprintf(stderr, "could not write spans under %s\n",
                   args.trace_out.c_str());
      return 2;
    }
    std::printf("# spans written to %s-{setup,session}.jsonl\n",
                stem.c_str());
  }
  return Finish(totals, reported, extra);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <dir>]\n",
                 argv[0]);
    return 2;
  }
  for (const Workload& w : Workloads()) {
    if (args.workload != w.name) continue;
    const RunPlan plan = MakeRunPlan(w, args.seed);
    std::printf("# workload %s seed %llu: %zu arrivals (%zu warm-up), %zu "
                "queries, %zu churn points\n",
                w.name, static_cast<unsigned long long>(args.seed),
                plan.feed.size(), plan.warm_index, plan.queries.size(),
                plan.ops.size());
    return args.trace == 1 ? RunTraced(w, plan, args)
                           : RunEndToEnd(w, plan, args);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace enginebench

int main(int argc, char** argv) { return enginebench::Main(argc, argv); }
