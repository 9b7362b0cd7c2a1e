// Tests for the benchmark's own helpers: percentiles, open-loop send-lag and
// latency accounting (against a fake clock), the engine-free reference join
// count, the feed generator and span self-time.
//
//   python3 enginebench/run.py --self-test
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "enginebench/feed.h"
#include "enginebench/open_loop.h"
#include "enginebench/reference.h"
#include "enginebench/stats.h"
#include "enginebench/trace.h"

namespace enginebench {
namespace {

using stateslice::JoinCondition;
using stateslice::SecondsToTicks;
using stateslice::TimePoint;
using stateslice::Tuple;

int failures = 0;

#define EXPECT_EQ(a, b)                                                   \
  do {                                                                    \
    const auto va = (a);                                                  \
    const auto vb = (b);                                                  \
    if (!(va == vb)) {                                                    \
      ++failures;                                                         \
      std::printf("FAIL %s:%d: %s == %s (%s vs %s)\n", __FILE__, __LINE__, \
                  #a, #b, std::to_string(va).c_str(),                     \
                  std::to_string(vb).c_str());                            \
    }                                                                     \
  } while (0)

void TestPercentiles() {
  // Highest percentile with at least ten samples beyond its rank.
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(1000000), 99.999);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Percentile(&v, 50), 50.0);
  EXPECT_EQ(Percentile(&v, 90), 90.0);
  EXPECT_EQ(Percentile(&v, 99), 99.0);
  EXPECT_EQ(Percentile(&v, 100), 100.0);
  EXPECT_EQ(Percentile(&v, 0), 1.0);
  EXPECT_EQ(NearestRank(1000, 99), size_t{990});
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

// Time advances only when the generator waits or the engine works.
struct FakeClock {
  int64_t now = 0;
  int64_t NowNs() const { return now; }
  void WaitUntil(int64_t due) { now = std::max(now, due); }
};

Tuple At(TimePoint ts) {
  Tuple t;
  t.timestamp = ts;
  return t;
}

void TestOpenLoopAccounting() {
  // Arrivals due every 10 us; each Push takes 25 us, so the generator
  // falls 15 us further behind per arrival and latency grows with it.
  const std::vector<Tuple> arrivals = {At(100), At(110), At(120), At(130)};
  const OpenLoopSchedule schedule(/*origin=*/100, /*speedup=*/1.0);
  FakeClock clock;
  std::vector<double> lag;
  std::vector<double> latency;
  DriveOpenLoop(std::span<const Tuple>(arrivals), schedule, clock, &lag,
                [&](const Tuple& t) {
                  clock.now += 25'000;
                  // One result per arrival, delivered at the end of Push.
                  latency.push_back(
                      ResultLatencyNs(schedule, t.timestamp, clock.NowNs()));
                });
  EXPECT_EQ(lag.size(), size_t{4});
  EXPECT_EQ(lag[0], 0.0);
  EXPECT_EQ(lag[1], 15'000.0);
  EXPECT_EQ(lag[2], 30'000.0);
  EXPECT_EQ(lag[3], 45'000.0);
  EXPECT_EQ(latency[0], 25'000.0);
  EXPECT_EQ(latency[3], 70'000.0);  // due at 30 us, delivered at 100 us

  // A fast engine keeps up: no lag, latency = service time. Speedup 2
  // halves the gaps (due at 0, 5, 10, 15 us).
  const OpenLoopSchedule fast(/*origin=*/100, /*speedup=*/2.0);
  FakeClock clock2;
  lag.clear();
  latency.clear();
  DriveOpenLoop(std::span<const Tuple>(arrivals), fast, clock2, &lag,
                [&](const Tuple& t) {
                  clock2.now += 1'000;
                  latency.push_back(
                      ResultLatencyNs(fast, t.timestamp, clock2.NowNs()));
                });
  EXPECT_EQ(fast.DueNs(130), int64_t{15'000});
  for (double l : lag) EXPECT_EQ(l, 0.0);
  for (double l : latency) EXPECT_EQ(l, 1'000.0);
  // A result carried by an earlier arrival (timestamp 110) but delivered
  // late counts from that arrival's due time.
  EXPECT_EQ(ResultLatencyNs(fast, 110, 20'000), 15'000.0);
  // A schedule starting later on the same clock shifts every due time.
  const OpenLoopSchedule later(/*origin=*/100, /*speedup=*/2.0,
                               /*start_ns=*/1'000'000);
  EXPECT_EQ(later.DueNs(130), int64_t{1'015'000});
}

Tuple Arrival(int stream, double t_s, int64_t key) {
  Tuple t;
  t.side = static_cast<stateslice::StreamId>(stream);
  t.timestamp = SecondsToTicks(t_s);
  t.key = key;
  return t;
}

void TestReferenceEqui() {
  // Equi pairs and gaps: a0-b0 0.5 s, a1-b1 0.2 s, a2-b2 0.1 s,
  // a2-b0 2.0 s, a0-b2 2.4 s.
  const std::vector<Tuple> feed = {
      Arrival(0, 1.0, 1), Arrival(1, 1.5, 1), Arrival(0, 2.0, 2),
      Arrival(1, 2.2, 2), Arrival(1, 3.4, 1), Arrival(0, 3.5, 1)};
  const JoinCondition equi = JoinCondition::EquiKey();
  const std::vector<RefQuery> queries = {
      {SecondsToTicks(1)},
      {SecondsToTicks(2)},  // the 2.0 s gap is not inside a 2 s window
      {SecondsToTicks(2.5)},
      {SecondsToTicks(2.5), SecondsToTicks(2.0)},  // registered at a1
      {SecondsToTicks(2.5), 0, SecondsToTicks(3.5)},  // removed before a2
  };
  const std::vector<uint64_t> counts = ReferenceCounts(feed, equi, queries);
  EXPECT_EQ(counts[0], uint64_t{3});
  EXPECT_EQ(counts[1], uint64_t{3});
  EXPECT_EQ(counts[2], uint64_t{5});
  EXPECT_EQ(counts[3], uint64_t{2});
  EXPECT_EQ(counts[4], uint64_t{3});
  // A rebuild cutoff at 3.0 s drops the two pairs straddling it.
  const std::vector<uint64_t> cut = ReferenceCounts(
      feed, equi, {{SecondsToTicks(2.5)}}, {SecondsToTicks(3.0)});
  EXPECT_EQ(cut[0], uint64_t{3});
}

void TestReferenceModSum() {
  // (ka + kb) % 4 < band. band 1 matches a0b0 (1+3), a1b1 (2+2) and a2b2
  // (3+1); band 2 adds a1b0 (2+3, gap 0.5 s) and a2b1 (3+2, gap 1.3 s).
  const std::vector<Tuple> feed = {
      Arrival(0, 1.0, 1), Arrival(1, 1.5, 3), Arrival(0, 2.0, 2),
      Arrival(1, 2.2, 2), Arrival(1, 3.4, 1), Arrival(0, 3.5, 3)};
  const std::vector<RefQuery> windows = {{SecondsToTicks(1)},
                                         {SecondsToTicks(1.5)}};
  const std::vector<uint64_t> band1 =
      ReferenceCounts(feed, JoinCondition::ModSum(4, 1), windows);
  EXPECT_EQ(band1[0], uint64_t{3});
  EXPECT_EQ(band1[1], uint64_t{3});
  const std::vector<uint64_t> band2 =
      ReferenceCounts(feed, JoinCondition::ModSum(4, 2), windows);
  EXPECT_EQ(band2[0], uint64_t{4});
  EXPECT_EQ(band2[1], uint64_t{5});
}

// The bucketed reference agrees with a brute-force pair scan on a
// generated feed, for both join conditions.
void TestReferenceAgainstBruteForce() {
  FeedSpec spec{.rate_per_stream = 30, .duration_s = 20,
                .keys = KeyModel::kUniform, .key_domain = 20};
  const std::vector<Tuple> feed = GenerateFeed(spec, 7);
  const std::vector<RefQuery> queries = {
      {SecondsToTicks(1)},
      {SecondsToTicks(3), SecondsToTicks(5)},
      {SecondsToTicks(2), 0, SecondsToTicks(12)}};
  const std::vector<TimePoint> cutoffs = {SecondsToTicks(8)};
  for (const JoinCondition& cond :
       {JoinCondition::EquiKey(), JoinCondition::ModSum(20, 3)}) {
    std::vector<uint64_t> brute(queries.size(), 0);
    for (size_t j = 0; j < feed.size(); ++j) {
      for (size_t i = 0; i < j; ++i) {
        const Tuple& y = feed[i];
        const Tuple& x = feed[j];
        if (x.side == y.side || !cond.Match(x, y)) continue;
        const bool straddle = y.timestamp < cutoffs[0] &&
                              x.timestamp >= cutoffs[0];
        for (size_t q = 0; q < queries.size(); ++q) {
          if (x.timestamp - y.timestamp < queries[q].window &&
              y.timestamp >= queries[q].from &&
              x.timestamp < queries[q].until && !straddle) {
            ++brute[q];
          }
        }
      }
    }
    const std::vector<uint64_t> got =
        ReferenceCounts(feed, cond, queries, cutoffs);
    for (size_t q = 0; q < queries.size(); ++q) EXPECT_EQ(got[q], brute[q]);
    EXPECT_EQ(brute[0] > 0, true);
  }
}

void TestFeed() {
  FeedSpec spec{.rate_per_stream = 200, .duration_s = 5,
                .keys = KeyModel::kZipf, .key_domain = 64, .zipf_s = 1.0};
  const std::vector<Tuple> a = GenerateFeed(spec, 3);
  const std::vector<Tuple> b = GenerateFeed(spec, 3);
  const std::vector<Tuple> c = GenerateFeed(spec, 4);
  EXPECT_EQ(a.size(), b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].timestamp == b[i].timestamp && a[i].key == b[i].key &&
           a[i].side == b[i].side;
  }
  EXPECT_EQ(same, true);
  EXPECT_EQ(a.size() == c.size() && a[0].timestamp == c[0].timestamp, false);
  size_t per_stream[2] = {0, 0};
  size_t hottest = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0) EXPECT_EQ(a[i].timestamp > a[i - 1].timestamp, true);
    EXPECT_EQ(a[i].key >= 0 && a[i].key < 64, true);
    ++per_stream[a[i].side];
    hottest += a[i].key == 0 ? 1 : 0;
  }
  // ~1000 per stream; key 0 carries ~21% of Zipf(1.0) mass over 64 keys.
  EXPECT_EQ(per_stream[0] > 800 && per_stream[0] < 1200, true);
  EXPECT_EQ(per_stream[1] > 800 && per_stream[1] < 1200, true);
  EXPECT_EQ(hottest > a.size() / 7 && hottest < a.size() / 3, true);
}

void TestTracerSelfTime() {
  // outer [0, 100) holds inner [10, 50), which ran 15 ns of callbacks.
  std::vector<Span> spans(2);
  spans[0] = {.name = "outer", .start_ns = 0, .end_ns = 100};
  spans[1] = {.name = "inner", .start_ns = 10, .end_ns = 50, .parent = 0,
              .callback_ns = 15};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], int64_t{60});
  EXPECT_EQ(self[1], int64_t{25});

  // Callbacks on the calling thread are charged to the innermost open span.
  Tracer tracer;
  const int outer = tracer.Begin("outer");
  const int inner = tracer.Begin("inner");
  tracer.AddCallback(15);
  tracer.End(inner);
  tracer.AddCallback(5);
  tracer.End(outer);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].callback_ns, int64_t{15});
  EXPECT_EQ(tracer.spans()[0].callback_ns, int64_t{5});
  EXPECT_EQ(tracer.TotalCallbackNs(), int64_t{20});
  EXPECT_EQ(tracer.callback_results(), uint64_t{2});
}

}  // namespace
}  // namespace enginebench

int main() {
  enginebench::TestPercentiles();
  enginebench::TestOpenLoopAccounting();
  enginebench::TestReferenceEqui();
  enginebench::TestReferenceModSum();
  enginebench::TestReferenceAgainstBruteForce();
  enginebench::TestFeed();
  enginebench::TestTracerSelfTime();
  if (enginebench::failures > 0) {
    std::printf("%d check(s) failed\n", enginebench::failures);
    return 1;
  }
  std::printf("enginebench helpers: all checks passed\n");
  return 0;
}
