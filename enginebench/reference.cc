#include "enginebench/reference.h"

#include <algorithm>
#include <unordered_map>

namespace enginebench {

using stateslice::Duration;
using stateslice::JoinCondition;
using stateslice::TimePoint;
using stateslice::Tuple;

namespace {

int64_t Mod(int64_t x, int64_t m) { return ((x % m) + m) % m; }

// Bucket of a stored tuple: the key itself for equi-joins; for kModSum the
// key residue mod m, since (ka + kb) % m depends on the residues only.
int64_t BucketOf(const JoinCondition& c, int64_t key) {
  return c.kind == JoinCondition::Kind::kEquiKey ? key : Mod(key, c.mod);
}

}  // namespace

std::vector<uint64_t> ReferenceCounts(const std::vector<Tuple>& feed,
                                      const JoinCondition& condition,
                                      const std::vector<RefQuery>& queries,
                                      const std::vector<TimePoint>& cutoffs) {
  std::vector<uint64_t> counts(queries.size(), 0);
  Duration max_window = 0;
  for (const RefQuery& q : queries) max_window = std::max(max_window, q.window);
  auto segment = [&cutoffs](TimePoint t) {
    return std::upper_bound(cutoffs.begin(), cutoffs.end(), t) -
           cutoffs.begin();
  };

  // Per stream: bucket -> timestamps of earlier arrivals, ascending.
  std::unordered_map<int64_t, std::vector<TimePoint>> seen[2];
  std::vector<int64_t> buckets;
  for (const Tuple& x : feed) {
    const int other = x.side == 0 ? 1 : 0;
    buckets.clear();
    if (condition.kind == JoinCondition::Kind::kEquiKey) {
      buckets.push_back(x.key);
    } else {
      // (kx + ky) % m < band  <=>  ky % m in {(r - kx) mod m : r < band}.
      for (int64_t r = 0; r < condition.band; ++r) {
        buckets.push_back(Mod(r - x.key, condition.mod));
      }
    }
    for (const int64_t b : buckets) {
      auto it = seen[other].find(b);
      if (it == seen[other].end()) continue;
      const std::vector<TimePoint>& times = it->second;
      for (auto y = times.rbegin(); y != times.rend(); ++y) {
        const Duration gap = x.timestamp - *y;
        if (gap >= max_window) break;
        const bool same_segment = segment(*y) == segment(x.timestamp);
        for (size_t q = 0; q < queries.size(); ++q) {
          const RefQuery& rq = queries[q];
          if (gap < rq.window && *y >= rq.from && x.timestamp < rq.until &&
              same_segment) {
            ++counts[q];
          }
        }
      }
    }
    seen[x.side == 0 ? 0 : 1][BucketOf(condition, x.key)].push_back(
        x.timestamp);
  }
  return counts;
}

}  // namespace enginebench
