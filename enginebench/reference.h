// Engine-free reference for the benchmark's correctness gate: per-query
// result counts of a binary windowed join, computed directly over the feed.
#ifndef ENGINEBENCH_REFERENCE_H_
#define ENGINEBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "src/common/timestamp.h"
#include "src/common/tuple.h"
#include "src/operators/join_condition.h"

namespace enginebench {

// One query as the reference sees it. A pair (x, y) from different streams
// counts iff the join condition matches, |Tx - Ty| < window, both arrive
// in [from, until), and no rebuild cutoff falls between them. `from` and
// `until` encode the engine's documented churn semantics: a query
// registered mid-stream sees arrivals pushed after its registration, and
// an unregistered one stops at the first arrival pushed after removal.
struct RefQuery {
  stateslice::Duration window = 0;
  stateslice::TimePoint from = 0;
  stateslice::TimePoint until = stateslice::kMaxTime;
};

// Counts each query's results over `feed` (ascending timestamps, stream ids
// 0 and 1). `cutoffs` are drain-rebuild cutoffs: operator state resets at
// each, so pairs straddling one never join. Cost is proportional to the
// matching pairs within the largest window (hash buckets by key, or by key
// residue for kModSum), not to the window's tuple count.
std::vector<uint64_t> ReferenceCounts(
    const std::vector<stateslice::Tuple>& feed,
    const stateslice::JoinCondition& condition,
    const std::vector<RefQuery>& queries,
    const std::vector<stateslice::TimePoint>& cutoffs = {});

}  // namespace enginebench

#endif  // ENGINEBENCH_REFERENCE_H_
