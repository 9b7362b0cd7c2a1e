// Summary statistics for the engine benchmark: medians, nearest-rank
// percentiles, and the choice of which tail percentile a sample supports.
#ifndef ENGINEBENCH_STATS_H_
#define ENGINEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace enginebench {

// 1-based nearest rank of the p-th percentile in a sample of n >= 1. The
// epsilon keeps p * n / 100 from rounding up past an exact integer
// (0.99 * 1000 is not exactly 990 in binary floating point).
inline size_t NearestRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Nearest-rank percentile of an ascending-sorted sample: the smallest
// value with at least p% of the sample at or below it. 0 for an empty
// sample.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

// Sorts `values` in place and returns its p-th percentile.
inline double Percentile(std::vector<double>* values, double p) {
  std::sort(values->begin(), values->end());
  return PercentileSorted(*values, p);
}

// Median as the mean of the two middle values (what Python's
// statistics.median reports), so medians match compare.py's.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// The highest of 50, 90, 99, 99.9, ... that leaves at least ten samples
// beyond it in a sample of `n` (the tail a sample of that size can
// resolve). 0 when even the median has fewer than ten samples beyond it.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    // Samples strictly beyond the nearest-rank position.
    if (n > 0 && n >= NearestRank(n, p) + 10) best = p;
  }
  return best;
}

}  // namespace enginebench

#endif  // ENGINEBENCH_STATS_H_
