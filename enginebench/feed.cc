#include "enginebench/feed.h"

#include <algorithm>
#include <cmath>

namespace enginebench {

using stateslice::kTicksPerSecond;
using stateslice::StreamId;
using stateslice::TimePoint;
using stateslice::Tuple;

namespace {

// Cumulative Zipf weights over [0, domain), normalized to end at 1.
std::vector<double> ZipfCdf(int64_t domain, double s) {
  std::vector<double> cdf(static_cast<size_t>(domain));
  double sum = 0.0;
  for (int64_t k = 0; k < domain; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[static_cast<size_t>(k)] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

std::vector<Tuple> GenerateStream(const FeedSpec& spec, StreamId stream,
                                  const std::vector<double>& zipf_cdf,
                                  SplitMix64* rng) {
  std::vector<Tuple> out;
  const double horizon = spec.duration_s * kTicksPerSecond;
  double t = 0.0;
  uint32_t seq = 0;
  while (true) {
    // Exponential inter-arrival; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng->NextDouble()) / spec.rate_per_stream *
         kTicksPerSecond;
    if (t >= horizon) break;
    Tuple tuple;
    tuple.timestamp = 1 + static_cast<TimePoint>(t);
    tuple.side = stream;
    tuple.seq = seq++;
    tuple.value = rng->NextDouble();
    if (spec.keys == KeyModel::kZipf) {
      const double u = rng->NextDouble();
      tuple.key = static_cast<int64_t>(
          std::upper_bound(zipf_cdf.begin(), zipf_cdf.end() - 1, u) -
          zipf_cdf.begin());
    } else {
      tuple.key = static_cast<int64_t>(rng->Next() %
                                       static_cast<uint64_t>(spec.key_domain));
    }
    out.push_back(tuple);
  }
  return out;
}

}  // namespace

std::vector<Tuple> GenerateFeed(const FeedSpec& spec, uint64_t seed) {
  std::vector<double> zipf_cdf;
  if (spec.keys == KeyModel::kZipf) {
    zipf_cdf = ZipfCdf(spec.key_domain, spec.zipf_s);
  }
  SplitMix64 rng_a(seed * 2 + 1);
  SplitMix64 rng_b(seed * 2 + 2);
  const std::vector<Tuple> a = GenerateStream(spec, 0, zipf_cdf, &rng_a);
  const std::vector<Tuple> b = GenerateStream(spec, 1, zipf_cdf, &rng_b);
  std::vector<Tuple> merged;
  merged.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged),
             [](const Tuple& x, const Tuple& y) {
               return x.timestamp < y.timestamp;
             });
  for (size_t i = 1; i < merged.size(); ++i) {
    merged[i].timestamp =
        std::max(merged[i].timestamp, merged[i - 1].timestamp + 1);
  }
  return merged;
}

}  // namespace enginebench
