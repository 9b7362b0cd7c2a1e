// Seeded input feeds for the engine benchmark.
//
// The benchmark generates its own arrivals instead of calling the library's
// workload generator, so a change to src/ cannot change what the benchmark
// feeds the engine: the parent and the change see identical tuples for the
// same seed.
#ifndef ENGINEBENCH_FEED_H_
#define ENGINEBENCH_FEED_H_

#include <cstdint>
#include <vector>

#include "src/common/tuple.h"

namespace enginebench {

// SplitMix64: a tiny, fully specified generator (unlike the standard
// library's distributions, its output does not depend on the toolchain).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

enum class KeyModel {
  kUniform,  // keys uniform over [0, key_domain)
  kZipf,     // P(key = k) proportional to 1 / (k + 1)^zipf_s
};

// Two independent Poisson streams (stream ids 0 and 1) over a horizon.
struct FeedSpec {
  double rate_per_stream = 400.0;  // tuples per virtual second
  double duration_s = 60.0;        // virtual horizon
  KeyModel keys = KeyModel::kUniform;
  int64_t key_domain = 1000;
  double zipf_s = 1.0;
};

// Generates both streams and merges them into one feed in strictly
// increasing timestamp order (a tie is nudged one tick later), with
// per-stream sequence numbers. Strict order means every arrival is a valid
// churn point: the engine requires arrivals after a registration to be
// later than every arrival before it.
std::vector<stateslice::Tuple> GenerateFeed(const FeedSpec& spec,
                                            uint64_t seed);

}  // namespace enginebench

#endif  // ENGINEBENCH_FEED_H_
