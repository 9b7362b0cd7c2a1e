// Parallel-vs-deterministic equivalence over the fuzz workload generator.
//
// The deterministic round-robin runtime is the correctness reference. For
// seeded random configurations (random window sets, selections, chain
// partitions, selectivities, rates — the same space
// tests/fuzz_equivalence_test.cc explores), the parallel pipeline scheduler
// must deliver, per query:
//  - the same result multiset as the deterministic run (and the oracle),
//  - the same results under timestamp-order comparison in the sinks,
//  - a timestamp-ordered result stream (the union's order guarantee
//    survives multi-threaded scheduling).
// Worker counts cycle through 2..4 so stage partitions of different shapes
// are exercised. Runs under TSan in CI (tsan preset).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::DrawFuzzConfig;
using ::stateslice::testing::FuzzConfig;
using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::RunPlan;

class ParallelEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEquivalenceTest, ParallelMatchesDeterministicAndOracle) {
  const FuzzConfig config = DrawFuzzConfig(GetParam());
  SCOPED_TRACE(config.DebugString());

  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = config.rate;
  spec.duration_s = 10;
  spec.join_selectivity = config.s1;
  spec.seed = config.workload_seed;
  const Workload workload = GenerateWorkload(spec);

  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;
  options.use_lineage = config.use_lineage;

  BuiltPlan reference =
      BuildStateSlicePlan(config.queries, config.chain, options);
  RunPlan(&reference, workload);

  BuiltPlan parallel =
      BuildStateSlicePlan(config.queries, config.chain, options);
  // Small rings on some seeds so backpressure paths get exercised too.
  RunPlan(&parallel, workload, ExecutionMode::kParallel,
          2 + static_cast<int>(GetParam() % 3),
          GetParam() % 2 == 0 ? 16 : 1024);

  for (const ContinuousQuery& q : config.queries) {
    EXPECT_EQ(parallel.collectors[q.id]->ResultMultiset(),
              reference.collectors[q.id]->ResultMultiset())
        << q.DebugString();
    EXPECT_EQ(parallel.collectors[q.id]->TimeSortedResults(),
              reference.collectors[q.id]->TimeSortedResults())
        << q.DebugString();
    EXPECT_TRUE(parallel.collectors[q.id]->saw_ordered_stream())
        << q.DebugString();
    EXPECT_EQ(parallel.collectors[q.id]->ResultMultiset(),
              OracleJoin(workload.stream_a, workload.stream_b,
                         workload.condition, q))
        << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

}  // namespace
}  // namespace stateslice
