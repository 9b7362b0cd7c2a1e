#include "src/runtime/parallel_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/runtime/sink.h"
#include "src/stateslice.h"
#include "tests/test_util.h"

namespace stateslice {
namespace {

using ::stateslice::testing::A;
using ::stateslice::testing::OracleJoin;
using ::stateslice::testing::RunPlan;

// A pass-through operator that counts how many events it handled.
class CountingPass : public Operator {
 public:
  explicit CountingPass(std::string name) : Operator(std::move(name)) {}
  void Process(Event event, int) override {
    ++processed;
    Emit(0, event);
  }
  int processed = 0;
};

// Emits one sentinel tuple from Finish() (flush behavior probe).
class FlushOnFinish : public Operator {
 public:
  explicit FlushOnFinish(std::string name) : Operator(std::move(name)) {}
  void Process(Event event, int) override { Emit(0, event); }
  void Finish() override { Emit(0, A(999999, 1e6)); }
};

struct PipelinePlan {
  QueryPlan plan;
  EventQueue* entry = nullptr;
  CountingPass* first = nullptr;
  CountingPass* second = nullptr;
  CountingSink* sink = nullptr;
};

std::unique_ptr<PipelinePlan> MakePipeline() {
  auto p = std::make_unique<PipelinePlan>();
  p->first = p->plan.AddOperator(std::make_unique<CountingPass>("p1"));
  p->second = p->plan.AddOperator(std::make_unique<CountingPass>("p2"));
  p->sink = p->plan.AddOperator(std::make_unique<CountingSink>("sink"));
  p->entry = p->plan.AddEntryQueue("entry", p->first, 0);
  p->plan.Connect(p->first, 0, p->second, 0);
  p->plan.Connect(p->second, 0, p->sink, 0);
  p->plan.Start();
  return p;
}

TEST(ParallelSchedulerTest, DrainsPipelineAcrossStages) {
  auto p = MakePipeline();
  ParallelScheduler scheduler(&p->plan, {.num_workers = 3});
  scheduler.Start();
  EXPECT_EQ(scheduler.num_stages(), 3);
  for (int i = 0; i < 10; ++i) scheduler.PushEntry(p->entry, A(i, i));
  scheduler.FinishInput();
  scheduler.Join();
  // Same unit as the deterministic scheduler: 10 events over 3 edges.
  EXPECT_EQ(scheduler.total_processed(), 30u);
  EXPECT_EQ(p->first->processed, 10);
  EXPECT_EQ(p->second->processed, 10);
  EXPECT_EQ(p->sink->tuple_count(), 10u);
  EXPECT_EQ(p->plan.TotalQueueSize(), 0u);
  // Entry accounting still works in parallel mode.
  EXPECT_EQ(p->entry->total_pushed(), 10u);
  EXPECT_EQ(scheduler.edges_total_pushed(), 30u);  // 3 cross-stage edges
}

TEST(ParallelSchedulerTest, WorkerCountClampsToOperatorCount) {
  auto p = MakePipeline();
  ParallelScheduler scheduler(&p->plan, {.num_workers = 64});
  scheduler.Start();
  EXPECT_EQ(scheduler.num_stages(), 3);  // one per operator at most
  scheduler.FinishInput();
  scheduler.Join();
}

TEST(ParallelSchedulerTest, SingleWorkerMatchesDeterministicCounts) {
  auto p = MakePipeline();
  ParallelScheduler scheduler(&p->plan, {.num_workers = 1});
  scheduler.Start();
  EXPECT_EQ(scheduler.num_stages(), 1);
  for (int i = 0; i < 25; ++i) scheduler.PushEntry(p->entry, A(i, i));
  scheduler.FinishInput();
  scheduler.Join();
  EXPECT_EQ(scheduler.total_processed(), 75u);
  EXPECT_EQ(p->sink->tuple_count(), 25u);
}

TEST(ParallelSchedulerTest, TinyRingCapacityBackpressures) {
  auto p = MakePipeline();
  // Capacity 2 forces the feeder and every relay to block constantly; all
  // events must still flow through in order.
  ParallelScheduler scheduler(&p->plan,
                              {.num_workers = 3, .edge_capacity = 2});
  scheduler.Start();
  for (int i = 0; i < 2000; ++i) scheduler.PushEntry(p->entry, A(i, i));
  scheduler.FinishInput();
  scheduler.Join();
  EXPECT_EQ(p->sink->tuple_count(), 2000u);
  EXPECT_TRUE(p->sink->saw_ordered_stream());
}

TEST(ParallelSchedulerTest, StagePartitionBalancesByWeight) {
  QueryPlan plan;
  // pass, join, join, pass: with 2 workers the only balanced contiguous
  // split puts one join in each stage.
  auto* pass1 = plan.AddOperator(std::make_unique<CountingPass>("pass1"));
  auto* join1 = plan.AddOperator(std::make_unique<SlidingWindowJoin>(
      "join1", WindowSpec::TimeSeconds(1), WindowSpec::TimeSeconds(1)));
  auto* join2 = plan.AddOperator(std::make_unique<SlidingWindowJoin>(
      "join2", WindowSpec::TimeSeconds(1), WindowSpec::TimeSeconds(1)));
  auto* pass2 = plan.AddOperator(std::make_unique<CountingPass>("pass2"));
  plan.AddEntryQueue("entry", pass1, 0);
  plan.Connect(pass1, 0, join1, 0);
  plan.Connect(join1, SlidingWindowJoin::kResultPort, join2, 0);
  plan.Connect(join2, SlidingWindowJoin::kResultPort, pass2, 0);
  plan.Start();

  ParallelScheduler scheduler(&plan, {.num_workers = 2});
  scheduler.Start();
  ASSERT_EQ(scheduler.num_stages(), 2);
  const auto& stages = scheduler.stage_operators();
  int joins_in_stage0 = 0;
  int joins_in_stage1 = 0;
  for (const Operator* op : stages[0]) joins_in_stage0 += op == join1 || op == join2;
  for (const Operator* op : stages[1]) joins_in_stage1 += op == join1 || op == join2;
  EXPECT_EQ(joins_in_stage0, 1);
  EXPECT_EQ(joins_in_stage1, 1);
  scheduler.FinishInput();
  scheduler.Join();
}

TEST(ParallelSchedulerTest, WorkersLeaveTheFinishFlushToTheCaller) {
  QueryPlan plan;
  auto* flusher = plan.AddOperator(std::make_unique<FlushOnFinish>("flush"));
  auto* sink = plan.AddOperator(std::make_unique<CountingSink>("sink"));
  EventQueue* entry = plan.AddEntryQueue("entry", flusher, 0);
  plan.Connect(flusher, 0, sink, 0);
  plan.Start();

  ParallelScheduler scheduler(&plan, {.num_workers = 2});
  scheduler.Start();
  scheduler.PushEntry(entry, A(1, 1.0));
  scheduler.FinishInput();
  scheduler.Join();
  EXPECT_EQ(sink->tuple_count(), 1u);  // workers never call Finish
  plan.FinishAll();
  RoundRobinScheduler(&plan).RunUntilQuiescent();
  EXPECT_EQ(sink->tuple_count(), 2u);  // the caller-side flush delivers it
}

TEST(ParallelSchedulerTest, PlanReturnsToDeterministicModeAfterJoin) {
  auto p = MakePipeline();
  {
    ParallelScheduler scheduler(&p->plan, {.num_workers = 2});
    scheduler.Start();
    EXPECT_EQ(p->plan.active_mode(), ExecutionMode::kParallel);
    scheduler.FinishInput();
    scheduler.Join();
  }
  EXPECT_EQ(p->plan.active_mode(), ExecutionMode::kDeterministic);
}

TEST(ParallelSchedulerDeathTest, PlanSurgeryForbiddenWhileParallel) {
  auto p = MakePipeline();
  p->plan.BeginExecution(ExecutionMode::kParallel);
  // Satisfies the compile-time surgery capability so the test reaches the
  // *runtime* guard it exercises: the hook must still die on the
  // active-mode CHECK even if a caller wrongly claims exclusivity.
  p->plan.AssertSurgeryExclusive();
  EXPECT_DEATH(p->plan.ConnectWhileRunning(p->first, 1, p->second, 1),
               "CHECK failed");
  p->plan.EndExecution();
}

// --- Whole plans (ExecutionMode::kParallel) --------------------------------

TEST(ParallelPlanTest, MatchesDeterministicOnSlicedChain) {
  const std::vector<ContinuousQuery> queries = {
      {0, "Q1", WindowSpec::TimeSeconds(1), {}, {}},
      {1, "Q2", WindowSpec::TimeSeconds(2.5), {}, {}},
      {2, "Q3", WindowSpec::TimeSeconds(4), {}, {}},
  };
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 30;
  spec.duration_s = 12;
  spec.join_selectivity = 0.1;
  spec.seed = 17;
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  options.collect_results = true;

  BuiltPlan reference =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  const RunStats ref_stats = RunPlan(&reference, workload);
  EXPECT_EQ(ref_stats.mode, ExecutionMode::kDeterministic);

  BuiltPlan parallel =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  const RunStats par_stats =
      RunPlan(&parallel, workload, ExecutionMode::kParallel, 3);
  EXPECT_EQ(par_stats.mode, ExecutionMode::kParallel);
  EXPECT_GE(par_stats.worker_threads, 1);
  EXPECT_EQ(par_stats.input_tuples, ref_stats.input_tuples);
  EXPECT_EQ(par_stats.results_delivered, ref_stats.results_delivered);
  EXPECT_GT(par_stats.parallel_edge_events, 0u);

  for (const ContinuousQuery& q : queries) {
    EXPECT_EQ(parallel.collectors[q.id]->ResultMultiset(),
              reference.collectors[q.id]->ResultMultiset())
        << q.DebugString();
    // Timestamp-order comparison: identical content in identical
    // per-timestamp order.
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

TEST(ParallelPlanTest, DefaultWorkerCountRuns) {
  const std::vector<ContinuousQuery> queries = {
      {0, "Q1", WindowSpec::TimeSeconds(2), {}, {}},
  };
  WorkloadSpec spec;
  spec.rate_a = spec.rate_b = 20;
  spec.duration_s = 5;
  spec.seed = 3;
  const Workload workload = GenerateWorkload(spec);
  BuildOptions options;
  options.condition = workload.condition;
  BuiltPlan built =
      BuildStateSlicePlan(queries, BuildMemOptChain(queries), options);
  const RunStats stats = RunPlan(&built, workload, ExecutionMode::kParallel,
                                /*workers=*/0);  // hardware default
  EXPECT_GE(stats.worker_threads, 1);
  EXPECT_EQ(stats.input_tuples, workload.stream_a.size() +
                                    workload.stream_b.size());
  // One closing memory sample, with all queues drained.
  ASSERT_EQ(stats.memory_samples.size(), 1u);
  EXPECT_EQ(stats.memory_samples[0].queue_events, 0u);
}

}  // namespace
}  // namespace stateslice
