#include "src/runtime/parallel_scheduler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/common/fault_point.h"
#include "src/runtime/backoff.h"
#include "src/runtime/sync_point.h"

namespace stateslice {

namespace {

// Order of the consumer-side close-flag load in RunStage's done check. The
// acquire is load-bearing: reading closed==true must also make the
// producer's final ring publication visible, or the emptiness probe that
// follows can see a stale tail and exit with events still in flight. The
// STATESLICE_SEEDED_BUG_3 variant drops the acquire so the interleave
// explorer (tests/interleave/) can prove it catches the resulting lost
// events — compiled only by the seeded-violation catch test.
#if defined(STATESLICE_SEEDED_BUG_3)
// lint: allow(atomic-memory-order) -- seeded interleave-catch violation
constexpr std::memory_order kClosedLoadOrder = std::memory_order_relaxed;
#else
constexpr std::memory_order kClosedLoadOrder = std::memory_order_acquire;
#endif

// Number of contiguous blocks a greedy packing needs when no block may
// exceed `capacity` total weight.
int BlocksNeeded(const std::vector<double>& weights, double capacity) {
  int blocks = 1;
  double current = 0;
  for (const double w : weights) {
    if (current > 0 && current + w > capacity) {
      ++blocks;
      current = 0;
    }
    current += w;
  }
  return blocks;
}

}  // namespace

ParallelScheduler::ParallelScheduler(QueryPlan* plan,
                                     ParallelSchedulerOptions options)
    : plan_(plan), options_(options) {
  SLICE_CHECK(plan != nullptr);
  SLICE_CHECK_GT(options_.quantum, 0);
  SLICE_CHECK_GT(options_.edge_capacity, 0u);
  if (options_.num_workers < 1) options_.num_workers = 1;
}

ParallelScheduler::~ParallelScheduler() {
  if (started_ && !joined_) {
    FinishInput();
    Join();
  }
}

void ParallelScheduler::BuildStages() {
  const std::vector<Operator*> order = plan_->TopologicalOrder();
  const int k = std::min<int>(options_.num_workers,
                              std::max<size_t>(order.size(), 1));

  // Minimal-max-weight contiguous partition of the topological order into
  // at most k blocks: bisect on the block capacity, then pack greedily.
  std::vector<double> weights(order.size());
  double heaviest = 0;
  double total = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    weights[i] = order[i]->SchedulingWeight();
    heaviest = std::max(heaviest, weights[i]);
    total += weights[i];
  }
  double lo = heaviest;
  double hi = std::max(total, heaviest);
  for (int iter = 0; iter < 48; ++iter) {
    const double mid = (lo + hi) / 2;
    if (BlocksNeeded(weights, mid) <= k) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  std::map<const Operator*, int> stage_of;
  double current = 0;
  int stage_index = order.empty() ? -1 : 0;
  // lint: allow(hot-path-alloc) -- setup-time stage construction
  stages_.emplace_back(std::make_unique<Stage>());
  for (size_t i = 0; i < order.size(); ++i) {
    if (current > 0 && current + weights[i] > hi &&
        stage_index + 1 < k) {
      // lint: allow(hot-path-alloc) -- setup-time stage construction
      stages_.emplace_back(std::make_unique<Stage>());
      ++stage_index;
      current = 0;
    }
    current += weights[i];
    stages_.back()->ops.push_back(order[i]);
    stage_of[order[i]] = stage_index;
  }
  stage_ops_.clear();
  for (const auto& stage : stages_) stage_ops_.push_back(stage->ops);

  // Classify every consumer edge by the stages of its endpoints.
  std::map<const EventQueue*, Operator*> producer_of;
  for (const auto& [producer, queue] : plan_->producer_edges()) {
    producer_of[queue] = producer;
  }
  for (const auto& [queue, consumer] : plan_->consumer_edges()) {
    auto [op, port] = consumer;
    const int cs = stage_of.at(op);
    const auto it = producer_of.find(queue);
    if (it == producer_of.end()) {
      // Entry queue: produced by the feeder thread.
      // lint: allow(hot-path-alloc) -- setup-time edge construction
      auto edge = std::make_unique<CrossEdge>(options_.edge_capacity);
      edge->queue = queue;
      edge->consumer = op;
      edge->port = port;
      entry_edges_.push_back(edge.get());
      stages_[cs]->inputs.push_back(edge.get());
      edges_.push_back(std::move(edge));
      continue;
    }
    const int ps = stage_of.at(it->second);
    if (ps == cs) {
      stages_[cs]->locals.push_back(LocalEdge{queue, op, port});
    } else {
      // Contiguity of the topological partition guarantees forward edges.
      SLICE_CHECK_LT(ps, cs);
      // lint: allow(hot-path-alloc) -- setup-time edge construction
      auto edge = std::make_unique<CrossEdge>(options_.edge_capacity);
      edge->queue = queue;
      edge->consumer = op;
      edge->port = port;
      stages_[ps]->outputs.push_back(edge.get());
      stages_[cs]->inputs.push_back(edge.get());
      edges_.push_back(std::move(edge));
    }
  }
}

void ParallelScheduler::Start() {
  // Lifecycle methods run on the one thread that owns this scheduler (the
  // Engine driver); workers are not launched yet.
  caller_role_.Assert();
  SLICE_CHECK(!started_);
  SLICE_CHECK(plan_->started());
  started_ = true;
  plan_->BeginExecution(ExecutionMode::kParallel);
  BuildStages();
  for (size_t i = 0; i < stages_.size(); ++i) {
    // Announce the spawn before the thread exists so a schedule-test
    // explorer knows to wait for the worker's registration.
    STATESLICE_SYNC_THREAD_SPAWN();
    stages_[i]->thread = std::thread(&ParallelScheduler::RunStage, this,
                                     stages_[i].get(), static_cast<int>(i));
  }
}

void ParallelScheduler::PushEntry(EventQueue* entry, Event event) {
  // The feeder is the owning caller thread (single-caller contract).
  caller_role_.Assert();
  // Crash seam: fires before any state mutates, so an injected failure
  // models the feeder dying between batches (fault_point.h).
  STATESLICE_FAULT_POINT("psched.push_entry");
  SLICE_CHECK(started_);
  SLICE_CHECK(!input_finished_);
  CrossEdge* edge = nullptr;
  for (CrossEdge* e : entry_edges_) {
    if (e->queue == entry) {
      edge = e;
      break;
    }
  }
  SLICE_CHECK(edge != nullptr);  // not an entry queue of this plan
  // Round-trip through the EventQueue so its total-pushed accounting keeps
  // working in parallel mode (only the feeder thread touches it).
  entry->Push(std::move(event));
  BlockingPush(edge, entry->Pop());
}

void ParallelScheduler::PushEntryRun(EventQueue* entry, EventRun* run) {
  // The feeder is the owning caller thread (single-caller contract).
  caller_role_.Assert();
  // Crash seam: fires before any state mutates (see PushEntry).
  STATESLICE_FAULT_POINT("psched.push_entry");
  SLICE_CHECK(started_);
  SLICE_CHECK(!input_finished_);
  CrossEdge* edge = nullptr;
  for (CrossEdge* e : entry_edges_) {
    if (e->queue == entry) {
      edge = e;
      break;
    }
  }
  SLICE_CHECK(edge != nullptr);  // not an entry queue of this plan
  // Same EventQueue round-trip as PushEntry, run-sized: accounting stays on
  // the queue, and the drain bound keeps the scratch run's footprint at one
  // quantum even for huge batches.
  entry->PushRun(run);
  for (;;) {
    feeder_run_.clear();
    if (entry->DrainRun(&feeder_run_,
                        static_cast<size_t>(options_.quantum)) == 0) {
      break;
    }
    BlockingPushRun(edge, &feeder_run_);
  }
}

void ParallelScheduler::FinishInput() {
  caller_role_.Assert();  // lifecycle: owning caller thread only
  SLICE_CHECK(started_);
  if (input_finished_) return;
  input_finished_ = true;
  for (CrossEdge* e : entry_edges_) {
    // Release pairs with the acquire in RunStage's done check: a consumer
    // that observes closed==true also observes every prior entry push.
    STATESLICE_ATOMIC_STORE("psched.entry_close", e->closed, true,
                            std::memory_order_release);
  }
}

void ParallelScheduler::Join() {
  caller_role_.Assert();  // lifecycle: owning caller thread only
  if (joined_) return;
  SLICE_CHECK(started_);
  SLICE_CHECK(input_finished_);  // FinishInput() must precede Join()
  // Park brackets the real blocking joins so a schedule-test explorer does
  // not wait on this thread while it waits on the workers.
  STATESLICE_SYNC_PARK();
  for (const auto& stage : stages_) {
    if (stage->thread.joinable()) stage->thread.join();
  }
  STATESLICE_SYNC_UNPARK();
  joined_ = true;
  plan_->EndExecution();
}

void ParallelScheduler::BlockingPush(CrossEdge* edge, Event event) {
  // Each cross-stage ring has exactly one pushing thread by construction:
  // the worker of the producer stage (RelayOutputs), or the feeder for
  // entry edges (PushEntry). Whichever thread reaches this call *is* that
  // producer.
  edge->ring.AssertProducer();
  // A full ring is backpressure: the consumer stage is behind. Back off
  // exponentially (capped), then yield so a stalled consumer does not pin
  // a producer core and oversubscribed machines still make progress.
  SpinBackoff backoff;
  while (!edge->ring.TryPush(std::move(event))) {
    // Observation seam: backpressure iterations are countable under fault
    // testing (worker threads may reach this — count-only, never throws).
    STATESLICE_FAULT_POINT("psched.ring_full");
    // Futile until the consumer pops: no store of ours can unblock us.
    STATESLICE_SYNC_FUTILE("psched.push_backpressure");
    backoff.Pause();
  }
}

void ParallelScheduler::BlockingPushRun(CrossEdge* edge, EventRun* run) {
  // Same single-producer justification as BlockingPush: the thread that
  // reaches this call is the edge's one producer by construction.
  edge->ring.AssertProducer();
  size_t pushed = 0;
  SpinBackoff backoff;
  while (pushed < run->size()) {
    const size_t n = edge->ring.TryPushRun(run, pushed);
    pushed += n;
    if (n == 0) {
      // Observation seam: see BlockingPush (count-only, never throws).
      STATESLICE_FAULT_POINT("psched.ring_full");
      // Futile until the consumer pops: no store of ours can unblock us.
      STATESLICE_SYNC_FUTILE("psched.push_run_backpressure");
      backoff.Pause();
    } else {
      backoff.Reset();
    }
  }
  run->clear();
}

void ParallelScheduler::RelayOutputs(Stage* stage) {
  for (CrossEdge* e : stage->outputs) {
    while (!e->queue->empty()) {
      stage->relay_run.clear();
      e->queue->DrainRun(&stage->relay_run,
                         static_cast<size_t>(options_.quantum));
      BlockingPushRun(e, &stage->relay_run);
    }
  }
}

void ParallelScheduler::DrainLocal(Stage* stage) {
  uint64_t delta = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const LocalEdge& edge : stage->locals) {
      for (;;) {
        stage->local_run.clear();
        const size_t n = edge.queue->DrainRun(
            &stage->local_run, static_cast<size_t>(options_.quantum));
        if (n == 0) break;
        edge.consumer->OnRun(stage->local_run, edge.port);
        delta += n;
        progress = true;
      }
    }
    // Ship whatever the local work emitted downstream before looping: the
    // relay keeps later stages busy while this one keeps draining.
    RelayOutputs(stage);
  }
  if (delta > 0) {
    stage->processed += delta;
    // lint: allow(atomic-memory-order) -- commutative accounting counter
    STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD("psched.local.total",
                                           total_processed_, delta,
                                           std::memory_order_relaxed);
  }
}

void ParallelScheduler::RunStage(Stage* stage, int stage_index) {
  // This function is the worker thread's entry point: by construction the
  // executing thread is the one worker driving `stage`.
  STATESLICE_SYNC_THREAD_BEGIN(stage_index);
  stage->role.Assert();
  // Composite tails this stage's operators spill draw from the plan arena
  // (the arena pointer is immutable after plan construction; the arena
  // itself is internally synchronized).
  ArenaScope arena_scope(plan_->arena());
  auto tick = std::chrono::steady_clock::now();
  for (;;) {
    uint64_t round = 0;
    for (CrossEdge* e : stage->inputs) {
      // Every input ring of this stage is consumed by this worker alone
      // (BuildStages wires each ring into exactly one stage's inputs).
      e->ring.AssertConsumer();
      stage->input_run.clear();
      const size_t popped = e->ring.TryPopRun(
          &stage->input_run, static_cast<size_t>(options_.quantum));
      if (popped > 0) {
        e->consumer->OnRun(stage->input_run, e->port);
        stage->input_run.clear();
        round += popped;
        stage->processed += popped;
        // lint: allow(atomic-memory-order) -- commutative accounting counter
        STATESLICE_ATOMIC_ACCOUNTING_FETCH_ADD("psched.drain.total",
                                               total_processed_, popped,
                                               std::memory_order_relaxed);
        DrainLocal(stage);
      }
    }
    // Attribute this iteration's wall time: a sweep that moved events is
    // busy, a futile poll (plus the yield below, charged to the next
    // stamp) is idle. One clock read per sweep — noise next to the up-to-
    // quantum-events-per-ring work a productive sweep does.
    {
      const auto now = std::chrono::steady_clock::now();
      const int64_t ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - tick)
              .count();
      tick = now;
      if (round > 0) {
        stage->busy_ns += ns;
      } else {
        stage->idle_ns += ns;
      }
    }
    if (round == 0) {
      // No input progress: either upstream is slow or it is done. An edge
      // is exhausted only if it was closed *before* we observed it empty
      // (the producer publishes all pushes before the closed flag).
      bool done = true;
      for (CrossEdge* e : stage->inputs) {
        if (!STATESLICE_ATOMIC_LOAD("psched.closed_check", e->closed,
                                    kClosedLoadOrder) ||
            !e->ring.empty()) {
          done = false;
          break;
        }
      }
      if (done) break;
      // Futile until an upstream push or close lands.
      STATESLICE_SYNC_FUTILE("psched.idle");
      std::this_thread::yield();
    }
  }
  RelayOutputs(stage);
  for (CrossEdge* e : stage->outputs) {
    // Release pairs with the downstream done check's acquire: observing
    // closed==true implies observing every relay this stage published.
    STATESLICE_ATOMIC_STORE("psched.stage_close", e->closed, true,
                            std::memory_order_release);
  }
  STATESLICE_SYNC_THREAD_END();
}

uint64_t ParallelScheduler::edges_total_pushed() const {
  caller_role_.Assert();  // accounting reads: owning caller thread only
  uint64_t total = 0;
  for (const auto& edge : edges_) total += edge->ring.total_pushed();
  return total;
}

size_t ParallelScheduler::edges_high_water_mark() const {
  caller_role_.Assert();  // accounting reads: owning caller thread only
  size_t max_hwm = 0;
  for (const auto& edge : edges_) {
    max_hwm = std::max(max_hwm, edge->ring.high_water_mark());
  }
  return max_hwm;
}

std::vector<double> ParallelScheduler::stage_busy_fractions() const {
  caller_role_.Assert();  // accounting reads: owning caller thread only
  SLICE_CHECK(joined_);   // exact only once the workers have exited
  std::vector<double> fractions;
  fractions.reserve(stages_.size());
  for (const auto& stage : stages_) {
    // Join() synchronized with the worker's exit, so this thread is the
    // only one left touching the stage's loop counters.
    stage->role.Assert();
    const int64_t total = stage->busy_ns + stage->idle_ns;
    fractions.push_back(total > 0 ? static_cast<double>(stage->busy_ns) /
                                        static_cast<double>(total)
                                  : 0.0);
  }
  return fractions;
}

}  // namespace stateslice
