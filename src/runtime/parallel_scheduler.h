// Multi-threaded pipeline scheduler.
//
// The deterministic round-robin scheduler (src/runtime/scheduler.h) caps
// throughput at one core. This scheduler executes the same shared plan as a
// parallel pipeline:
//
//  1. The plan's operators are laid out in a topological order and split
//     into up to `num_workers` contiguous *stages*, balanced by
//     Operator::SchedulingWeight() (a minimal-max-weight contiguous
//     partition). Contiguity in topological order guarantees every
//     cross-stage queue edge points from a lower stage to a higher one, so
//     the stage graph is a forward-only pipeline and bounded backpressure
//     cannot deadlock.
//  2. Each stage is driven by one worker thread. Queue edges whose producer
//     and consumer live in the same stage stay ordinary EventQueues,
//     touched only by that stage's thread. Edges that cross stages are
//     relayed through lock-free bounded SPSC rings
//     (src/runtime/spsc_queue.h): the producer stage's thread pops from the
//     EventQueue it alone fills (preserving the queue's accounting) and
//     pushes into the ring, spinning/yielding while the ring is full
//     (backpressure); the consumer stage's thread pops the ring and calls
//     the operator. Transfers are run-at-a-time: both sides move bounded
//     runs (<= quantum events) per ring round-trip — one release store per
//     run instead of per event — and consumers receive them through
//     Operator::OnRun. Run buffers are stage-local (GUARDED_BY the stage
//     role), so per-edge FIFO order is untouched.
//  3. End of input propagates as a per-edge `closed` flag: when every input
//     edge of a stage is closed and drained, the stage closes its own
//     outgoing edges and exits. Workers never call Operator::Finish: the
//     end-of-stream flush (QueryPlan::FinishAll) is the caller's, after
//     Join, when the plan is single-threaded again.
//
// Every operator is only ever executed by its stage's thread and every
// EventQueue is only ever touched by one thread, so operator code needs no
// synchronization. Each queue keeps per-edge FIFO order, which is what the
// operators' correctness arguments (Lemma 1, Theorems 1-3) rely on; the
// only nondeterminism versus the round-robin scheduler is the interleaving
// *across* queues, which the order-preserving union absorbs via
// punctuation watermarks. Parallel runs therefore deliver the same result
// multisets as deterministic runs, in the same per-sink timestamp order.
//
// Plan surgery (online migration) is not supported while this scheduler is
// active: construction flips the plan into ExecutionMode::kParallel, which
// the *WhileRunning hooks CHECK against.
#ifndef STATESLICE_RUNTIME_PARALLEL_SCHEDULER_H_
#define STATESLICE_RUNTIME_PARALLEL_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/runtime/plan.h"
#include "src/runtime/spsc_queue.h"
#include "src/runtime/sync_point.h"

namespace stateslice {

// Tuning knobs for a parallel execution.
struct ParallelSchedulerOptions {
  // Worker threads (= maximum pipeline stages). Values larger than the
  // operator count are clamped; 1 degenerates to a single-threaded drain.
  int num_workers = 2;
  // Capacity of each cross-stage SPSC ring, in events (rounded up to a
  // power of two). Bounds queue memory and provides backpressure. Sized
  // so a saturated ring's live slot array (~capacity * sizeof(Event))
  // stays cache-resident: under backpressure the ring runs full and every
  // transfer streams through the whole array.
  size_t edge_capacity = 256;
  // Max events a stage pops from one input ring before relaying outputs
  // and visiting its next input.
  int quantum = 64;
};

// Drives a started QueryPlan with one thread per pipeline stage.
//
// Usage (Engine wraps this; see ExecutionMode::kParallel):
//   ParallelScheduler sched(plan, {.num_workers = 4});
//   sched.Start();
//   for (...) sched.PushEntry(entry_queue, event);   // feeder thread
//   sched.FinishInput();
//   sched.Join();
//   plan->FinishAll();  // end of stream: flush on the caller thread, then
//                       // drain with a RoundRobinScheduler
//
// Thread roles (checked under Clang -Wthread-safety):
//  - caller_role_: exactly one thread constructs the scheduler and calls
//    the public API (Start/PushEntry/FinishInput/Join and the accessors).
//    The lifecycle flags and stage/edge containers are GUARDED_BY it, so a
//    worker-side code path that reaches for them fails to compile.
//  - Stage::role: each stage's operators, local queues, and `processed`
//    counter belong to the one worker thread driving that stage; RunStage
//    asserts the role at thread entry.
//  - The SPSC rings carry their own producer/consumer roles: the relaying
//    stage (or the feeder, for entry edges) asserts the producer side, the
//    consuming stage the consumer side.
// CrossEdge::closed and total_processed_ are atomics and deliberately
// role-free (release/acquire close protocol; relaxed counter).
class ParallelScheduler {
 public:
  ParallelScheduler(QueryPlan* plan, ParallelSchedulerOptions options = {});
  ~ParallelScheduler();

  ParallelScheduler(const ParallelScheduler&) = delete;
  ParallelScheduler& operator=(const ParallelScheduler&) = delete;

  // Builds the stage partition and launches the worker threads.
  void Start();

  // Feeds one event into `entry` (a plan entry queue). Called by the
  // feeder thread only; blocks (spin/yield) while the entry ring is full.
  void PushEntry(EventQueue* entry, Event event);

  // Feeds a whole run into `entry` in order, consuming the run (cleared on
  // return, capacity retained). Same feeder-thread/backpressure contract as
  // PushEntry, but amortizes the ring traffic across the run.
  void PushEntryRun(EventQueue* entry, EventRun* run);

  // Declares end of input: closes all entry edges. Workers drain and
  // exit; flushing end-of-stream punctuations is left to the caller.
  void FinishInput();

  // Waits for all workers to exit. Idempotent. After Join() the plan is
  // back in deterministic mode and all queues are drained (except exit
  // queues, which the caller owns).
  void Join();

  // Total events consumed across all stages (ring pops + intra-stage queue
  // pops — the same unit as RoundRobinScheduler::total_processed). Exact
  // after Join(); a relaxed snapshot while running.
  uint64_t total_processed() const {
    // lint: allow(atomic-memory-order) -- stale-snapshot accounting read
    return STATESLICE_ATOMIC_ACCOUNTING_LOAD("psched.total", total_processed_,
                                             std::memory_order_relaxed);
  }

  // Stage layout (valid after Start): operators per stage, topological
  // order within each stage.
  const std::vector<std::vector<Operator*>>& stage_operators() const {
    // Single-caller contract: only the owning thread queries the layout.
    caller_role_.Assert();
    return stage_ops_;
  }
  int num_stages() const {
    caller_role_.Assert();  // single-caller contract (see class comment)
    return static_cast<int>(stage_ops_.size());
  }

  // Aggregate SPSC accounting over all cross-stage edges (queue-memory
  // reporting parity with EventQueue).
  uint64_t edges_total_pushed() const;
  size_t edges_high_water_mark() const;

  // Per-stage occupancy: fraction of each worker's loop wall-clock spent
  // moving events (vs idle-polling its input rings). One entry per stage,
  // in stage order. Valid only after Join().
  std::vector<double> stage_busy_fractions() const;

 private:
  // A queue edge crossing stages (or entering the pipeline): the producer
  // thread relays `queue` into `ring`; the consumer thread pops `ring` and
  // feeds (`consumer`, `port`).
  struct CrossEdge {
    explicit CrossEdge(size_t capacity) : ring(capacity) {}
    SpscQueue<Event> ring;
    std::atomic<bool> closed{false};
    EventQueue* queue = nullptr;  // producer-side EventQueue (accounting)
    Operator* consumer = nullptr;
    int port = 0;
  };
  // An intra-stage edge, drained by the owning stage's thread.
  struct LocalEdge {
    EventQueue* queue = nullptr;
    Operator* consumer = nullptr;
    int port = 0;
  };
  struct Stage {
    // The worker thread driving this stage; RunStage asserts it at entry.
    ThreadRole role;
    std::vector<Operator*> ops;        // topological order within the stage
    std::vector<CrossEdge*> inputs;    // rings feeding this stage
    std::vector<LocalEdge> locals;     // intra-stage queues to drain
    std::vector<CrossEdge*> outputs;   // rings this stage relays into
    // events consumed by this stage
    uint64_t processed STATESLICE_GUARDED_BY(role) = 0;
    // Wall-clock occupancy split of the worker loop: iterations that moved
    // events accrue busy_ns, futile polls accrue idle_ns (the scaling
    // bench reports busy / (busy + idle) per stage).
    int64_t busy_ns STATESLICE_GUARDED_BY(role) = 0;
    int64_t idle_ns STATESLICE_GUARDED_BY(role) = 0;
    // Reused run buffers, one per drain site so runs never interleave
    // (ring input, local-queue drain, output relay). Stage-local: only the
    // stage's worker touches them; clear() keeps their capacity.
    EventRun input_run STATESLICE_GUARDED_BY(role);
    EventRun local_run STATESLICE_GUARDED_BY(role);
    EventRun relay_run STATESLICE_GUARDED_BY(role);
    std::thread thread;
  };

  void BuildStages() STATESLICE_REQUIRES(caller_role_);
  // Worker entry point; `stage_index` is the stable thread id reported to a
  // schedule-test explorer (stages are created in deterministic order).
  void RunStage(Stage* stage, int stage_index);
  // Drains intra-stage queues to quiescence, relaying cross-stage output
  // queues into their rings as events appear. Worker-side: runs on the
  // stage's own thread only.
  void DrainLocal(Stage* stage) STATESLICE_REQUIRES(stage->role);
  void RelayOutputs(Stage* stage) STATESLICE_REQUIRES(stage->role);
  void BlockingPush(CrossEdge* edge, Event event);
  // Pushes all of `run` into the edge's ring (spin/yield on full), then
  // clears the run. Producer thread of the edge only.
  void BlockingPushRun(CrossEdge* edge, EventRun* run);

  QueryPlan* plan_;
  ParallelSchedulerOptions options_;  // immutable after construction

  // Built by BuildStages, then structurally frozen: workers reach their
  // stage through the Stage* they were handed, never through these
  // containers, so the containers stay caller-owned.
  std::vector<std::unique_ptr<CrossEdge>> edges_
      STATESLICE_GUARDED_BY(caller_role_);
  std::vector<std::unique_ptr<Stage>> stages_
      STATESLICE_GUARDED_BY(caller_role_);
  std::vector<std::vector<Operator*>> stage_ops_
      STATESLICE_GUARDED_BY(caller_role_);
  // Entry edges (no producer operator): fed by PushEntry.
  std::vector<CrossEdge*> entry_edges_ STATESLICE_GUARDED_BY(caller_role_);
  // Feeder-side scratch run for PushEntryRun's queue round-trip.
  EventRun feeder_run_ STATESLICE_GUARDED_BY(caller_role_);

  std::atomic<uint64_t> total_processed_{0};
  bool started_ STATESLICE_GUARDED_BY(caller_role_) = false;
  bool input_finished_ STATESLICE_GUARDED_BY(caller_role_) = false;
  bool joined_ STATESLICE_GUARDED_BY(caller_role_) = false;

  // The single thread that owns construction, feeding, and teardown.
  ThreadRole caller_role_;
};

}  // namespace stateslice

#endif  // STATESLICE_RUNTIME_PARALLEL_SCHEDULER_H_
