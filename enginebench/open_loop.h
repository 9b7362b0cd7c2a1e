// Open-loop load generation: arrivals are issued on a wall-clock schedule
// derived from their own timestamps, and the schedule does not slow down
// when the engine does. Latency is measured from when an arrival was *due*,
// so a stall is charged to every arrival it delays (no coordinated
// omission); how late the generator issued each push is recorded as send
// lag.
#ifndef ENGINEBENCH_OPEN_LOOP_H_
#define ENGINEBENCH_OPEN_LOOP_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "src/common/timestamp.h"
#include "src/common/tuple.h"

namespace enginebench {

// Maps an arrival timestamp to its due time on the loop clock. Virtual time
// is compressed by `speedup`: an arrival `d` virtual seconds after `origin`
// is due d / speedup wall seconds after `start_ns`. A result's due time is
// the due time of its last contributing arrival, whose timestamp is the
// result's timestamp.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(stateslice::TimePoint origin, double speedup,
                   int64_t start_ns = 0)
      : origin_(origin), ns_per_tick_(1000.0 / speedup), start_ns_(start_ns) {}

  int64_t DueNs(stateslice::TimePoint timestamp) const {
    return start_ns_ + static_cast<int64_t>(
                           static_cast<double>(timestamp - origin_) *
                           ns_per_tick_);
  }

 private:
  stateslice::TimePoint origin_;
  double ns_per_tick_;  // 1 tick = 1 virtual microsecond
  int64_t start_ns_;
};

// Wall clock for the open loop, counting from construction. WaitUntil
// sleeps while the target is far away and spins the last stretch: an OS
// wake-up alone is late by tens of microseconds, which would blur the
// latency of a fast engine.
class SteadyLoopClock {
 public:
  SteadyLoopClock() : start_(std::chrono::steady_clock::now()) {}

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  void WaitUntil(int64_t due_ns) const {
    constexpr int64_t kSpinNs = 200'000;
    const int64_t remaining = due_ns - NowNs();
    if (remaining > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(remaining - kSpinNs));
    }
    while (NowNs() < due_ns) {
    }
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Issues `arrivals` on `schedule`: waits for each one's due time, records
// the send lag (issue time minus due time), then calls push(tuple).
// `Clock` provides NowNs() and WaitUntil(ns); tests substitute a fake one.
template <typename Clock, typename PushFn>
void DriveOpenLoop(std::span<const stateslice::Tuple> arrivals,
                   const OpenLoopSchedule& schedule, Clock& clock,
                   std::vector<double>* send_lag_ns, PushFn&& push) {
  for (const stateslice::Tuple& t : arrivals) {
    const int64_t due = schedule.DueNs(t.timestamp);
    clock.WaitUntil(due);
    send_lag_ns->push_back(static_cast<double>(clock.NowNs() - due));
    push(t);
  }
}

// Latency of a result delivered at `now_ns` (same clock as the schedule):
// delivery time minus the due time of its last contributing arrival.
inline double ResultLatencyNs(const OpenLoopSchedule& schedule,
                              stateslice::TimePoint result_timestamp,
                              int64_t now_ns) {
  return static_cast<double>(now_ns - schedule.DueNs(result_timestamp));
}

}  // namespace enginebench

#endif  // ENGINEBENCH_OPEN_LOOP_H_
