// In-memory span tracing for the benchmark's traced run.
//
// Spans are recorded by the benchmark around each call it makes into a
// layer's public functions (Engine, ParseQuery, the core builders): name,
// start, end and parent. Subscriber-callback time is not a span of its own
// (there can be hundreds of results per Push); it is summed into the
// enclosing open span when the callback runs on the calling thread, and into
// a per-run worker total when it runs on an engine thread (the merge worker
// in sharded mode). Spans stay in memory and are written out at the end.
#ifndef ENGINEBENCH_TRACE_H_
#define ENGINEBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace enginebench {

inline int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string, e.g. "api.push"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;          // index of the enclosing span, -1 at top level
  int64_t callback_ns = 0;  // subscriber callbacks run inside this span

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Every span's self time, by index: its duration minus its child spans and
// the callbacks charged to it.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].duration_ns() - spans[i].callback_ns;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -= spans[i].duration_ns();
    }
  }
  return self;
}

class Tracer {
 public:
  Tracer() : caller_(std::this_thread::get_id()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling (benchmark) thread; returns its index.
  int Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    spans_[static_cast<size_t>(index)].start_ns = MonotonicNs();
    return index;
  }

  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = MonotonicNs();
    open_.pop_back();
  }

  // Charges one subscriber callback of `ns` nanoseconds.
  void AddCallback(int64_t ns) {
    callback_results_.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() == caller_ && !open_.empty()) {
      spans_[static_cast<size_t>(open_.back())].callback_ns += ns;
    } else {
      worker_callback_ns_.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Callback time not inside any caller-thread span.
  int64_t worker_callback_ns() const {
    return worker_callback_ns_.load(std::memory_order_relaxed);
  }
  uint64_t callback_results() const {
    return callback_results_.load(std::memory_order_relaxed);
  }

  // Sum of self times of every span called `name`.
  int64_t TotalSelfNs(std::string_view name) const {
    const std::vector<int64_t> self = SelfTimes(spans_);
    int64_t total = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) total += self[i];
    }
    return total;
  }

  // Durations (ns) of every span called `name`.
  std::vector<double> Durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.duration_ns()));
      }
    }
    return out;
  }

  int64_t TotalCallbackNs() const {
    int64_t total = worker_callback_ns();
    for (const Span& span : spans_) total += span.callback_ns;
    return total;
  }

  // One JSON object per line: name, start/end (ns, relative to the first
  // span), parent index and callback ns. Returns false if the file cannot
  // be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"callback_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin), s.parent,
                   static_cast<long long>(s.callback_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::thread::id caller_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::atomic<int64_t> worker_callback_ns_{0};
  std::atomic<uint64_t> callback_results_{0};
};

// Records one span for the lifetime of the scope; a null tracer records
// nothing, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace enginebench

#endif  // ENGINEBENCH_TRACE_H_
