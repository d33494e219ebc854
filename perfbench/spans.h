// Copyright (c) memflow authors. MIT license.
//
// In-memory spans for the benchmark's traced run. Spans are recorded only
// from the benchmark's own code, around each call it makes into a layer's
// public API (Submit, Offer, RunToCompletion, task bodies, direct probes);
// nothing inside src/ is instrumented. Spans stay in memory and are written
// out as a Chrome trace when the run ends.

#ifndef MEMFLOW_PERFBENCH_SPANS_H_
#define MEMFLOW_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace memflow::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string_view name;  // always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the recorder, -1 for a root
  std::uint32_t thread = 0;
  int rep = 0;
};

// Thread-safe span store. Task bodies run on the executor's worker threads,
// so Add() takes a mutex; every other span is opened on the control thread.
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Records a finished span; returns its index.
  int Add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns, int parent);
  // Opens a span whose end is filled in by Close().
  int Open(std::string_view name, int parent);
  void Close(int index);

  // Parent for spans opened off the control thread (task bodies): the
  // RunToCompletion span currently open, or -1.
  void set_run_parent(int index) { run_parent_.store(index, std::memory_order_relaxed); }
  int run_parent() const { return run_parent_.load(std::memory_order_relaxed); }

  void set_rep(int rep) { rep_ = rep; }

  // Hands over the recorded spans and resets. Not safe while bodies may
  // still record.
  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<int> run_parent_{-1};
  int rep_ = 0;
};

// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string_view name, int parent)
      : rec_(rec), name_(name), parent_(parent), start_(rec != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->Add(name_, start_, NowNs(), parent_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::string_view name_;
  int parent_;
  std::int64_t start_;
};

// Self time of every span: its duration minus the part of its interval that
// its children cover (overlapping children, e.g. task bodies on two
// workers, are merged first).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

// Per-name totals over a span set.
struct SpanTotal {
  std::string name;
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::vector<SpanTotal> TotalsByName(const std::vector<Span>& spans);

// Writes the spans as a Chrome trace ("X" events; the parent index, the
// repetition and the workload ride in args). Returns false on I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::string_view workload);

}  // namespace memflow::perfbench

#endif  // MEMFLOW_PERFBENCH_SPANS_H_
