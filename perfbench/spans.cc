// Copyright (c) memflow authors. MIT license.

#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.h"

namespace memflow::perfbench {
namespace {

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

int SpanRecorder::Add(std::string_view name, std::int64_t start_ns, std::int64_t end_ns,
                      int parent) {
  const std::uint32_t thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, thread, rep_});
  return static_cast<int>(spans_.size() - 1);
}

int SpanRecorder::Open(std::string_view name, int parent) {
  const std::int64_t now = NowNs();
  return Add(name, now, now, parent);
}

void SpanRecorder::Close(int index) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = now;
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  run_parent_.store(-1, std::memory_order_relaxed);
  return std::exchange(spans_, {});
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const std::int64_t from = std::max(begin, cursor);
      const std::int64_t to = std::min(end, s.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::vector<SpanTotal> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string_view, SpanTotal> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotal& t = by_name[spans[i].name];
    t.calls++;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  std::vector<SpanTotal> out;
  for (auto& [name, total] : by_name) {
    total.name = std::string(name);
    out.push_back(std::move(total));
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::string_view workload) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  const std::string quoted_workload = JsonQuote(workload);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"rep\":%d,\"workload\":%s}}\n",
                 i == 0 ? "" : ",", JsonQuote(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.rep,
                 quoted_workload.c_str());
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace memflow::perfbench
