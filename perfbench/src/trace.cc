#include "trace.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {
  spans_.reserve(1 << 16);
}

int64_t SpanRecorder::Add(const char* name, Clock::time_point start,
                          Clock::time_point end, int64_t parent,
                          uint64_t request_id) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  Span span{name, duration_cast<nanoseconds>(start - origin_).count(),
            duration_cast<nanoseconds>(end - origin_).count(), parent,
            request_id};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::vector<double> SpanRecorder::SelfTimesUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) {
      out.push_back((s.end_ns - s.start_ns - child_ns[i]) / 1e3);
    }
  }
  return out;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
