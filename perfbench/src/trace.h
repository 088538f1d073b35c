// In-memory span recorder for the traced run. Spans are kept in a vector
// while the benchmark runs and written once, as JSON lines, when it ends.
//
// A span is one timed call into a layer: name, start, end, the span it
// belongs under (its parent, -1 at the top) and the request it served.
// Self time is a span's duration minus the durations of its children. In
// the serial ladder replay the rungs are separate calls on the same
// request, each child being the next rung down, so self time is exactly
// "the difference between adjacent rungs".
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class SpanRecorder {
 public:
  SpanRecorder();

  /// Records a span and returns its id (for children's `parent`).
  /// Thread-safe.
  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t request_id);

  /// Durations (µs) of every span with this name.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self times (µs) of every span with this name.
  std::vector<double> SelfTimesUs(const std::string& name) const;

  size_t size() const;

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request_id;
  };

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
