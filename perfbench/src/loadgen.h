// Open-loop load generator against a running pverify_serve.
//
// Request k of a phase is due at start + k / rate and goes to connection
// k mod conns. Each connection has one sender thread, which sleeps until a
// request's slot and sends it without waiting for answers, and one receiver
// thread, which reads responses in arrival order. Latency is timed from the
// scheduled slot, so a stall is charged to every request it delays; how
// late the sender actually ran is recorded per request.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "workload.h"

namespace perfbench {

class SpanRecorder;

struct OpenLoopConfig {
  uint16_t port = 0;
  size_t conns = 1;
  double rate = 0.0;      ///< offered requests per second
  double seconds = 0.0;   ///< schedule length
  size_t first = 0;       ///< stream position of the phase's first request
};

struct RequestRecord {
  uint32_t distinct = 0;  ///< which distinct request was sent
  bool knn = false;
  uint32_t conn = 0;
  bool answered = false;  ///< a response frame arrived
  bool ok = false;        ///< it carried a result (not an error frame)
  bool correct = false;   ///< the result matched the reference
  int64_t slot_ns = 0;  ///< scheduled send time, from phase start
  int64_t send_ns = -1;
  int64_t send_end_ns = -1;
  int64_t recv_ns = -1;
  uint32_t arrival = 0;  ///< arrival order on its connection
  std::vector<pverify::ObjectId> ids;
};

struct OpenLoopResult {
  double rate = 0.0;
  std::vector<RequestRecord> records;  ///< in schedule order
  /// Requests sent but unanswered when each connection's last request was
  /// due, summed over connections.
  size_t backlog_at_end = 0;
};

/// Runs one open-loop phase. With a non-null `spans`, every response adds
/// a request span (slot → response) with a send child. Results are checked
/// against the workload's reference after the phase ends.
OpenLoopResult RunOpenLoop(const Workload& workload,
                           const OpenLoopConfig& config,
                           SpanRecorder* spans = nullptr);

/// Latency summary of one phase and whether it meets the SLO.
struct PhaseSummary {
  double rate = 0.0;
  size_t attempted = 0;
  size_t failed = 0;  ///< refused, errored, unanswered or wrong
  size_t wrong = 0;   ///< answered with a result that differs
  size_t point_samples = 0;
  size_t knn_samples = 0;
  double point_p50_ms = 0.0;
  double point_p90_ms = 0.0;
  double point_p99_ms = 0.0;
  double knn_p50_ms = 0.0;
  double knn_p90_ms = 0.0;
  double lateness_p90_ms = 0.0;
  double lateness_p99_ms = 0.0;
  size_t backlog = 0;
  bool generator_behind = false;
  bool backlog_grew = false;
  /// No failures, the generator on time and no growing backlog: the rung
  /// measured the daemon, not an overload or the generator.
  bool valid = false;
  bool meets_slo = false;  ///< valid and point p90 within the limit
  /// Point requests answered correctly within the latency limit, per
  /// second of schedule.
  double slo_goodput_qps = 0.0;
};

/// The SLO's latency limit on point p90.
inline constexpr double kSloPointP90Ms = 1.0;

/// Summarizes a phase against the SLO: point p90 at most kSloPointP90Ms,
/// zero failures, the generator on time and no growing backlog.
PhaseSummary Summarize(const OpenLoopResult& result);

/// Connections (= sender/receiver thread pairs) the generator uses on this
/// host: two threads per connection, at most Nproc() threads in total.
size_t GeneratorConnections();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
