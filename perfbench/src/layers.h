// The traced run's per-layer measurements. Each one times calls into a
// layer's public functions from here; nothing inside the library is
// instrumented.
//
// RunLadder replays a sample of the workload's requests serially down the
// ladder — CpnnExecutor phases → CpnnExecutor::Execute →
// QueryEngine::Execute → Submit → CachingEngine::Submit → wire codec →
// loopback pverify_serve — recording one span per rung with the next rung
// down as its child, and reports each rung's median plus the derived self
// times. The other functions measure what a serial replay cannot:
// batching, queueing under the open-loop schedule, cache hit/miss mix,
// and head-of-line blocking behind a k-NN request.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>

#include "trace.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

struct LayerContext {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  uint16_t daemon_port = 0;    ///< a daemon with the workload's cache setup
  size_t cache_capacity = 0;   ///< the daemon's --cache value
  /// Stream position of the ladder sample: one whose requests the daemon
  /// has not answered recently, so its cache holds them only if the
  /// workload repeats them.
  size_t sample_first = 0;
  SpanRecorder* spans = nullptr;
  MetricSet* metrics = nullptr;
  size_t wrong = 0;            ///< answers that differed from the reference
  size_t attempted = 0;        ///< requests issued by these measurements
};

/// The serial replay ladder (spatial, uncertain, core, engine, cache, net).
void RunLadder(LayerContext& ctx);

/// engine.batch_us_per_query: ExecuteBatch over the ladder sample.
void MeasureBatch(LayerContext& ctx);

/// engine.cache_*: hit and miss cost, and the stream's hit rate and
/// evictions at the workload's capacity (CacheStats deltas).
void MeasureCache(LayerContext& ctx);

/// engine.submit_p90_ms / engine.coalesced_mean: in-process Submit on the
/// daemon's engine stack, replaying the open-loop schedule at `rate`.
/// Returns the send lateness p99 (ms).
double MeasureSubmitSchedule(LayerContext& ctx, double rate, double seconds);

/// Head-of-line probe on one connection: a k-NN request at a fresh point
/// followed at once by point requests. Fills `behind_ms` with the points'
/// latencies, `knn_ms` with the k-NN latencies and returns the share of
/// responses that arrived out of send order.
double ProbeHeadOfLine(LayerContext& ctx, std::vector<double>* behind_ms,
                       std::vector<double>* knn_ms);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
