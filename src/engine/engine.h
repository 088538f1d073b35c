// The abstract query-engine interface.
//
// Everything that serves QueryRequests — the single-process QueryEngine and
// the scatter/gather ShardedQueryEngine today, any future backend
// (work-stealing pool, caching tier) tomorrow — implements pverify::Engine.
// Callers are written once against `Engine&`; whether the dataset lives in
// one R-tree or is partitioned across shards is decided only at
// construction. Every implementation honors the same contracts:
//
//  * Execute runs one request on the calling thread and ExecuteBatch fans a
//    batch across the implementation's worker pool, returning results in
//    request order; answers are bit-identical across implementations and to
//    the sequential executors (only timings differ).
//  * Submit(request, done) is the one asynchronous entry point: it returns
//    without waiting for the answer and calls `done` exactly once with the
//    result Execute would produce, or with the exception Execute would
//    throw. `done` may run on the calling thread before Submit returns (a
//    CachingEngine answers exact hits that way) or later on an engine
//    worker that may hold the engine's batch lock, so it must be cheap,
//    thread-safe, must not throw, and may Submit again but must not call
//    the engine's ExecuteBatch or scratch telemetry. Requests
//    submitted while a batch is in flight coalesce into the next pool
//    batch. Submit(request) is a future-returning wrapper over it.
//  * ExecuteBatch may be called from one thread at a time; Execute and
//    Submit may be called concurrently with everything.
//  * Scratch telemetry (ScratchQueriesServed / ScratchBytes) exposes the
//    per-worker arenas so callers can pin steady-state footprint.
#ifndef PVERIFY_ENGINE_ENGINE_H_
#define PVERIFY_ENGINE_ENGINE_H_

#include <exception>
#include <functional>
#include <future>
#include <vector>

#include "engine/engine_stats.h"
#include "engine/request.h"

namespace pverify {

/// Receives one submitted request's outcome: the result, or the exception
/// Execute would have thrown (`error` non-null, `result` empty).
using Completion =
    std::function<void(QueryResult result, std::exception_ptr error)>;

class Engine {
 public:
  virtual ~Engine();

  /// Worker threads the batch paths fan out over.
  virtual size_t num_threads() const = 0;

  /// Executes one request on the calling thread (no pool dispatch).
  virtual QueryResult Execute(QueryRequest request) = 0;

  /// Executes a batch across the worker pool; results are in request
  /// order. When `stats` is non-null it receives the batch aggregate.
  virtual std::vector<QueryResult> ExecuteBatch(
      std::vector<QueryRequest> requests, EngineStats* stats = nullptr) = 0;

  /// Non-blocking submission: `done` is called exactly once with the
  /// outcome Execute would produce, possibly before Submit returns.
  /// Thread-safe.
  virtual void Submit(QueryRequest request, Completion done) = 0;

  /// Submit(request, done) with a future in place of the completion.
  std::future<QueryResult> Submit(QueryRequest request);

  /// Submission-queue telemetry (zeros until the first Submit).
  virtual SubmitQueueStats SubmitStats() const = 0;

  /// Total queries served from the per-worker scratches (telemetry).
  virtual size_t ScratchQueriesServed() const = 0;
  /// Approximate heap footprint of all scratch arenas.
  virtual size_t ScratchBytes() const = 0;

 protected:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
};

/// One queued async request and the completion its outcome goes to
/// (shared between the engines and the SubmitQueue).
struct PendingQuery {
  QueryRequest request;
  Completion done;

  /// Calls done(compute(request)), or done with the exception compute
  /// threw, and clears `done` so the query can never complete twice.
  template <typename Compute>
  void CompleteWith(Compute&& compute) {
    QueryResult result;
    std::exception_ptr error;
    try {
      result = compute(std::move(request));
    } catch (...) {
      error = std::current_exception();
    }
    Completion once = std::move(done);
    done = nullptr;
    once(std::move(result), error);
  }
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_ENGINE_H_
