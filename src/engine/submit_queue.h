// The engines' async submission queue.
//
// Submit(request, done) returns immediately; a dedicated dispatcher thread,
// started by the first Submit, drains everything queued since the last
// dispatch into ONE batch and hands it to the owning engine's batch runner.
// While a batch executes, new submissions pile up and are coalesced into
// the next batch — so interactive callers pipeline single requests and
// still get batched execution across the worker pool, without ever forming
// a batch themselves. The runner fans the batch out on the engine's worker
// pool, where even a coalesced batch of ONE sharded request uses every
// core, because the request's shard loop nests inside the batch worker (see
// sharded_engine.h). An engine that never Submits never starts the thread.
//
// The runner completes each pending query (PendingQuery::CompleteWith) and
// must not let exceptions escape per request; if the runner itself throws,
// the queue fails every still-uncompleted query in the batch so none is
// left without an answer. The destructor drains the queue — every
// submitted query is eventually completed.
#ifndef PVERIFY_ENGINE_SUBMIT_QUEUE_H_
#define PVERIFY_ENGINE_SUBMIT_QUEUE_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.h"

namespace pverify {

class SubmitQueue {
 public:
  /// Executes one coalesced batch, completing every query. Called from the
  /// dispatcher thread with the batch by reference: entries still
  /// uncompleted when the runner returns by exception are failed by the
  /// queue.
  using BatchRunner = std::function<void(std::vector<PendingQuery>&)>;

  explicit SubmitQueue(BatchRunner runner);

  /// Drains every queued request through the runner, then joins.
  ~SubmitQueue();

  SubmitQueue(const SubmitQueue&) = delete;
  SubmitQueue& operator=(const SubmitQueue&) = delete;

  /// Enqueues the request; `done` runs once a dispatched batch containing
  /// it finishes. Safe to call from any number of threads.
  void Submit(QueryRequest request, Completion done);

  SubmitQueueStats GetStats() const;

 private:
  void DispatcherLoop();

  BatchRunner runner_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::vector<PendingQuery> pending_;
  bool stopping_ = false;
  SubmitQueueStats stats_;
  std::thread dispatcher_;  ///< started by the first Submit, under mu_
};

}  // namespace pverify

#endif  // PVERIFY_ENGINE_SUBMIT_QUEUE_H_
