#include "engine/submit_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pverify {

SubmitQueue::SubmitQueue(BatchRunner runner) : runner_(std::move(runner)) {
  PV_CHECK_MSG(runner_ != nullptr, "SubmitQueue requires a batch runner");
}

SubmitQueue::~SubmitQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  // No Submit can start the dispatcher once stopping_ is set.
  if (dispatcher_.joinable()) dispatcher_.join();
}

void SubmitQueue::Submit(QueryRequest request, Completion done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PV_CHECK_MSG(!stopping_, "Submit after shutdown");
    if (!dispatcher_.joinable()) {
      dispatcher_ = std::thread([this] { DispatcherLoop(); });
    }
    pending_.push_back(PendingQuery{std::move(request), std::move(done)});
    ++stats_.requests;
  }
  work_ready_.notify_one();
}

SubmitQueueStats SubmitQueue::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SubmitQueue::DispatcherLoop() {
  for (;;) {
    std::vector<PendingQuery> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [this] { return stopping_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stopping_ and fully drained
      batch.swap(pending_);
      ++stats_.batches;
      stats_.max_coalesced = std::max(stats_.max_coalesced, batch.size());
    }
    try {
      runner_(batch);
    } catch (...) {
      // The runner is expected to complete every query itself; if it threw
      // midway, fail whatever is left so no query goes unanswered.
      const std::exception_ptr error = std::current_exception();
      for (PendingQuery& item : batch) {
        if (item.done != nullptr) item.done(QueryResult{}, error);
      }
    }
  }
}

}  // namespace pverify
