#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "net/client.h"
#include "trace.h"
#include "util.h"

namespace perfbench {

using namespace pverify;

namespace {

// How long a receiver waits for the next frame before it gives up on the
// connection and counts everything outstanding as failed.
constexpr uint32_t kRecvTimeoutMs = 5000;

// One connection's state. `mu` guards the records this connection owns
// while its sender and receiver threads both touch them.
struct Connection {
  std::unique_ptr<net::Client> client;
  std::vector<size_t> schedule;  ///< record indices, in send order
  std::mutex mu;
  std::atomic<size_t> received{0};
  size_t backlog_at_end = 0;
};

}  // namespace

size_t GeneratorConnections() { return std::max<size_t>(1, Nproc() / 2); }

OpenLoopResult RunOpenLoop(const Workload& workload,
                           const OpenLoopConfig& config, SpanRecorder* spans) {
  OpenLoopResult result;
  result.rate = config.rate;
  const size_t count = std::max<size_t>(
      1, static_cast<size_t>(std::llround(config.rate * config.seconds)));
  const double interval_ns = 1e9 / config.rate;
  result.records.resize(count);
  std::vector<Connection> conns(config.conns);
  for (size_t k = 0; k < count; ++k) {
    RequestRecord& r = result.records[k];
    r.distinct = static_cast<uint32_t>(workload.StreamAt(config.first + k));
    r.knn = workload.distinct(r.distinct).knn;
    r.conn = static_cast<uint32_t>(k % config.conns);
    r.slot_ns = static_cast<int64_t>(interval_ns * static_cast<double>(k));
    conns[r.conn].schedule.push_back(k);
  }
  net::ClientOptions copt;
  copt.recv_timeout_ms = kRecvTimeoutMs;
  for (Connection& c : conns) {
    c.client = net::Client::ConnectUnique("127.0.0.1", config.port, copt);
  }

  // Leave the threads time to start before the first slot is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto since_start = [start](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
        .count();
  };

  auto sender = [&](Connection& c) {
    prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the slot, not 50 µs later
    size_t sent = 0;
    for (size_t k : c.schedule) {
      RequestRecord& r = result.records[k];
      std::this_thread::sleep_until(start +
                                    std::chrono::nanoseconds(r.slot_ns));
      const QueryRequest request = workload.MakeRequest(r.distinct);
      const Clock::time_point t0 = Clock::now();
      try {
        c.client->SendWithId(request, k + 1);
      } catch (const net::WireError&) {
        break;  // the receiver sees the dead socket too
      }
      const Clock::time_point t1 = Clock::now();
      {
        std::lock_guard<std::mutex> lock(c.mu);
        r.send_ns = since_start(t0);
        r.send_end_ns = since_start(t1);
      }
      ++sent;
    }
    c.backlog_at_end = sent - std::min(sent, c.received.load());
  };

  auto receiver = [&](Connection& c) {
    for (uint32_t arrival = 0; arrival < c.schedule.size(); ++arrival) {
      net::ServeResponse response;
      try {
        response = c.client->ReadNext();
      } catch (const net::WireError&) {
        return;  // unanswered records stay failed
      }
      const Clock::time_point now = Clock::now();
      const uint64_t k = response.request_id - 1;
      if (k >= result.records.size() ||
          &conns[result.records[k].conn] != &c) {
        return;  // a frame this connection never asked for
      }
      RequestRecord& r = result.records[k];
      {
        std::lock_guard<std::mutex> lock(c.mu);
        r.answered = true;
        r.ok = response.ok;
        r.recv_ns = since_start(now);
        r.arrival = arrival;
        r.ids = std::move(response.result.ids);
        if (spans != nullptr && r.send_ns >= 0) {
          const int64_t parent = spans->Add(
              "client.request", start + std::chrono::nanoseconds(r.slot_ns),
              now, -1, k);
          spans->Add("client.send", start + std::chrono::nanoseconds(r.send_ns),
                     start + std::chrono::nanoseconds(r.send_end_ns), parent,
                     k);
        }
      }
      c.received.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (Connection& c : conns) {
    threads.emplace_back(sender, std::ref(c));
    threads.emplace_back(receiver, std::ref(c));
  }
  for (std::thread& t : threads) t.join();
  for (Connection& c : conns) {
    c.client->Close();
    result.backlog_at_end += c.backlog_at_end;
  }
  for (RequestRecord& r : result.records) {
    r.correct = r.ok && workload.Matches(r.distinct, r.ids);
  }
  return result;
}

PhaseSummary Summarize(const OpenLoopResult& result) {
  PhaseSummary s;
  s.rate = result.rate;
  s.attempted = result.records.size();
  std::vector<double> point_ms, knn_ms, lateness_ms;
  size_t within_slo = 0;
  for (const RequestRecord& r : result.records) {
    if (r.send_ns >= 0) lateness_ms.push_back((r.send_ns - r.slot_ns) / 1e6);
    if (r.ok && !r.correct) ++s.wrong;
    if (!r.correct) {
      ++s.failed;
      continue;
    }
    const double ms = (r.recv_ns - r.slot_ns) / 1e6;
    (r.knn ? knn_ms : point_ms).push_back(ms);
    if (!r.knn && ms <= kSloPointP90Ms) ++within_slo;
  }
  s.slo_goodput_qps = static_cast<double>(within_slo) * s.rate /
                      static_cast<double>(s.attempted);
  s.point_samples = point_ms.size();
  s.knn_samples = knn_ms.size();
  s.point_p50_ms = Percentile(point_ms, 0.50);
  s.point_p90_ms = Percentile(point_ms, 0.90);
  s.point_p99_ms = Percentile(point_ms, 0.99);
  s.knn_p50_ms = Percentile(knn_ms, 0.50);
  s.knn_p90_ms = Percentile(knn_ms, 0.90);
  s.lateness_p99_ms = Percentile(lateness_ms, 0.99);
  s.backlog = result.backlog_at_end;
  // The generator fell behind when more than a tenth of its sends ran
  // over 0.5 ms late (an occasional descheduled sender is already charged
  // to latency, which is timed from the slot); the backlog grew when more
  // than 10 ms of arrivals were still unanswered as the schedule ended.
  s.lateness_p90_ms = Percentile(lateness_ms, 0.90);
  s.generator_behind =
      !(s.lateness_p90_ms <= 0.5) || lateness_ms.size() < s.attempted;
  s.backlog_grew = static_cast<double>(s.backlog) > 16.0 + 0.010 * s.rate;
  s.valid = s.failed == 0 && !s.generator_behind && !s.backlog_grew;
  s.meets_slo = s.valid && s.point_p90_ms <= kSloPointP90Ms;
  return s;
}

}  // namespace perfbench
