// pverify_perfbench: runs one benchmark workload and prints its metrics as
// the last line of standard output. perfbench/run.py builds and invokes it;
// perfbench/README.md describes the workloads and metrics.
//
//   pverify_perfbench --workload=W --seed=N --seconds=S --trace=0|1
//                     --serve=PATH/pverify_serve --workdir=DIR
//                     [--trace-out=DIR]
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "daemon.h"
#include "engine/query_engine.h"
#include "layers.h"
#include "loadgen.h"
#include "net/client.h"
#include "trace.h"
#include "util.h"
#include "workload.h"

using namespace pverify;
using namespace perfbench;

namespace {

constexpr int kBatchSetups = 9;   // engine constructions behind setup_s
constexpr int kServeSetups = 9;   // daemon starts behind setup_s
constexpr int kServeInstances = 5;  // daemons the ladder is climbed on
constexpr size_t kBatchSize = 256;
constexpr double kWarmupSeconds = 0.3;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string serve;
  std::string workdir;
  std::string trace_out;
};

// What a run reports besides its metrics.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return a.compare(0, n, name) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      f->workload = v;
    } else if (const char* v = value("--seed=")) {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      f->seconds = std::atof(v);
    } else if (const char* v = value("--trace=")) {
      f->trace = std::strcmp(v, "1") == 0;
    } else if (const char* v = value("--serve=")) {
      f->serve = v;
    } else if (const char* v = value("--workdir=")) {
      f->workdir = v;
    } else if (const char* v = value("--trace-out=")) {
      f->trace_out = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return !f->workload.empty() && f->seconds > 0 && !f->serve.empty() &&
         !f->workdir.empty();
}

// ------------------------------------------------------------ paper_batch --

// Constructs the engine kBatchSetups times (construction + one warm-up
// batch, which also spawns the worker pool) and keeps the last one. Each
// set-up's peak resident set is read from a VmHWM restarted just before
// it, after the previous engine's freed heaps were handed back.
std::unique_ptr<QueryEngine> SetUpEngine(const Workload& w, Tally& tally,
                                         double* setup_s,
                                         double* peak_rss_mb) {
  std::vector<double> setups, peaks;
  std::unique_ptr<QueryEngine> engine;
  for (int i = 0; i < kBatchSetups; ++i) {
    engine.reset();
    malloc_trim(0);
    if (!ResetPeakRss()) throw std::runtime_error("cannot reset VmHWM");
    Dataset copy = w.dataset();
    std::vector<QueryRequest> warm;
    for (size_t d = 0; d < kBatchSize; ++d) warm.push_back(w.MakeRequest(d));
    const Clock::time_point t0 = Clock::now();
    engine = std::make_unique<QueryEngine>(std::move(copy));
    const std::vector<QueryResult> results =
        engine->ExecuteBatch(std::move(warm));
    setups.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    peaks.push_back(PeakRssMb(0));
    for (size_t d = 0; d < results.size(); ++d) {
      ++tally.attempted;
      if (!w.Matches(d, results[d].ids)) ++tally.wrong;
    }
  }
  *setup_s = Median(setups);
  *peak_rss_mb = Median(peaks);
  return engine;
}

struct BatchRun {
  std::vector<double> pass_qps;   ///< one per complete pass
  /// Per pass, the p50 and p90 of per-query engine time (QueryStats).
  std::vector<double> pass_p50_ms, pass_p90_ms;
  size_t queries = 0;
};

// Closed loop: passes over every distinct query in fixed-size ExecuteBatch
// calls until `seconds` elapse (at least one complete pass). Only the
// ExecuteBatch calls are timed; answers are checked between them.
BatchRun RunBatches(QueryEngine& engine, const Workload& w, double seconds,
                    Tally& tally, SpanRecorder* spans) {
  BatchRun run;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 1e6));
  const size_t n = w.spec().distinct;
  uint64_t batch_id = 0;
  std::vector<double> query_ms(n);
  do {
    double pass_s = 0.0;
    for (size_t lo = 0; lo < n; lo += kBatchSize) {
      const size_t hi = std::min(n, lo + kBatchSize);
      std::vector<QueryRequest> batch;
      for (size_t d = lo; d < hi; ++d) batch.push_back(w.MakeRequest(d));
      const Clock::time_point t0 = Clock::now();
      const std::vector<QueryResult> results =
          engine.ExecuteBatch(std::move(batch));
      const Clock::time_point t1 = Clock::now();
      if (spans != nullptr) {
        spans->Add("engine.execute_batch", t0, t1, -1, batch_id);
      }
      ++batch_id;
      pass_s += MsBetween(t0, t1) / 1000.0;
      for (size_t d = lo; d < hi; ++d) {
        const QueryResult& r = results[d - lo];
        ++tally.attempted;
        if (!w.Matches(d, r.ids)) ++tally.wrong;
        query_ms[d] = r.stats.total_ms;
      }
    }
    run.pass_qps.push_back(static_cast<double>(n) / pass_s);
    run.pass_p50_ms.push_back(Percentile(query_ms, 0.5));
    run.pass_p90_ms.push_back(Percentile(query_ms, 0.9));
    run.queries += n;
  } while (Clock::now() < deadline);
  return run;
}

void PaperBatchEndToEnd(const Workload& w, const Flags& flags, Tally& tally,
                        MetricSet& m) {
  double setup_s = 0.0, peak_rss_mb = 0.0;
  std::unique_ptr<QueryEngine> engine =
      SetUpEngine(w, tally, &setup_s, &peak_rss_mb);
  const BatchRun run = RunBatches(*engine, w, flags.seconds, tally, nullptr);
  m.Add("setup_s", setup_s, "s");
  m.Add("throughput_qps", Median(run.pass_qps), "1/s");
  m.Add("point_p50_ms", Median(run.pass_p50_ms), "ms");
  m.Add("point_p90_ms", Median(run.pass_p90_ms), "ms");
  m.Add("success_rate",
        1.0 - static_cast<double>(tally.wrong) / tally.attempted, "ratio");
  m.Add("peak_rss_mb", peak_rss_mb, "MiB");
  std::fprintf(stderr,
               "paper_batch: %zu passes, %zu queries timed, pass q/s p10 %.0f "
               "median %.0f p90 %.0f max %.0f\n",
               run.pass_qps.size(), run.queries,
               Percentile(run.pass_qps, 0.1), Median(run.pass_qps),
               Percentile(run.pass_qps, 0.9), Percentile(run.pass_qps, 1.0));
}

// ------------------------------------------------------------------ serve --

std::vector<std::string> DaemonArgs(const Workload& w, size_t cache) {
  // No in-flight or admission caps: the open-loop schedule bounds what is
  // in flight, and with the caps a few-millisecond scheduling hiccup at a
  // high rung turns into refusals instead of latency the SLO can judge.
  std::vector<std::string> args = {"--dataset=" + w.dataset_path(),
                                   "--inflight=0", "--admission=0"};
  if (cache > 0) args.push_back("--cache=" + std::to_string(cache));
  return args;
}

// Starts the daemon `starts` times and keeps the last one; the median
// start-up time is the workload's setup_s.
std::unique_ptr<Daemon> StartDaemon(const Workload& w, const Flags& flags,
                                    size_t cache, int starts,
                                    double* setup_s) {
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < starts; ++i) {
    daemon.reset();
    daemon = std::make_unique<Daemon>(flags.serve, DaemonArgs(w, cache),
                                      flags.workdir);
    setups.push_back(daemon->startup_s());
  }
  *setup_s = Median(setups);
  return daemon;
}

void Account(const PhaseSummary& s, Tally& tally, bool count_failed) {
  tally.attempted += s.attempted;
  tally.wrong += s.wrong;
  if (count_failed) tally.failed += s.failed - s.wrong;
}

// Fills the daemon's working set (every distinct hot-spot request once) and
// runs a short open-loop phase at the reference rate, so pools are spawned
// and caches filled before anything is timed. The open-loop phase starts at
// stream position `first`; returns how many stream requests it sent.
size_t WarmUp(const Workload& w, uint16_t port, size_t conns, size_t first,
              Tally& tally) {
  if (w.spec().zipf) {
    std::unique_ptr<net::Client> client =
        net::Client::ConnectUnique("127.0.0.1", port);
    std::vector<QueryRequest> all;
    for (size_t d = 0; d < w.spec().distinct; ++d) {
      all.push_back(w.MakeRequest(d));
    }
    const std::vector<net::ServeResponse> responses = client->Call(all);
    for (size_t d = 0; d < responses.size(); ++d) {
      ++tally.attempted;
      if (!responses[d].ok) {
        ++tally.failed;
      } else if (!w.Matches(d, responses[d].result.ids)) {
        ++tally.wrong;
      }
    }
    client->Close();
  }
  OpenLoopConfig config;
  config.port = port;
  config.conns = conns;
  config.rate = w.spec().reference_qps;
  config.seconds = kWarmupSeconds;
  config.first = first;
  const OpenLoopResult warm = RunOpenLoop(w, config);
  Account(Summarize(warm), tally, true);
  return warm.records.size();
}

void PrintPhase(const char* what, const PhaseSummary& s) {
  std::fprintf(stderr,
               "%s %6.0f q/s: %zu sent, %zu failed, point p50 %.3f p90 %.3f "
               "p99 %.3f ms (n=%zu), knn p50 %.3f p90 %.3f ms (n=%zu), "
               "lateness p90 %.3f p99 %.3f ms, backlog %zu, SLO goodput %.1f "
               "q/s -> %s\n",
               what, s.rate, s.attempted, s.failed, s.point_p50_ms,
               s.point_p90_ms, s.point_p99_ms, s.point_samples, s.knn_p50_ms,
               s.knn_p90_ms, s.knn_samples, s.lateness_p90_ms,
               s.lateness_p99_ms, s.backlog, s.slo_goodput_qps,
               !s.valid ? "invalid" : s.meets_slo ? "meets SLO" : "misses SLO");
}

// One daemon's climb up the ladder. The reference rung gets half of the
// time and always runs, since the latency metrics are read there; the other
// rungs share the rest. The climb stops at the first invalid rung
// (failures, a late generator or a growing backlog).
struct LadderPass {
  PhaseSummary reference;
  double goodput = 0.0;         ///< best SLO goodput of the valid rungs
  double max_qps_at_slo = 0.0;  ///< highest rate with every rung up to it
                                ///< meeting the SLO outright
  double peak_rss_mb = 0.0;
};

LadderPass ClimbLadder(const Workload& w, const Daemon& daemon, size_t conns,
                       double seconds, size_t* pos, Tally& tally) {
  const WorkloadSpec& spec = w.spec();
  LadderPass pass;
  bool slo_broken = false, ladder_broken = false;
  for (double rate : spec.ladder) {
    const bool is_reference = rate == spec.reference_qps;
    if (ladder_broken && !is_reference) continue;
    OpenLoopConfig config;
    config.port = daemon.port();
    config.conns = conns;
    config.rate = rate;
    config.seconds =
        seconds * (is_reference ? 0.5 : 0.5 / (spec.ladder.size() - 1));
    config.first = *pos;
    const OpenLoopResult result = RunOpenLoop(w, config);
    *pos += result.records.size();
    const PhaseSummary s = Summarize(result);
    // Refusals on a rung past capacity are that rung's SLO miss; only the
    // reference rung's failures count against the run.
    Account(s, tally, is_reference);
    PrintPhase(is_reference ? "reference" : "ladder   ", s);
    if (is_reference) pass.reference = s;
    if (ladder_broken) continue;
    if (s.valid) {
      pass.goodput = std::max(pass.goodput, s.slo_goodput_qps);
    } else {
      ladder_broken = true;
    }
    slo_broken = slo_broken || !s.meets_slo;
    if (!slo_broken) pass.max_qps_at_slo = rate;
  }
  pass.peak_rss_mb = PeakRssMb(daemon.pid());
  std::fprintf(stderr,
               "max_qps_at_slo %.0f q/s, best SLO goodput %.1f q/s, peak rss "
               "%.1f MiB\n",
               pass.max_qps_at_slo, pass.goodput, pass.peak_rss_mb);
  return pass;
}

// Latency on a lightly loaded daemon swings with where its threads land,
// so the run climbs the ladder on kServeInstances fresh daemons in turn
// and reports the median instance.
void ServeEndToEnd(const Workload& w, const Flags& flags, Tally& tally,
                   MetricSet& m) {
  const WorkloadSpec& spec = w.spec();
  const size_t conns = GeneratorConnections();
  double setup_s = 0.0;
  std::unique_ptr<Daemon> daemon =
      StartDaemon(w, flags, spec.cache_capacity, kServeSetups, &setup_s);
  std::vector<double> p50, p90, goodput, rss;
  uint64_t ref_attempted = 0, ref_failed = 0;
  size_t pos = 0;
  for (int i = 0; i < kServeInstances; ++i) {
    if (i > 0) {
      daemon = std::make_unique<Daemon>(
          flags.serve, DaemonArgs(w, spec.cache_capacity), flags.workdir);
    }
    pos += WarmUp(w, daemon->port(), conns, pos, tally);
    const LadderPass pass = ClimbLadder(
        w, *daemon, conns, flags.seconds / kServeInstances, &pos, tally);
    daemon->Stop();
    p50.push_back(pass.reference.point_p50_ms);
    p90.push_back(pass.reference.point_p90_ms);
    goodput.push_back(pass.goodput);
    rss.push_back(pass.peak_rss_mb);
    ref_attempted += pass.reference.attempted;
    ref_failed += pass.reference.failed;
  }

  m.Add("setup_s", setup_s, "s");
  m.Add("throughput_qps", Median(goodput), "1/s");
  m.Add("point_p50_ms", Median(p50), "ms");
  m.Add("point_p90_ms", Median(p90), "ms");
  m.Add("success_rate",
        1.0 - static_cast<double>(ref_failed) / ref_attempted, "ratio");
  m.Add("peak_rss_mb", Median(rss), "MiB");
}

// ------------------------------------------------------------ traced run --

// Point requests sent while a k-NN request on the same connection was still
// unanswered: their latencies (ms).
std::vector<double> BehindKnnMs(const OpenLoopResult& result) {
  std::vector<double> out;
  std::vector<int64_t> knn_busy_until;  // per connection
  for (const RequestRecord& r : result.records) {
    if (r.conn >= knn_busy_until.size()) knn_busy_until.resize(r.conn + 1, -1);
    if (!r.correct) continue;
    if (r.knn) {
      knn_busy_until[r.conn] = std::max(knn_busy_until[r.conn], r.recv_ns);
    } else if (r.send_ns < knn_busy_until[r.conn]) {
      out.push_back((r.recv_ns - r.slot_ns) / 1e6);
    }
  }
  return out;
}

// Share of responses that arrived before an earlier-sent request's on the
// same connection.
double ReorderedShare(const OpenLoopResult& result) {
  // Per connection: (arrival order, schedule index).
  std::vector<std::vector<std::pair<uint32_t, size_t>>> per_conn;
  for (size_t k = 0; k < result.records.size(); ++k) {
    const RequestRecord& r = result.records[k];
    if (!r.answered) continue;
    if (r.conn >= per_conn.size()) per_conn.resize(r.conn + 1);
    per_conn[r.conn].push_back({r.arrival, k});
  }
  size_t reordered = 0, total = 0;
  for (auto& arrivals : per_conn) {
    std::sort(arrivals.begin(), arrivals.end());
    size_t max_k = 0;
    for (const auto& a : arrivals) {
      if (total > 0 && a.second < max_k) ++reordered;
      max_k = std::max(max_k, a.second);
      ++total;
    }
  }
  return total > 0 ? static_cast<double>(reordered) / total : 0.0;
}

void Traced(const Workload& w, const Flags& flags, Tally& tally,
            MetricSet& m, SpanRecorder& spans) {
  const WorkloadSpec& spec = w.spec();
  const size_t conns = GeneratorConnections();
  // paper_batch has no daemon of its own; its net rungs use one with the
  // default caching tier so every workload climbs the same ladder.
  const size_t cache = spec.served() ? spec.cache_capacity : 4096;
  const double pass_s = 0.3 * flags.seconds;
  // Open-loop passes run at the top of the ladder, where queueing shows.
  const double rate =
      spec.ladder.empty() ? spec.reference_qps : spec.ladder.back();
  double trace_overhead = 0.0, point_p99 = 0.0, lateness_p99 = 0.0;
  std::vector<double> behind_ms, knn_ms;
  double reordered = 0.0;
  size_t pos = 0;  // next stream position the daemon has not been sent

  if (!spec.served()) {
    double setup_s = 0.0, peak_rss_mb = 0.0;  // not reported when traced
    std::unique_ptr<QueryEngine> engine =
        SetUpEngine(w, tally, &setup_s, &peak_rss_mb);
    const BatchRun plain = RunBatches(*engine, w, pass_s, tally, nullptr);
    const BatchRun traced = RunBatches(*engine, w, pass_s, tally, &spans);
    trace_overhead = Median(plain.pass_qps) / Median(traced.pass_qps);
  }

  std::unique_ptr<Daemon> daemon = std::make_unique<Daemon>(
      flags.serve, DaemonArgs(w, cache), flags.workdir);
  const ProcCpu cpu0 = ReadProcCpu(daemon->pid());
  const uint64_t attempted0 = tally.attempted;
  if (spec.served()) {
    pos = WarmUp(w, daemon->port(), conns, 0, tally);
    OpenLoopConfig config;
    config.port = daemon->port();
    config.conns = conns;
    config.rate = rate;
    config.seconds = pass_s;
    config.first = pos;
    const OpenLoopResult plain = RunOpenLoop(w, config);
    config.first = pos + plain.records.size();
    const OpenLoopResult traced = RunOpenLoop(w, config, &spans);
    pos = config.first + traced.records.size();
    const PhaseSummary a = Summarize(plain), b = Summarize(traced);
    Account(a, tally, true);
    Account(b, tally, true);
    PrintPhase("untraced ", a);
    PrintPhase("traced   ", b);
    trace_overhead = b.point_p50_ms / a.point_p50_ms;
    point_p99 = a.point_p99_ms;
    lateness_p99 = a.lateness_p99_ms;
    if (spec.knn_share > 0.0) {
      behind_ms = BehindKnnMs(plain);
      for (const RequestRecord& r : plain.records) {
        if (r.knn && r.correct) knn_ms.push_back((r.recv_ns - r.slot_ns) / 1e6);
      }
    }
    reordered = ReorderedShare(plain);
  }

  LayerContext ctx;
  ctx.workload = &w;
  ctx.seed = flags.seed;
  ctx.daemon_port = daemon->port();
  ctx.cache_capacity = cache;
  ctx.sample_first = pos;
  ctx.spans = &spans;
  ctx.metrics = &m;
  RunLadder(ctx);
  if (!spec.served()) {
    point_p99 = Percentile(spans.DurationsUs("net.roundtrip"), 0.99) / 1e3;
  }
  if (behind_ms.empty()) {
    // No k-NN in the stream: a probe supplies the head-of-line figures.
    reordered = ProbeHeadOfLine(ctx, &behind_ms, &knn_ms);
  }
  const ProcCpu cpu1 = ReadProcCpu(daemon->pid());
  const double daemon_requests =
      static_cast<double>(tally.attempted - attempted0 + ctx.attempted);
  daemon->Stop();

  MeasureBatch(ctx);
  MeasureCache(ctx);
  const double submit_lateness = MeasureSubmitSchedule(ctx, rate, pass_s);
  if (!spec.served()) lateness_p99 = submit_lateness;
  tally.attempted += ctx.attempted;
  tally.wrong += ctx.wrong;

  m.Add("net.reordered_share", reordered, "ratio");
  m.Add("net.point_p50_behind_knn_ms", Percentile(behind_ms, 0.5), "ms");
  m.Add("serve.cpu_ms_per_req", (cpu1.cpu_ms - cpu0.cpu_ms) / daemon_requests,
        "ms");
  m.Add("serve.threads", static_cast<double>(cpu1.threads), "count");
  m.Add("serve.point_p99_ms", point_p99, "ms");
  m.Add("serve.knn_p50_ms", Percentile(knn_ms, 0.5), "ms");
  m.Add("serve.knn_p90_ms", Percentile(knn_ms, 0.9), "ms");
  m.Add("bench.lateness_p99_ms", lateness_p99, "ms");
  m.Add("bench.trace_overhead", trace_overhead, "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: pverify_perfbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --serve=PATH --workdir=DIR [--trace-out=DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 flags.workload.c_str());
    return 2;
  }
  // Generator honesty: one sender and one receiver thread per connection,
  // never more threads than CPUs.
  const size_t gen_threads = 2 * GeneratorConnections();
  if (spec->served() && gen_threads > Nproc()) {
    std::fprintf(stderr,
                 "perfbench: the generator needs %zu threads but only %zu "
                 "CPUs are available\n",
                 gen_threads, Nproc());
    return 1;
  }
  try {
    Workload workload(*spec, flags.seed, flags.workdir + "/dataset.txt");
    const double reference_s = workload.ComputeReference(Nproc());
    std::fprintf(stderr,
                 "%s seed %llu: %zu objects, %zu distinct requests, reference "
                 "answers in %.2f s\n",
                 spec->name.c_str(),
                 static_cast<unsigned long long>(flags.seed),
                 workload.dataset().size(), spec->distinct, reference_s);
    Tally tally;
    MetricSet metrics;
    SpanRecorder spans;
    if (flags.trace) {
      Traced(workload, flags, tally, metrics, spans);
      if (!flags.trace_out.empty()) {
        const std::string path = flags.trace_out + "/" + spec->name + "-" +
                                 std::to_string(flags.seed) + ".jsonl";
        std::error_code ec;
        std::filesystem::create_directories(flags.trace_out, ec);
        if (ec || !spans.Write(path)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
          return 1;
        }
        std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(),
                     path.c_str());
      }
    } else if (spec->served()) {
      ServeEndToEnd(workload, flags, tally, metrics);
    } else {
      PaperBatchEndToEnd(workload, flags, tally, metrics);
    }
    tally.failed += tally.wrong;
    std::string bad;
    if (!metrics.AllFinite(&bad)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   bad.c_str());
      return 1;
    }
    const bool correct = tally.wrong == 0;
    if (!correct) {
      std::fprintf(stderr, "perfbench: %llu answers differ from the "
                   "sequential reference\n",
                   static_cast<unsigned long long>(tally.wrong));
    }
    std::printf("%s\n", ResultLine(correct, tally.attempted, tally.failed,
                                   metrics)
                            .c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
