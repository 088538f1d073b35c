#include "layers.h"

#include <sys/prctl.h>

#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "core/candidate.h"
#include "core/scratch.h"
#include "core/subregion.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"
#include "net/client.h"
#include "net/codec.h"
#include "util.h"

namespace perfbench {

using namespace pverify;

namespace {

constexpr size_t kLadderSample = 384;  // stream requests replayed serially
constexpr size_t kExtraKnn = 16;       // k-NN probes when the stream has none
constexpr size_t kBatchSize = 64;
constexpr size_t kCacheProbe = 128;    // distinct points timed as miss + hit
constexpr size_t kCacheReplay = 1024;  // requests behind the CacheStats delta
constexpr size_t kProbeRounds = 24;
constexpr size_t kProbePoints = 4;     // point requests sent behind each k-NN

// Rung span names; k-NN requests get their own so per-rung medians stay
// per kind.
struct RungNames {
  const char* roundtrip;
  const char* codec;
  const char* cache_submit;
  const char* submit;
  const char* execute;
  const char* core;
};
constexpr RungNames kPointRungs = {"net.roundtrip",       "net.codec",
                                   "engine.cache_submit", "engine.submit",
                                   "engine.execute",      "core.execute"};
constexpr RungNames kKnnRungs = {
    "knn.net.roundtrip",  "knn.net.codec",      "knn.engine.cache_submit",
    "knn.engine.submit",  "knn.engine.execute", "core.knn_execute"};

struct Item {
  Request request;
  size_t distinct = 0;  ///< reference index; unused for extra k-NN probes
  bool extra = false;   ///< an extra k-NN probe, checked against core's answer
};

// Distinct stream requests starting at `first`, in stream order.
std::vector<size_t> DistinctFromStream(const Workload& w, size_t first,
                                       size_t count) {
  std::vector<size_t> out;
  std::vector<bool> seen(w.spec().distinct, false);
  for (size_t i = first; out.size() < count && i < first + 64 * count; ++i) {
    const size_t d = w.StreamAt(i);
    if (!seen[d]) {
      seen[d] = true;
      out.push_back(d);
    }
  }
  return out;
}

void AddMedian(MetricSet& m, const char* name, const std::vector<double>& v,
               const char* unit) {
  m.Add(name, Median(v), unit);
}

}  // namespace

void RunLadder(LayerContext& ctx) {
  const Workload& w = *ctx.workload;
  const Dataset& data = w.dataset();
  const QueryOptions opt = RequestOptions();
  const CpnnExecutor exec(data);
  QueryEngine engine(data);
  CachingEngineOptions copt;
  copt.capacity = ctx.cache_capacity;
  CachingEngine cache(engine, copt);
  // The daemon's warm-up sent every distinct hot-spot request once; give
  // the in-process cache the same state.
  if (w.spec().zipf) {
    for (size_t d = 0; d < w.spec().distinct; ++d) {
      cache.Execute(w.MakeRequest(d));
    }
  }
  std::unique_ptr<net::Client> client =
      net::Client::ConnectUnique("127.0.0.1", ctx.daemon_port);
  // The bottom rungs borrow a scratch the way an engine worker does, so
  // each rung runs the same code as the one above it.
  QueryScratch scratch;

  std::vector<Item> items;
  for (size_t i = 0; i < kLadderSample; ++i) {
    const size_t d = w.StreamAt(ctx.sample_first + i);
    items.push_back({w.distinct(d), d, false});
  }
  if (w.spec().knn_share == 0.0) {
    for (size_t i = 0; i < kExtraKnn; ++i) {
      items.push_back({{true, items[i].request.q}, 0, true});
    }
  }

  SpanRecorder& spans = *ctx.spans;
  std::vector<double> candidates, subregions, integrations, verify_us,
      refine_us, init_share, verified_share, request_bytes, response_bytes;
  for (size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    const Request& r = item.request;
    const RungNames& names = r.knn ? kKnnRungs : kPointRungs;
    Clock::time_point f0, f1, b1, s1;
    if (!r.knn) {
      f0 = Clock::now();
      const FilterResult filtered = exec.Filter(r.q);
      f1 = Clock::now();
      CandidateSet set = CandidateSet::Build1D(data, filtered.candidates, r.q,
                                               1, &scratch.candidates);
      b1 = Clock::now();
      SubregionTable::BuildInto(set, &scratch.table);
      s1 = Clock::now();
      scratch.candidates.Recycle(std::move(set));
      candidates.push_back(static_cast<double>(filtered.candidates.size()));
    }

    const Clock::time_point e0 = Clock::now();
    std::vector<ObjectId> core_ids;
    if (r.knn) {
      core_ids = exec.ExecuteKnn(r.q, kKnnK, opt.params, opt.integration).ids;
    } else {
      QueryAnswer answer = exec.Execute(r.q, opt, &scratch);
      const QueryStats& st = answer.stats;
      subregions.push_back(static_cast<double>(st.num_subregions));
      integrations.push_back(static_cast<double>(st.subregion_integrations));
      verify_us.push_back(st.verify_ms * 1e3);
      refine_us.push_back(st.refine_ms * 1e3);
      init_share.push_back(st.total_ms > 0 ? st.init_ms / st.total_ms : 0.0);
      verified_share.push_back(
          st.candidates > 0
              ? 1.0 - static_cast<double>(st.unknown_after_verification) /
                          static_cast<double>(st.candidates)
              : 1.0);
      core_ids = std::move(answer.ids);
    }
    const Clock::time_point e1 = Clock::now();
    const QueryResult executed = engine.Execute(ToQueryRequest(r));
    const Clock::time_point x1 = Clock::now();
    const QueryResult submitted = engine.Submit(ToQueryRequest(r)).get();
    const Clock::time_point u1 = Clock::now();
    const size_t hits_before = cache.GetCacheStats().hits;
    const Clock::time_point k0 = Clock::now();
    const QueryResult cached = cache.Submit(ToQueryRequest(r)).get();
    const Clock::time_point k1 = Clock::now();
    const bool hit = cache.GetCacheStats().hits > hits_before;
    const Clock::time_point c0 = Clock::now();

    const QueryRequest request = ToQueryRequest(r);
    net::WireWriter request_body;
    net::EncodeRequest(request, request_body);
    net::WireReader request_reader(request_body.bytes().data(),
                                   request_body.size());
    const QueryRequest decoded_request = net::DecodeRequest(request_reader);
    net::WireWriter result_body;
    net::EncodeResult(cached, result_body);
    net::WireReader result_reader(result_body.bytes().data(),
                                  result_body.size());
    const QueryResult decoded = net::DecodeResult(result_reader);
    const Clock::time_point c1 = Clock::now();
    request_bytes.push_back(static_cast<double>(request_body.size()));
    response_bytes.push_back(static_cast<double>(result_body.size()));

    std::vector<QueryRequest> one;
    one.push_back(ToQueryRequest(r));
    const std::vector<net::ServeResponse> served = client->Call(one);
    const Clock::time_point r1 = Clock::now();

    ctx.attempted += 1;
    const bool match =
        (item.extra || w.Matches(item.distinct, core_ids)) &&
        executed.ids == core_ids && submitted.ids == core_ids &&
        cached.ids == core_ids && decoded.ids == core_ids &&
        decoded_request.kind() == request.kind() && served.size() == 1 &&
        served[0].ok && served[0].result.ids == core_ids;
    if (!match) ++ctx.wrong;

    // Each rung's span has the next rung down as its child; the codec and
    // the in-process cache tier are both children of the loopback call. A
    // cache hit never reaches the rungs below the cache, so on a hit they
    // hang detached (parent -1) instead of under it.
    const int64_t rt = spans.Add(names.roundtrip, c1, r1, -1, i);
    spans.Add(names.codec, c0, c1, rt, i);
    const int64_t cs = spans.Add(names.cache_submit, k0, k1, rt, i);
    const int64_t su = spans.Add(names.submit, x1, u1, hit ? -1 : cs, i);
    const int64_t ex = spans.Add(names.execute, e1, x1, su, i);
    const int64_t co = spans.Add(names.core, e0, e1, ex, i);
    if (!r.knn) {
      spans.Add("spatial.filter", f0, f1, co, i);
      spans.Add("uncertain.candidate_build", f1, b1, co, i);
      spans.Add("core.subregion_build", b1, s1, co, i);
    }
  }

  MetricSet& m = *ctx.metrics;
  AddMedian(m, "spatial.filter_us", spans.DurationsUs("spatial.filter"), "us");
  m.Add("spatial.candidates_per_query", Mean(candidates), "count");
  AddMedian(m, "uncertain.candidate_build_us",
            spans.DurationsUs("uncertain.candidate_build"), "us");
  AddMedian(m, "core.subregion_build_us",
            spans.DurationsUs("core.subregion_build"), "us");
  AddMedian(m, "core.execute_us", spans.DurationsUs("core.execute"), "us");
  AddMedian(m, "core.verify_us", verify_us, "us");
  // Most queries finish in verification, so the median would read 0.
  m.Add("core.refine_us", Mean(refine_us), "us");
  AddMedian(m, "core.init_share", init_share, "ratio");
  m.Add("core.subregions_per_query", Mean(subregions), "count");
  m.Add("core.integrations_per_query", Mean(integrations), "count");
  m.Add("core.verified_share", Mean(verified_share), "ratio");
  AddMedian(m, "core.knn_execute_us", spans.DurationsUs("core.knn_execute"),
            "us");
  AddMedian(m, "engine.execute_us", spans.DurationsUs("engine.execute"), "us");
  AddMedian(m, "engine.submit_us", spans.DurationsUs("engine.submit"), "us");
  AddMedian(m, "engine.cache_submit_us",
            spans.DurationsUs("engine.cache_submit"), "us");
  AddMedian(m, "net.codec_us", spans.DurationsUs("net.codec"), "us");
  m.Add("net.request_bytes", Mean(request_bytes), "bytes");
  m.Add("net.response_bytes", Mean(response_bytes), "bytes");
  AddMedian(m, "net.roundtrip_us", spans.DurationsUs("net.roundtrip"), "us");
  // Self times of point requests: each rung minus the rungs under it.
  AddMedian(m, "self.core_verify_refine_us", spans.SelfTimesUs("core.execute"),
            "us");
  AddMedian(m, "self.engine_execute_us", spans.SelfTimesUs("engine.execute"),
            "us");
  AddMedian(m, "self.engine_submit_us", spans.SelfTimesUs("engine.submit"),
            "us");
  AddMedian(m, "self.engine_cache_us", spans.SelfTimesUs("engine.cache_submit"),
            "us");
  AddMedian(m, "self.net_us", spans.SelfTimesUs("net.roundtrip"), "us");
  client->Close();
}

void MeasureBatch(LayerContext& ctx) {
  const Workload& w = *ctx.workload;
  QueryEngine engine(w.dataset());
  std::vector<size_t> sample;
  for (size_t i = 0; sample.size() < kLadderSample; ++i) {
    const size_t d = w.StreamAt(i);
    if (!w.distinct(d).knn) sample.push_back(d);
  }
  std::vector<double> per_query_us;
  for (int trial = 0; trial < 3; ++trial) {
    for (size_t lo = 0; lo < sample.size(); lo += kBatchSize) {
      const size_t hi = std::min(sample.size(), lo + kBatchSize);
      std::vector<QueryRequest> batch;
      for (size_t j = lo; j < hi; ++j) {
        batch.push_back(w.MakeRequest(sample[j]));
      }
      const Clock::time_point t0 = Clock::now();
      const std::vector<QueryResult> results =
          engine.ExecuteBatch(std::move(batch));
      const Clock::time_point t1 = Clock::now();
      ctx.spans->Add("engine.execute_batch", t0, t1, -1, lo / kBatchSize);
      per_query_us.push_back(UsBetween(t0, t1) / static_cast<double>(hi - lo));
      for (size_t j = lo; j < hi; ++j) {
        ++ctx.attempted;
        if (!w.Matches(sample[j], results[j - lo].ids)) ++ctx.wrong;
      }
    }
  }
  AddMedian(*ctx.metrics, "engine.batch_us_per_query", per_query_us, "us");
}

void MeasureCache(LayerContext& ctx) {
  const Workload& w = *ctx.workload;
  MetricSet& m = *ctx.metrics;
  QueryEngine engine(w.dataset());

  // Miss then hit on the same key, on a cache large enough to keep all.
  CachingEngineOptions big;
  big.capacity = 1 << 16;
  CachingEngine probe(engine, big);
  std::vector<size_t> points;
  for (size_t d : DistinctFromStream(w, 0, 4 * kCacheProbe)) {
    if (!w.distinct(d).knn && points.size() < kCacheProbe) points.push_back(d);
  }
  const CacheStats before = probe.GetCacheStats();
  for (size_t j = 0; j < points.size(); ++j) {
    const Clock::time_point t0 = Clock::now();
    const QueryResult miss = probe.Execute(w.MakeRequest(points[j]));
    const Clock::time_point t1 = Clock::now();
    const QueryResult hit = probe.Execute(w.MakeRequest(points[j]));
    const Clock::time_point t2 = Clock::now();
    ctx.spans->Add("engine.cache_miss", t0, t1, -1, j);
    ctx.spans->Add("engine.cache_hit", t1, t2, -1, j);
    ctx.attempted += 2;
    if (!w.Matches(points[j], miss.ids)) ++ctx.wrong;
    if (!w.Matches(points[j], hit.ids)) ++ctx.wrong;
  }
  // Every second lookup must have been a hit; anything else is a cache
  // that answered from the backend when it should not have.
  const CacheStats after = probe.GetCacheStats();
  if (after.hits - before.hits != points.size()) ++ctx.wrong;
  AddMedian(m, "engine.cache_hit_us",
            ctx.spans->DurationsUs("engine.cache_hit"), "us");
  AddMedian(m, "engine.cache_miss_us",
            ctx.spans->DurationsUs("engine.cache_miss"), "us");

  // The stream's own hit rate and evictions at the workload's capacity,
  // measured after the first `capacity` requests filled the cache.
  CachingEngineOptions copt;
  copt.capacity = ctx.cache_capacity;
  CachingEngine cache(engine, copt);
  size_t pos = 0;
  auto replay = [&](size_t count) {
    for (size_t end = pos + count; pos < end; ++pos) {
      const size_t d = w.StreamAt(pos);
      ++ctx.attempted;
      if (!w.Matches(d, cache.Execute(w.MakeRequest(d)).ids)) ++ctx.wrong;
    }
  };
  replay(ctx.cache_capacity);
  const CacheStats s0 = cache.GetCacheStats();
  replay(kCacheReplay);
  const CacheStats s1 = cache.GetCacheStats();
  const double hits = static_cast<double>(s1.hits - s0.hits);
  const double lookups = hits + static_cast<double>(s1.misses - s0.misses) +
                         static_cast<double>(s1.rechecks - s0.rechecks);
  m.Add("engine.cache_hit_rate", lookups > 0 ? hits / lookups : 0.0, "ratio");
  m.Add("engine.cache_evictions_per_query",
        static_cast<double>(s1.evictions - s0.evictions) / kCacheReplay,
        "count");
}

double MeasureSubmitSchedule(LayerContext& ctx, double rate, double seconds) {
  const Workload& w = *ctx.workload;
  std::unique_ptr<Engine> top = std::make_unique<QueryEngine>(w.dataset());
  if (ctx.cache_capacity > 0) {
    CachingEngineOptions copt;
    copt.capacity = ctx.cache_capacity;
    top = MakeCachingEngine(std::move(top), copt);
    if (w.spec().zipf) {
      for (size_t d = 0; d < w.spec().distinct; ++d) {
        top->Execute(w.MakeRequest(d));
      }
    }
  }
  const size_t count = static_cast<size_t>(rate * seconds);
  // Start past the requests the warm-up and other measurements used.
  const size_t first = 2 * kLadderSample;

  struct Pending {
    size_t k;
    std::future<QueryResult> future;
  };
  std::mutex mu;
  std::vector<Pending> submitted;  // guarded by mu
  std::vector<double> lateness_ms(count), latency_ms(count);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(10);
  auto slot = [&](size_t k) {
    return start + std::chrono::nanoseconds(static_cast<int64_t>(
                       1e9 * static_cast<double>(k) / rate));
  };
  std::thread sender([&] {
    prctl(PR_SET_TIMERSLACK, 1UL);
    for (size_t k = 0; k < count; ++k) {
      std::this_thread::sleep_until(slot(k));
      lateness_ms[k] = MsBetween(slot(k), Clock::now());
      std::future<QueryResult> f =
          top->Submit(w.MakeRequest(w.StreamAt(first + k)));
      std::lock_guard<std::mutex> lock(mu);
      submitted.push_back({k, std::move(f)});
    }
  });
  // Polls every outstanding future so each completion is stamped when it
  // happens, not when an earlier, slower request finishes.
  std::vector<Pending> outstanding;
  for (size_t done = 0; done < count;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      for (Pending& p : submitted) outstanding.push_back(std::move(p));
      submitted.clear();
    }
    bool progressed = false;
    for (size_t j = 0; j < outstanding.size();) {
      Pending& p = outstanding[j];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      latency_ms[p.k] = MsBetween(slot(p.k), Clock::now());
      const size_t d = w.StreamAt(first + p.k);
      ++ctx.attempted;
      if (!w.Matches(d, p.future.get().ids)) ++ctx.wrong;
      outstanding[j] = std::move(outstanding.back());
      outstanding.pop_back();
      ++done;
      progressed = true;
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  sender.join();

  std::vector<double> point_ms;
  for (size_t k = 0; k < count; ++k) {
    if (!w.distinct(w.StreamAt(first + k)).knn) {
      point_ms.push_back(latency_ms[k]);
    }
  }
  const SubmitQueueStats qs = top->SubmitStats();
  ctx.metrics->Add("engine.submit_p90_ms", Percentile(point_ms, 0.9), "ms");
  ctx.metrics->Add("engine.coalesced_mean",
                   qs.batches > 0 ? static_cast<double>(qs.requests) /
                                        static_cast<double>(qs.batches)
                                  : 0.0,
                   "count");
  return Percentile(lateness_ms, 0.99);
}

double ProbeHeadOfLine(LayerContext& ctx, std::vector<double>* behind_ms,
                       std::vector<double>* knn_ms) {
  const Workload& w = *ctx.workload;
  const CpnnExecutor exec(w.dataset());
  const QueryOptions opt = RequestOptions();
  Rng rng(SubSeed(ctx.seed, 9));
  struct Sent {
    Request request;
    std::vector<ObjectId> expected;
    Clock::time_point at;
  };
  std::vector<Sent> sent;
  for (size_t round = 0; round < kProbeRounds; ++round) {
    const double q = rng.Uniform(0.0, 10000.0);
    sent.push_back({{true, q},
                    exec.ExecuteKnn(q, kKnnK, opt.params, opt.integration).ids,
                    {}});
    for (size_t j = 0; j < kProbePoints; ++j) {
      const size_t d = w.StreamAt(round * kProbePoints + j);
      if (w.distinct(d).knn) continue;
      sent.push_back(
          {w.distinct(d), exec.Execute(w.distinct(d).q, opt).ids, {}});
    }
  }

  std::unique_ptr<net::Client> client =
      net::Client::ConnectUnique("127.0.0.1", ctx.daemon_port);
  size_t reordered = 0, responses = 0;
  for (size_t lo = 0; lo < sent.size();) {
    size_t hi = lo + 1;
    while (hi < sent.size() && !sent[hi].request.knn) ++hi;
    for (size_t k = lo; k < hi; ++k) {
      sent[k].at = Clock::now();
      client->SendWithId(ToQueryRequest(sent[k].request), k + 1);
    }
    uint64_t max_id = 0;
    for (size_t n = lo; n < hi; ++n) {
      net::ServeResponse response = client->ReadNext();
      const Clock::time_point now = Clock::now();
      const size_t k = response.request_id - 1;
      ++responses;
      ++ctx.attempted;
      if (response.request_id < max_id) ++reordered;
      max_id = std::max(max_id, response.request_id);
      if (k < lo || k >= hi || !response.ok ||
          response.result.ids != sent[k].expected) {
        ++ctx.wrong;
        continue;
      }
      (sent[k].request.knn ? knn_ms : behind_ms)
          ->push_back(MsBetween(sent[k].at, now));
    }
    lo = hi;
  }
  client->Close();
  return responses > 0 ? static_cast<double>(reordered) / responses : 0.0;
}

}  // namespace perfbench
