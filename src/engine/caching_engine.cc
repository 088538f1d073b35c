#include "engine/caching_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <variant>

#include "common/check.h"
#include "common/timer.h"

namespace pverify {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Bits of the quantization cell holding `v`: floor(v / quantum) collapses
/// every point in a cell onto one key; quantum == 0 keeps the exact bits so
/// distinct points never share a slot.
uint64_t QuantizedBits(double v, double quantum) {
  if (quantum <= 0.0) return DoubleBits(v);
  return DoubleBits(std::floor(v / quantum));
}

/// FNV-1a over a word sequence — the coarse-key hash. Collisions are safe:
/// the exact fingerprint check at hit time turns them into rechecks.
uint64_t HashWords(const uint64_t* words, size_t count) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < count; ++i) {
    for (int b = 0; b < 8; ++b) {
      h ^= (words[i] >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

size_t ApproxResultBytes(const QueryResult& result) {
  size_t bytes = sizeof(QueryResult);
  bytes += result.ids.capacity() * sizeof(ObjectId);
  bytes += result.candidate_probabilities.capacity() * sizeof(AnswerEntry);
  for (const StageStats& stage : result.stats.verification.stages) {
    bytes += sizeof(StageStats) + stage.name.capacity();
  }
  if (result.knn.has_value()) {
    bytes += result.knn->ids.capacity() * sizeof(ObjectId);
    bytes += result.knn->bounds.capacity() * sizeof(ProbabilityBound);
  }
  return bytes;
}

/// True when any reported probability bound sits within `band` of the
/// decision threshold — the entry then always rechecks instead of hitting.
bool IsBorderline(const QueryResult& result, double threshold, double band) {
  if (band <= 0.0) return false;
  for (const AnswerEntry& entry : result.candidate_probabilities) {
    if (std::abs(entry.bound.lower - threshold) <= band ||
        std::abs(entry.bound.upper - threshold) <= band) {
      return true;
    }
  }
  if (result.knn.has_value()) {
    for (const ProbabilityBound& bound : result.knn->bounds) {
      if (std::abs(bound.lower - threshold) <= band ||
          std::abs(bound.upper - threshold) <= band) {
        return true;
      }
    }
  }
  return false;
}

Engine& DerefBackend(const std::unique_ptr<Engine>& backend) {
  PV_CHECK_MSG(backend != nullptr, "CachingEngine backend must not be null");
  return *backend;
}

}  // namespace

bool CachingEngine::Fingerprint::operator==(const Fingerprint& other) const {
  return kind == other.kind && qx_bits == other.qx_bits &&
         qy_bits == other.qy_bits && k == other.k &&
         threshold_bits == other.threshold_bits &&
         tolerance_bits == other.tolerance_bits &&
         strategy == other.strategy && refine_order == other.refine_order &&
         gauss_points == other.gauss_points &&
         splits_per_subregion == other.splits_per_subregion &&
         mc_samples == other.mc_samples && mc_seed == other.mc_seed &&
         report_probabilities == other.report_probabilities;
}

CachingEngine::CachingEngine(Engine& backend, CachingEngineOptions options)
    : backend_(backend), options_(options) {
  PV_CHECK_MSG(options_.point_quantum >= 0.0 &&
                   options_.threshold_quantum >= 0.0 &&
                   options_.guard_band >= 0.0,
               "cache quanta and guard band must be non-negative");
  const size_t shards = options_.capacity == 0
                            ? 1
                            : std::max<size_t>(1, std::min(options_.num_shards,
                                                           options_.capacity));
  shard_capacity_ =
      options_.capacity == 0 ? 0 : (options_.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<CacheShard>());
  }
}

CachingEngine::CachingEngine(std::unique_ptr<Engine> backend,
                             CachingEngineOptions options)
    : CachingEngine(DerefBackend(backend), options) {
  owned_ = std::move(backend);
}

CachingEngine::~CachingEngine() {
  // An owned backend drains its queue (completing every forwarded miss) as
  // it is destroyed; a borrowed one may still be running some.
  owned_.reset();
  std::unique_lock<std::mutex> lock(forwarded_mu_);
  forwarded_done_.wait(lock, [this] { return forwarded_ == 0; });
}

bool CachingEngine::BuildCacheQuery(const QueryRequest& request,
                                    CacheQuery* out) const {
  if (options_.capacity == 0) return false;
  Fingerprint& fp = out->fp;
  fp.kind = request.kind();
  switch (fp.kind) {
    case QueryKind::kPoint:
      fp.qx_bits = DoubleBits(std::get<PointQuery>(request.query).q);
      break;
    case QueryKind::kMin:
    case QueryKind::kMax:
      break;  // no query point: the kind alone anchors the key
    case QueryKind::kKnn: {
      const KnnQuery& q = std::get<KnnQuery>(request.query);
      fp.qx_bits = DoubleBits(q.q);
      fp.k = q.k;
      break;
    }
    case QueryKind::kPoint2D: {
      const Point2DQuery& q = std::get<Point2DQuery>(request.query);
      fp.qx_bits = DoubleBits(q.q.x);
      fp.qy_bits = DoubleBits(q.q.y);
      break;
    }
    case QueryKind::kKnn2D: {
      const Knn2DQuery& q = std::get<Knn2DQuery>(request.query);
      fp.qx_bits = DoubleBits(q.q.x);
      fp.qy_bits = DoubleBits(q.q.y);
      fp.k = q.k;
      break;
    }
    case QueryKind::kCandidates:
      // The payload is consumed on execution and cannot key a memo.
      return false;
  }

  const QueryOptions& opt = request.options();
  fp.threshold_bits = DoubleBits(opt.params.threshold);
  fp.tolerance_bits = DoubleBits(opt.params.tolerance);
  fp.strategy = static_cast<int>(opt.strategy);
  fp.refine_order = static_cast<int>(opt.refine_order);
  fp.gauss_points = opt.integration.gauss_points;
  fp.splits_per_subregion = opt.integration.splits_per_subregion;
  fp.mc_samples = opt.monte_carlo.samples;
  fp.mc_seed = opt.monte_carlo.seed;
  fp.report_probabilities = opt.report_probabilities;

  // The coarse key: quantized point and bucketed threshold, exact bits for
  // everything else. Entries inside one cell replace each other.
  double qx = 0.0, qy = 0.0;
  switch (fp.kind) {
    case QueryKind::kPoint:
      qx = std::get<PointQuery>(request.query).q;
      break;
    case QueryKind::kKnn:
      qx = std::get<KnnQuery>(request.query).q;
      break;
    case QueryKind::kPoint2D:
      qx = std::get<Point2DQuery>(request.query).q.x;
      qy = std::get<Point2DQuery>(request.query).q.y;
      break;
    case QueryKind::kKnn2D:
      qx = std::get<Knn2DQuery>(request.query).q.x;
      qy = std::get<Knn2DQuery>(request.query).q.y;
      break;
    default:
      break;
  }
  const uint64_t words[] = {
      static_cast<uint64_t>(fp.kind),
      QuantizedBits(qx, options_.point_quantum),
      QuantizedBits(qy, options_.point_quantum),
      static_cast<uint64_t>(fp.k),
      QuantizedBits(opt.params.threshold, options_.threshold_quantum),
      fp.tolerance_bits,
      static_cast<uint64_t>(fp.strategy),
      static_cast<uint64_t>(fp.refine_order),
      static_cast<uint64_t>(fp.gauss_points),
      static_cast<uint64_t>(fp.splits_per_subregion),
      static_cast<uint64_t>(fp.mc_samples),
      fp.mc_seed,
      static_cast<uint64_t>(fp.report_probabilities),
  };
  out->key = HashWords(words, sizeof(words) / sizeof(words[0]));
  out->epoch = epoch_.load(std::memory_order_acquire);
  return true;
}

std::optional<QueryResult> CachingEngine::Lookup(const CacheQuery& cq) {
  CacheShard& shard = ShardFor(cq.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(cq.key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Entry& entry = *it->second;
  if (entry.epoch != cq.epoch || !(entry.fp == cq.fp) || entry.borderline) {
    // Stale epoch, same-cell-different-request, or a guard-band borderline:
    // recompute exactly on the backend (the fresh result refreshes the
    // entry via Insert).
    rechecks_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch
  QueryResult copy = entry.result;
  copy.stats.served_from_cache = true;
  return copy;
}

void CachingEngine::Insert(const CacheQuery& cq, const QueryResult& result) {
  if (epoch_.load(std::memory_order_acquire) != cq.epoch) {
    // The dataset moved on while this result was computed under the old
    // epoch — discard rather than resurrect pre-bump state.
    return;
  }
  Entry entry;
  entry.key = cq.key;
  entry.fp = cq.fp;
  entry.epoch = cq.epoch;
  entry.borderline = IsBorderline(result, BitsToDouble(cq.fp.threshold_bits),
                                  options_.guard_band);
  entry.result = result;
  entry.result.stats.served_from_cache = false;
  entry.bytes = sizeof(Entry) + ApproxResultBytes(entry.result);

  CacheShard& shard = ShardFor(cq.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(cq.key);
  if (it != shard.index.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  while (shard.lru.size() >= shard_capacity_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.bytes += entry.bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(cq.key, shard.lru.begin());
}

QueryResult CachingEngine::Execute(QueryRequest request) {
  CacheQuery cq;
  if (!BuildCacheQuery(request, &cq)) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    return backend_.Execute(std::move(request));
  }
  if (std::optional<QueryResult> cached = Lookup(cq)) {
    return std::move(*cached);
  }
  QueryResult result = backend_.Execute(std::move(request));
  Insert(cq, result);
  return result;
}

std::vector<QueryResult> CachingEngine::ExecuteBatch(
    std::vector<QueryRequest> requests, EngineStats* stats) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  const CacheStats before = CounterSnapshot();
  Timer wall;
  // Hits are answered from the cache; the misses go to the backend as one
  // sub-batch, keeping its pool fan-out.
  std::vector<QueryResult> results(requests.size());
  std::vector<size_t> miss_index;
  std::vector<CacheQuery> miss_query;
  std::vector<bool> miss_cacheable;
  std::vector<QueryRequest> miss_requests;
  for (size_t i = 0; i < requests.size(); ++i) {
    CacheQuery cq;
    const bool cacheable = BuildCacheQuery(requests[i], &cq);
    if (!cacheable) bypasses_.fetch_add(1, std::memory_order_relaxed);
    if (cacheable) {
      if (std::optional<QueryResult> cached = Lookup(cq)) {
        results[i] = std::move(*cached);
        continue;
      }
    }
    miss_index.push_back(i);
    miss_query.push_back(cq);
    miss_cacheable.push_back(cacheable);
    miss_requests.push_back(std::move(requests[i]));
  }
  std::vector<QueryResult> computed =
      backend_.ExecuteBatch(std::move(miss_requests));
  for (size_t m = 0; m < miss_index.size(); ++m) {
    if (miss_cacheable[m]) Insert(miss_query[m], computed[m]);
    results[miss_index[m]] = std::move(computed[m]);
  }
  if (stats != nullptr) {
    *stats = EngineStats{};
    stats->threads = backend_.num_threads();
    stats->wall_ms = wall.ElapsedMs();
    for (const QueryResult& r : results) {
      AccumulateBatchResult(r.stats, stats);
    }
    // Replace the flag-derived hit count with the exact per-batch delta
    // (identical for hits; the delta additionally carries misses, rechecks,
    // bypasses and evictions) plus the current gauges.
    const CacheStats after = GetCacheStats();
    stats->cache.hits = after.hits - before.hits;
    stats->cache.misses = after.misses - before.misses;
    stats->cache.rechecks = after.rechecks - before.rechecks;
    stats->cache.bypasses = after.bypasses - before.bypasses;
    stats->cache.evictions = after.evictions - before.evictions;
    stats->cache.invalidations = after.invalidations - before.invalidations;
    stats->cache.entries = after.entries;
    stats->cache.bytes = after.bytes;
  }
  return results;
}

void CachingEngine::Submit(QueryRequest request, Completion done) {
  CacheQuery cq;
  if (!BuildCacheQuery(request, &cq)) {
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    backend_.Submit(std::move(request), std::move(done));
    return;
  }
  if (std::optional<QueryResult> cached = Lookup(cq)) {
    done(std::move(*cached), nullptr);
    return;
  }
  // A miss (or recheck, already counted by Lookup) goes to the backend's
  // queue, which coalesces it into its own pool batches; each miss
  // memoizes and completes as soon as its own result exists, never behind
  // a slower one.
  {
    std::lock_guard<std::mutex> lock(forwarded_mu_);
    ++forwarded_;
  }
  backend_.Submit(
      std::move(request),
      [this, cq, done = std::move(done)](QueryResult result,
                                         std::exception_ptr error) {
        if (error == nullptr) Insert(cq, result);
        done(std::move(result), error);
        std::lock_guard<std::mutex> lock(forwarded_mu_);
        if (--forwarded_ == 0) forwarded_done_.notify_all();
      });
}

SubmitQueueStats CachingEngine::SubmitStats() const {
  return backend_.SubmitStats();
}

size_t CachingEngine::ScratchQueriesServed() const {
  return backend_.ScratchQueriesServed();
}

size_t CachingEngine::ScratchBytes() const { return backend_.ScratchBytes(); }

void CachingEngine::BumpEpoch() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  size_t dropped = 0;
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    dropped += shard->lru.size();
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

CacheStats CachingEngine::CounterSnapshot() const {
  CacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.rechecks = rechecks_.load(std::memory_order_relaxed);
  stats.bypasses = bypasses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats CachingEngine::GetCacheStats() const {
  CacheStats stats = CounterSnapshot();
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

std::unique_ptr<CachingEngine> MakeCachingEngine(
    std::unique_ptr<Engine> backend, CachingEngineOptions options) {
  return std::make_unique<CachingEngine>(std::move(backend), options);
}

}  // namespace pverify
