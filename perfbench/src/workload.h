// The benchmark's three workloads: their fixed parameters, the seeded
// dataset and request stream, and the sequential reference answers every
// batched or served result is checked against.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "engine/request.h"
#include "uncertain/uncertain_object.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  size_t distinct = 0;         ///< distinct requests (the reference set)
  double knn_share = 0.0;      ///< share of distinct requests that are k-NN
  bool zipf = false;           ///< stream draws Zipf(s=1) repeats
  size_t cache_capacity = 0;   ///< daemon --cache (0 = no caching tier)
  double reference_qps = 0.0;  ///< rate the latency metrics are read at
  /// Rising open-loop rates against pverify_serve; empty for the
  /// in-process workload.
  std::vector<double> ladder;

  bool served() const { return !ladder.empty(); }
};

/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Every request: C-PNN with VR, P = 0.3, Δ = 0.01 (k = 2 for k-NN).
pverify::QueryOptions RequestOptions();
inline constexpr int kKnnK = 2;

struct Request {
  bool knn = false;
  double q = 0.0;
};

/// The engine request for `r`, with RequestOptions().
pverify::QueryRequest ToQueryRequest(const Request& r);

class Workload {
 public:
  /// Generates the dataset and request stream from `seed`. The dataset is
  /// written to `dataset_path` and read back, so the in-process reference
  /// and the daemon index exactly the same objects.
  Workload(const WorkloadSpec& spec, uint64_t seed,
           const std::string& dataset_path);

  const WorkloadSpec& spec() const { return spec_; }
  const pverify::Dataset& dataset() const { return dataset_; }
  const std::string& dataset_path() const { return dataset_path_; }

  /// Distinct request `d` (0 ≤ d < spec().distinct).
  const Request& distinct(size_t d) const { return distinct_[d]; }
  /// Which distinct request the stream sends at position `i` (any i ≥ 0;
  /// the stream is periodic).
  size_t StreamAt(size_t i) const { return order_[i % order_.size()]; }

  pverify::QueryRequest MakeRequest(size_t d) const {
    return ToQueryRequest(distinct_[d]);
  }

  /// Computes the reference answer of every distinct request with
  /// sequential CpnnExecutor calls (split across `threads` threads, each
  /// running the plain executor). Returns the wall time in seconds.
  double ComputeReference(size_t threads);
  /// True when `ids` equals the reference answer of distinct request d.
  bool Matches(size_t d, const std::vector<pverify::ObjectId>& ids) const {
    return ids == reference_[d];
  }

 private:
  WorkloadSpec spec_;
  std::string dataset_path_;
  pverify::Dataset dataset_;
  std::vector<Request> distinct_;
  std::vector<uint32_t> order_;
  std::vector<std::vector<pverify::ObjectId>> reference_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
