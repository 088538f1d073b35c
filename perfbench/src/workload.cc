#include "workload.h"

#include <algorithm>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "datagen/dataset_io.h"
#include "datagen/synthetic.h"
#include "util.h"

namespace perfbench {

using namespace pverify;

namespace {

// Fixed parameters of each workload. The reference rate of each serve
// workload is one of its ladder rungs.
const WorkloadSpec kWorkloads[] = {
    {"paper_batch", /*distinct=*/8192, /*knn_share=*/0.0, /*zipf=*/false,
     /*cache_capacity=*/0, /*reference_qps=*/4000.0, /*ladder=*/{}},
    {"hotspot_serve", 1024, 0.0, true, 4096, 16000.0,
     {4000.0, 8000.0, 16000.0, 32000.0}},
    {"mixed_serve", 8192, 0.05, false, 1024, 125.0, {125.0, 250.0, 500.0}},
};

// Zipf(s = 1) draws over ranks 0..n−1 by inverse-cdf lookup.
std::vector<uint32_t> ZipfOrder(size_t n, size_t count, uint64_t seed) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) cdf[r] = (sum += 1.0 / (r + 1.0));
  Rng rng(seed);
  std::vector<uint32_t> order(count);
  for (uint32_t& o : order) {
    const double u = rng.Uniform(0.0, sum);
    o = static_cast<uint32_t>(
        std::min<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                             cdf.begin(),
                         n - 1));
  }
  return order;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

QueryOptions RequestOptions() {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  return opt;
}

Workload::Workload(const WorkloadSpec& spec, uint64_t seed,
                   const std::string& dataset_path)
    : spec_(spec), dataset_path_(dataset_path) {
  // The Long-Beach-like dataset of the paper's §V-A: 53,144 uniform-pdf
  // intervals over a 10K-unit domain.
  datagen::SyntheticConfig config;
  config.seed = SubSeed(seed, 1);
  datagen::SaveDataset(datagen::MakeSynthetic(config), dataset_path);
  dataset_ = datagen::LoadDataset(dataset_path);

  Rng points(SubSeed(seed, 2));
  distinct_.resize(spec.distinct);
  for (Request& r : distinct_) {
    r.q = points.Uniform(config.domain_lo, config.domain_hi);
  }
  // An exact share of k-NN requests at seeded positions.
  std::vector<uint32_t> positions(spec.distinct);
  std::iota(positions.begin(), positions.end(), 0u);
  Rng shuffle(SubSeed(seed, 3));
  for (size_t i = positions.size(); i > 1; --i) {
    const size_t j = std::min(
        i - 1, static_cast<size_t>(shuffle.Uniform(0.0, 1.0) * i));
    std::swap(positions[i - 1], positions[j]);
  }
  const size_t knn_count =
      static_cast<size_t>(spec.knn_share * spec.distinct + 0.5);
  for (size_t i = 0; i < knn_count; ++i) distinct_[positions[i]].knn = true;

  if (spec.zipf) {
    order_ = ZipfOrder(spec.distinct, 1 << 16, SubSeed(seed, 4));
  } else {
    order_.resize(spec.distinct);
    std::iota(order_.begin(), order_.end(), 0u);
  }
}

QueryRequest ToQueryRequest(const Request& r) {
  if (r.knn) return KnnQuery{r.q, kKnnK, RequestOptions()};
  return PointQuery{r.q, RequestOptions()};
}

double Workload::ComputeReference(size_t threads) {
  const Clock::time_point start = Clock::now();
  const CpnnExecutor executor(dataset_);
  const QueryOptions opt = RequestOptions();
  reference_.assign(distinct_.size(), {});
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t d = t; d < distinct_.size(); d += threads) {
        const Request& r = distinct_[d];
        reference_[d] =
            r.knn ? executor.ExecuteKnn(r.q, kKnnK, opt.params,
                                        opt.integration)
                        .ids
                  : executor.Execute(r.q, opt).ids;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return MsBetween(start, Clock::now()) / 1000.0;
}

}  // namespace perfbench
