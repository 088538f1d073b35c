// Tests for the typed request model (engine/request.h): the move-only
// CandidatesQuery contract — copies fail to compile, re-submission of a
// consumed payload is rejected on both engines — the derived-kind variant
// plumbing (kind()/options() across every payload), and the rejection of
// non-finite query points at engine entry.
#include "engine/request.h"

#include <functional>
#include <future>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "engine/caching_engine.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"

namespace pverify {
namespace {

// --- Compile-time contract: CandidatesQuery (and therefore QueryRequest,
// whose variant contains it) cannot be copied, only moved. ---------------
static_assert(!std::is_copy_constructible_v<CandidatesQuery>,
              "CandidatesQuery must not be copyable — copying would "
              "silently duplicate the consumable payload");
static_assert(!std::is_copy_assignable_v<CandidatesQuery>,
              "CandidatesQuery must not be copy-assignable");
static_assert(std::is_nothrow_move_constructible_v<CandidatesQuery>,
              "CandidatesQuery must be movable");
static_assert(!std::is_copy_constructible_v<QueryRequest>,
              "QueryRequest holds a move-only alternative, so the whole "
              "request is move-only");
static_assert(!std::is_copy_assignable_v<QueryRequest>,
              "QueryRequest must not be copy-assignable");
static_assert(std::is_move_constructible_v<QueryRequest>,
              "QueryRequest must be movable");
// The plain payload structs stay copyable — only the candidate set is
// consumable.
static_assert(std::is_copy_constructible_v<PointQuery> &&
                  std::is_copy_constructible_v<MinQuery> &&
                  std::is_copy_constructible_v<MaxQuery> &&
                  std::is_copy_constructible_v<KnnQuery> &&
                  std::is_copy_constructible_v<Point2DQuery>,
              "non-consumable payload structs are plain value types");

QueryOptions TestOptions() {
  QueryOptions opt;
  opt.params = {0.3, 0.01};
  opt.strategy = Strategy::kVR;
  return opt;
}

TEST(QueryRequestTest, KindIsDerivedFromTheEngagedPayload) {
  QueryOptions opt = TestOptions();
  EXPECT_EQ(QueryRequest(PointQuery{1.0, opt}).kind(), QueryKind::kPoint);
  EXPECT_EQ(QueryRequest(MinQuery{opt}).kind(), QueryKind::kMin);
  EXPECT_EQ(QueryRequest(MaxQuery{opt}).kind(), QueryKind::kMax);
  EXPECT_EQ(QueryRequest(KnnQuery{1.0, 3, opt}).kind(), QueryKind::kKnn);
  EXPECT_EQ(QueryRequest(CandidatesQuery(CandidateSet{}, opt)).kind(),
            QueryKind::kCandidates);
  EXPECT_EQ(QueryRequest(Point2DQuery{{1.0, 2.0}, opt}).kind(),
            QueryKind::kPoint2D);
  // Default request is a point query, like the old fat struct's default.
  EXPECT_EQ(QueryRequest{}.kind(), QueryKind::kPoint);
  EXPECT_EQ(ToString(QueryKind::kCandidates), "candidates");
}

TEST(QueryRequestTest, OptionsAccessorReachesEveryPayload) {
  QueryOptions opt = TestOptions();
  opt.report_probabilities = true;
  const std::vector<QueryRequest> requests = [&] {
    std::vector<QueryRequest> r;
    r.push_back(PointQuery{1.0, opt});
    r.push_back(MinQuery{opt});
    r.push_back(MaxQuery{opt});
    r.push_back(KnnQuery{1.0, 3, opt});
    r.push_back(CandidatesQuery(CandidateSet{}, opt));
    r.push_back(Point2DQuery{{1.0, 2.0}, opt});
    return r;
  }();
  for (const QueryRequest& request : requests) {
    EXPECT_TRUE(request.options().report_probabilities)
        << ToString(request.kind());
    EXPECT_EQ(request.options().params.threshold, 0.3)
        << ToString(request.kind());
  }
}

TEST(QueryRequestTest, MovingTransfersThePayloadExactlyOnce) {
  CandidatesQuery original(CandidateSet{}, TestOptions());
  EXPECT_TRUE(original.has_payload());

  CandidatesQuery moved = std::move(original);
  EXPECT_TRUE(moved.has_payload());
  EXPECT_FALSE(original.has_payload());

  (void)moved.TakeCandidates();
  EXPECT_FALSE(moved.has_payload());
  EXPECT_THROW(moved.TakeCandidates(), std::logic_error);
  EXPECT_THROW(original.TakeCandidates(), std::logic_error);
}

// Re-submission of a consumed CandidatesQuery is rejected by BOTH engine
// implementations, in every build type (the engine_test covers the
// unsharded serial/batch paths in more detail).
TEST(QueryRequestTest, BothEnginesRejectConsumedCandidatesRequests) {
  Dataset data = datagen::MakeUniformScatter(120, 100.0, 2.0, /*seed=*/5);
  QueryEngine unsharded(data, EngineOptions{1});
  ShardedQueryEngine sharded(data, ShardedEngineOptions{2, nullptr, 2});
  QueryOptions opt = TestOptions();
  const double q = 50.0;

  auto build_request = [&](const QueryEngine& engine) {
    FilterResult filtered = engine.executor().Filter(q);
    return QueryRequest(CandidatesQuery(
        CandidateSet::Build1D(engine.executor().dataset(),
                              filtered.candidates, q),
        opt));
  };

  for (Engine* engine : {static_cast<Engine*>(&unsharded),
                         static_cast<Engine*>(&sharded)}) {
    QueryRequest request = build_request(unsharded);
    QueryResult first = engine->Execute(std::move(request));
    EXPECT_GT(first.stats.candidates, 0u);
    EXPECT_THROW(engine->Execute(std::move(request)), std::logic_error);
  }
}

// A NaN or infinite query point is a caller error. Both engines reject it
// as the request enters them — on Execute, ExecuteBatch and Submit alike,
// and through the caching tier — the same way they reject P outside
// (0, 1], instead of answering empty (NaN) or failing an internal check
// deep in the distance fold (±inf). Each engine still answers afterwards.
TEST(QueryRequestTest, NonFiniteQueryPointsAreRejectedOnEveryEngine) {
  Dataset data = datagen::MakeUniformScatter(120, 100.0, 2.0, /*seed=*/5);
  datagen::Synthetic2DConfig config2d;
  config2d.count = 60;
  Dataset2D data2d = datagen::MakeSynthetic2D(config2d);
  QueryEngine unsharded(data, data2d, EngineOptions{2});
  ShardedQueryEngine sharded(data, data2d, ShardedEngineOptions{3, nullptr, 2});
  QueryEngine backend(data, data2d, EngineOptions{2});
  CachingEngine cached(backend);
  const QueryOptions opt = TestOptions();

  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    const std::vector<std::function<QueryRequest()>> requests = {
        [&] { return QueryRequest(PointQuery{bad, opt}); },
        [&] { return QueryRequest(KnnQuery{bad, 2, opt}); },
        [&] { return QueryRequest(Point2DQuery{{bad, 1.0}, opt}); },
        [&] { return QueryRequest(Point2DQuery{{1.0, bad}, opt}); },
        [&] { return QueryRequest(Knn2DQuery{{bad, 1.0}, 2, opt}); },
        [&] { return QueryRequest(Knn2DQuery{{1.0, bad}, 2, opt}); },
    };
    for (Engine* engine : {static_cast<Engine*>(&unsharded),
                           static_cast<Engine*>(&sharded),
                           static_cast<Engine*>(&cached)}) {
      for (size_t r = 0; r < requests.size(); ++r) {
        SCOPED_TRACE("value " + std::to_string(bad) + ", request " +
                     std::to_string(r));
        try {
          engine->Execute(requests[r]());
          ADD_FAILURE() << "Execute accepted a non-finite query point";
        } catch (const std::logic_error& e) {
          EXPECT_NE(std::string(e.what()).find("query point must be finite"),
                    std::string::npos)
              << e.what();
        }
        std::vector<QueryRequest> batch;
        batch.push_back(QueryRequest(PointQuery{50.0, opt}));
        batch.push_back(requests[r]());
        EXPECT_THROW(engine->ExecuteBatch(std::move(batch)), std::logic_error);
        std::future<QueryResult> future = engine->Submit(requests[r]());
        EXPECT_THROW(future.get(), std::logic_error);
      }
      EXPECT_EQ(engine->Execute(QueryRequest(PointQuery{50.0, opt})).ids,
                unsharded.Execute(QueryRequest(PointQuery{50.0, opt})).ids);
    }
  }
}

}  // namespace
}  // namespace pverify
