#include "engine/request.h"

#include <cmath>
#include <type_traits>

#include "common/check.h"

namespace pverify {
namespace {

bool IsFinite(double q) { return std::isfinite(q); }
bool IsFinite(const Point2& q) {
  return std::isfinite(q.x) && std::isfinite(q.y);
}

}  // namespace

std::string_view ToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint:
      return "point";
    case QueryKind::kMin:
      return "min";
    case QueryKind::kMax:
      return "max";
    case QueryKind::kKnn:
      return "knn";
    case QueryKind::kCandidates:
      return "candidates";
    case QueryKind::kPoint2D:
      return "point2d";
    case QueryKind::kKnn2D:
      return "knn2d";
  }
  return "?";
}

CandidatesQuery::CandidatesQuery(CandidateSet candidates,
                                 QueryOptions options)
    : options(std::move(options)),
      candidates_(std::make_unique<CandidateSet>(std::move(candidates))) {}

CandidateSet CandidatesQuery::TakeCandidates() {
  PV_CHECK_MSG(candidates_ != nullptr,
               "CandidatesQuery payload already consumed — a candidate-set "
               "request cannot be re-submitted");
  std::unique_ptr<CandidateSet> taken = std::move(candidates_);
  return std::move(*taken);
}

const QueryOptions& QueryRequest::options() const {
  return std::visit(
      [](const auto& payload) -> const QueryOptions& {
        return payload.options;
      },
      query);
}

void CheckFiniteQueryPoint(const QueryRequest& request) {
  std::visit(
      [](const auto& payload) {
        using T = std::decay_t<decltype(payload)>;
        if constexpr (std::is_same_v<T, PointQuery> ||
                      std::is_same_v<T, KnnQuery> ||
                      std::is_same_v<T, Point2DQuery> ||
                      std::is_same_v<T, Knn2DQuery>) {
          PV_CHECK_MSG(IsFinite(payload.q), "query point must be finite");
        }
      },
      request.query);
}

QueryResult ToQueryResult(QueryAnswer&& answer) {
  QueryResult result;
  result.ids = std::move(answer.ids);
  result.stats = std::move(answer.stats);
  result.candidate_probabilities =
      std::move(answer.candidate_probabilities);
  return result;
}

}  // namespace pverify
