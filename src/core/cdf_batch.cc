#include "core/cdf_batch.h"

namespace pverify {

void CdfAcrossCandidates(const CandidateSet& cands, double r, double* out) {
  const size_t n = cands.size();
  for (size_t k = 0; k < n; ++k) {
    out[k] = cands[k].dist.Cdf(r);
  }
}

double NnProductIntegrand(const CandidateSet& cands, size_t i, double r) {
  double v = cands[i].dist.Density(r);
  if (v == 0.0) return 0.0;
  for (size_t k = 0; k < cands.size(); ++k) {
    if (k == i) continue;
    v *= 1.0 - cands[k].dist.Cdf(r);
    if (v == 0.0) break;
  }
  return v;
}

}  // namespace pverify
