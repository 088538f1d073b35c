// Distance-cdf evaluation across a candidate set.
//
// The exact-integration paths (basic.cc, refine.cc, knn.cc) all evaluate
// Π_{k≠i} (1 − D_k(r)) inside their integrands; NnProductIntegrand is that
// integrand, and CdfAcrossCandidates gathers one D_k(r) per candidate into
// a contiguous row (the k-NN RS bound reads it that way).
#ifndef PVERIFY_CORE_CDF_BATCH_H_
#define PVERIFY_CORE_CDF_BATCH_H_

#include <cstddef>

#include "core/candidate.h"

namespace pverify {

/// Gathers out[k] = D_k(r) for every candidate, in candidate order.
void CdfAcrossCandidates(const CandidateSet& cands, double r, double* out);

/// The NN integrand d_i(r) · Π_{k≠i} (1 − D_k(r)) (paper Eq. 2), breaking
/// out of the product as soon as it reaches zero.
double NnProductIntegrand(const CandidateSet& cands, size_t i, double r);

}  // namespace pverify

#endif  // PVERIFY_CORE_CDF_BATCH_H_
