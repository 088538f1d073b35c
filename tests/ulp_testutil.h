// ULP-distance equivalence helpers for the differential harness
// (tests/differential_testutil.h): its answers compare within `max_ulps`
// units in the last place, 0 meaning bit identity.
#ifndef PVERIFY_TESTS_ULP_TESTUTIL_H_
#define PVERIFY_TESTS_ULP_TESTUTIL_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace pverify {
namespace testutil {

/// Maps a double onto the integers so adjacent representable values are
/// adjacent keys (the standard sign-magnitude → offset-binary trick).
inline uint64_t UlpOrderedKey(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint64_t sign = uint64_t{1} << 63;
  return (bits & sign) != 0 ? ~bits : bits | sign;
}

/// Units-in-the-last-place between two doubles. 0 for equal values
/// (including +0 vs -0); the max uint64_t when either input is NaN, so a
/// NaN never slips through a tolerance check.
inline uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<uint64_t>::max();
  }
  if (a == b) return 0;
  const uint64_t ka = UlpOrderedKey(a);
  const uint64_t kb = UlpOrderedKey(b);
  return ka > kb ? ka - kb : kb - ka;
}

}  // namespace testutil
}  // namespace pverify

/// EXPECT that two doubles are within `max_ulps` units in the last place.
#define EXPECT_ULP_NEAR(val1, val2, max_ulps)                       \
  EXPECT_LE(::pverify::testutil::UlpDistance((val1), (val2)),       \
            static_cast<uint64_t>(max_ulps))                        \
      << #val1 " = " << (val1) << " vs " << #val2 " = " << (val2)

#endif  // PVERIFY_TESTS_ULP_TESTUTIL_H_
