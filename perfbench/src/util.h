// Small helpers shared by pverify_perfbench: clocks, order statistics,
// seeds, the result line and /proc readers for the daemon.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double UsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; NaN when
/// the sample is empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Independent sub-seed `stream` of the run seed (SplitMix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Online CPUs this process may run on.
size_t Nproc();

/// Named metrics in insertion order, printed as the result line's
/// "metrics" object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// True when every value is finite; names the first offender otherwise.
  bool AllFinite(std::string* bad) const;
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// The single JSON line a run ends with.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
double PeakRssMb(pid_t pid);
/// Restarts this process's VmHWM from its current resident set, so a later
/// PeakRssMb(0) covers only what ran after the call. Returns false when the
/// kernel refuses.
bool ResetPeakRss();

/// CPU time (user + system) and thread count of a live process.
struct ProcCpu {
  double cpu_ms = 0.0;
  long threads = 0;
};
ProcCpu ReadProcCpu(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
