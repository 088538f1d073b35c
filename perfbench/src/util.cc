#include "util.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

bool MetricSet::AllFinite(std::string* bad) const {
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      *bad = m.name;
      return false;
    }
  }
  return true;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << metrics.Json() << "}";
  return out.str();
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

ProcCpu ReadProcCpu(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name, which may hold spaces.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("unreadable /proc stat for pid " +
                             std::to_string(pid));
  }
  std::istringstream fields(stat.substr(close + 2));
  std::vector<std::string> f;
  for (std::string s; fields >> s;) f.push_back(s);
  // f[0] is field 3 (state): utime = field 14, stime = 15, threads = 20.
  if (f.size() < 18) throw std::runtime_error("short /proc stat");
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcCpu cpu;
  cpu.cpu_ms = (std::stod(f[11]) + std::stod(f[12])) * 1000.0 / ticks;
  cpu.threads = std::stol(f[17]);
  return cpu;
}

}  // namespace perfbench
