// A pverify_serve child process: spawned with a --port-file, considered up
// once that file holds the bound port, stopped with SIGINT and reaped.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Daemon {
 public:
  /// Spawns `binary` with `args` plus --port-file and blocks until the
  /// port file appears. Throws std::runtime_error when the daemon exits or
  /// does not come up within 60 s.
  Daemon(const std::string& binary, std::vector<std::string> args,
         const std::string& work_dir);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  /// Seconds from spawn until the port file appeared (load + index build +
  /// listen).
  double startup_s() const { return startup_s_; }

  /// Sends SIGINT and waits for the process to end (idempotent).
  void Stop();

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  double startup_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
