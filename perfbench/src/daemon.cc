#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <thread>

#include "util.h"

namespace perfbench {

namespace {

// Reads the port once the daemon has written the whole line.
bool ReadPortFile(const std::string& path, uint16_t* port) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (text.empty() || text.back() != '\n') return false;
  const unsigned long value = std::stoul(text);
  if (value == 0 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

}  // namespace

Daemon::Daemon(const std::string& binary, std::vector<std::string> args,
               const std::string& work_dir) {
  static int counter = 0;
  const std::string port_file =
      work_dir + "/port-" + std::to_string(++counter);
  const std::string log_file = port_file + ".log";
  unlink(port_file.c_str());
  args.insert(args.begin(), binary);
  args.push_back("--port-file=" + port_file);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const Clock::time_point start = Clock::now();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, even on a crash.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      close(fd);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  for (;;) {
    if (ReadPortFile(port_file, &port_)) break;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("pverify_serve exited during start-up; see " +
                               log_file);
    }
    if (MsBetween(start, Clock::now()) > 60000.0) {
      Stop();
      throw std::runtime_error("pverify_serve did not start within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  startup_s_ = MsBetween(start, Clock::now()) / 1000.0;
}

Daemon::~Daemon() { Stop(); }

void Daemon::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGINT);
  int status = 0;
  const Clock::time_point start = Clock::now();
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (MsBetween(start, Clock::now()) > 10000.0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

}  // namespace perfbench
