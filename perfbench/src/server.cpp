// The `mfti_serve` child process: spawn on the fleet directory with the
// benchmark's environment, discover its port, stop and reap it.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench.hpp"

extern char** environ;

namespace perfbench {

ServerProcess::ServerProcess(std::string binary, std::string fleet_dir,
                             std::string work_dir, bool trace)
    : binary_(std::move(binary)),
      fleet_dir_(std::move(fleet_dir)),
      work_dir_(std::move(work_dir)),
      trace_(trace) {}

bool ServerProcess::start() {
  stop();
  const std::string port_file = work_dir_ + "/server.port";
  const std::string log_file = work_dir_ + "/server.log";
  ::unlink(port_file.c_str());

  // Everything the child needs is built before fork: only async-signal-
  // safe calls run between fork and exec.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MFTI_", 5) != 0) env_strings.emplace_back(*e);
  }
  env_strings.push_back(std::string("MFTI_TRACE=") + (trace_ ? "1" : "0"));
  env_strings.push_back("MFTI_VERIFY=1");
  env_strings.push_back("MFTI_VERIFY_BAND_LO_HZ=1e6");
  env_strings.push_back("MFTI_VERIFY_BAND_HI_HZ=1e9");
  env_strings.push_back("MFTI_VERIFY_TOLERANCE=0.02");
  env_strings.push_back(std::string("MFTI_HTTP_ADMIN_TOKEN=") + kAdminToken);
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> arg_strings = {binary_,     "--dir",
                                          fleet_dir_,  "--port",
                                          "0",         "--port-file",
                                          port_file};
  std::vector<char*> argv;
  for (std::string& s : arg_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) return false;

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  // The daemon writes "<port>\n" once it listens.
  const double deadline = now_s() + 30.0;
  while (now_s() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::ifstream in(port_file);
    std::string text;
    if (in && std::getline(in, text) && !in.eof() && !text.empty()) {
      port_ = std::atoi(text.c_str());
      return port_ > 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  stop();
  return false;
}

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = now_s() + 10.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  port_ = 0;
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return -1.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace perfbench
