#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
  (void)pid;
  return -1;
#endif
}

}  // namespace

bool Exit::ok(int want_code) const {
  return exited && !timed_out && WIFEXITED(status) &&
         WEXITSTATUS(status) == want_code;
}

std::string Exit::describe() const {
  if (timed_out) return "killed after timeout";
  if (!exited) return "not reaped";
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

Child::Child(const std::vector<std::string>& argv, const std::string& cwd,
             const std::string& out_path, const std::string& err_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  const std::string out = out_path.empty() ? "/dev/null" : out_path;
  const std::string err = err_path.empty() ? "/dev/null" : err_path;
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (!cwd.empty()) posix_spawn_file_actions_addchdir_np(&actions, cwd.c_str());

  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
  pidfd_ = open_pidfd(pid_);
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    (void)wait(30.0);
  }
  if (pidfd_ >= 0) ::close(pidfd_);
}

Exit Child::wait(double timeout_s) {
  if (pid_ <= 0) return exit_;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
    if (got == pid_) break;
    if (got < 0 && errno != EINTR) {
      pid_ = -1;
      return exit_;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      exit_.timed_out = true;
      break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now).count() + 1;
    if (pidfd_ >= 0) {
      pollfd pfd{pidfd_, POLLIN, 0};
      ::poll(&pfd, 1, static_cast<int>(left));
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  exit_.exited = true;
  exit_.status = status;
  exit_.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  pid_ = -1;
  return exit_;
}

int connect_unix(const std::string& path, double timeout_s,
                 double io_timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  path.copy(addr.sun_path, path.size());
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(io_timeout_s);
      tv.tv_usec = static_cast<suseconds_t>(
          (io_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
      return fd;
    }
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineReader::next(int fd) {
  size_ = 0;
  for (;;) {
    if (buffer_.size() < size_ + 65536) buffer_.resize(size_ + 65536);
    const ssize_t n = ::read(fd, buffer_.data() + size_, buffer_.size() - size_);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    size_ += static_cast<std::size_t>(n);
    if (buffer_[size_ - 1] == '\n') return true;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double peak_rss_mb(pid_t pid) {
  const std::string status = slurp(
      "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
      "/status");
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB
}

}  // namespace perfbench
