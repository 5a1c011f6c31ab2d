#pragma once
// Child processes and the AF_UNIX client: spawn with redirected output,
// wait with a timeout (killing a hung child), and exchange one frame.

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// How a child ended.
struct Exit {
  bool exited = false;     ///< Reaped (normally or by signal).
  bool timed_out = false;  ///< Killed by wait_exit after the timeout.
  int status = 0;          ///< Raw wait status.
  /// ru_maxrss of the child [MB].  Linux carries the spawner's own peak
  /// into a child at exec, so this never reads below the benchmark's
  /// peak at spawn time; peak_rss_mb() has no such floor.
  double max_rss_mb = 0.0;

  [[nodiscard]] bool ok(int want_code = 0) const;
  [[nodiscard]] std::string describe() const;
};

/// A spawned child.  The destructor kills and reaps one still running,
/// so no exit path of the benchmark leaves a process behind.
class Child {
 public:
  /// Spawns `argv` with working directory `cwd` (empty: inherit) and
  /// stdout/stderr sent to the given files (empty: /dev/null).  Throws
  /// std::runtime_error when the spawn fails.
  Child(const std::vector<std::string>& argv, const std::string& cwd,
        const std::string& out_path, const std::string& err_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] bool running() const noexcept { return pid_ > 0; }

  /// Waits up to `timeout_s` for exit; on timeout kills (SIGKILL) and
  /// reaps.  Idempotent after the child has been reaped.
  Exit wait(double timeout_s);

 private:
  pid_t pid_ = -1;
  int pidfd_ = -1;
  Exit exit_;
};

/// Connects to an AF_UNIX stream socket, retrying until it accepts or
/// `timeout_s` passes.  Returns the fd, or -1.  Receives time out after
/// `io_timeout_s` so a hung daemon cannot stall the client forever.
[[nodiscard]] int connect_unix(const std::string& path, double timeout_s,
                               double io_timeout_s);

/// Writes the whole buffer; false when the peer is gone.
[[nodiscard]] bool write_all(int fd, const char* data, std::size_t size);

/// Reads one '\n'-terminated response line per call into a buffer that
/// keeps its capacity across calls, so a steady client loop does not
/// allocate or zero-fill.
class LineReader {
 public:
  /// False on EOF, error or the socket's receive timeout.
  [[nodiscard]] bool next(int fd);
  /// The line of the last successful next(), newline included.
  [[nodiscard]] std::string_view line() const noexcept {
    return {buffer_.data(), size_};
  }

 private:
  std::vector<char> buffer_;
  std::size_t size_ = 0;
};

/// Reads a whole (small) file; empty when missing.
[[nodiscard]] std::string slurp(const std::string& path);

/// Peak RSS [MB] of a live process's own address space since its exec
/// (VmHWM in /proc/<pid>/status; pid 0 is this process), or 0 when
/// unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

}  // namespace perfbench
