#pragma once
// The benchmark's shared vocabulary: run options, the result every
// workload fills in, and the span log the traced runs record.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start,
                                          Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double>(end - start).count();
}

[[nodiscard]] inline Clock::time_point after(Clock::time_point start,
                                             double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Command-line options of one run (perfbench/README.md).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string bin_dir;    ///< Shipped binaries: rme_served, rme_analyze.
  std::string self_path;  ///< This executable, for cold-start children.
  std::string work_dir;   ///< Pid-scoped scratch directory (relative).
  unsigned jobs = 1;      ///< nproc, read at run time.
};

/// What a run reports: operations attempted and failed, whether every
/// output check passed, and the metrics.
class Result {
 public:
  /// Counts one operation; `ok` false marks it failed and the run
  /// incorrect, recording `why` (the first few reasons are printed).
  void op(bool ok, const std::string& why = {});
  /// A check that belongs to no single operation (a daemon's exit
  /// status, a set-up answer): failing it fails one operation.
  void check(bool ok, const std::string& why);
  /// Adds `n` operations that could not run (a daemon died with frames
  /// still planned); all of them count as failed.
  void lost(std::uint64_t n, const std::string& why);

  void metric(std::string name, double value, std::string unit);
  void note(std::string line);

  /// Puts the metrics in the declared (name, unit) order.  A declared
  /// metric the workload did not report is a layer its operations never
  /// reach: it reads 0.  A reported metric that is undeclared or has
  /// another unit fails the run.
  void order(const std::vector<std::pair<std::string, std::string>>& declared);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// Human-readable lines, then the one-line JSON result last.
  void print(std::ostream& os) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void reason(const std::string& why);

  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// In-memory span recorder for traced runs.  A span is a name, start,
/// end, parent span and operation id; nothing is written until the run
/// ends.  When disabled, begin/end cost one branch.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// `name` must outlive the log (string literals).
  std::uint32_t begin(const char* name, std::uint64_t op,
                      std::uint32_t parent = kNoParent);
  void end(std::uint32_t id);

  /// Durations [µs] of every closed span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;
  /// Summed duration [µs] per operation id of spans called `name`.
  [[nodiscard]] std::unordered_map<std::uint64_t, double> per_op_us(
      std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path, const std::string& host_json) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint64_t op;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t op,
        std::uint32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log.begin(name, op, parent)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Operations a timed phase must reach before it may stop: enough for
/// ten samples beyond the p95 every run prints.  The phase runs
/// --seconds, then on to this count (up to three times --seconds).
[[nodiscard]] std::size_t min_timed_ops();

/// Seconds of operations, checked but not timed, before each timed
/// phase.  The first seconds after the host idles run slow (idle vCPUs
/// wake late, caches are cold); the timed phase measures the steady
/// state.
constexpr double kWarmupSeconds = 2.0;

/// Reports the end-to-end metrics, which every workload shares:
/// ops_per_s and the latency percentiles from the busy time of each
/// timed operation, setup_s as the median cold start, peak_rss_mb.
/// `unit` names an operation in the human-readable summary.
void report_end_to_end(Result& result, const std::vector<double>& busy_s,
                       std::vector<double> setup_s, double peak_rss_mb,
                       const std::string& unit);

/// The workloads (perfbench/README.md explains each).  A traced run
/// records its spans into `spans`; an untraced run leaves it empty.
void run_serve(const Options& options, Result& result, SpanLog& spans);
void run_sweep(const Options& options, Result& result, SpanLog& spans);
void run_analyze(const Options& options, Result& result, SpanLog& spans);

/// One cold analyst job at jobs = nproc, for sweep_fit's set-up
/// measurement (the child side of `perfbench --one-job`).  Returns a
/// process exit code.
int run_one_sweep_job(std::uint64_t seed, const std::string& work_dir);

/// Shortest round-trip decimal form of a double (every digit kept).
[[nodiscard]] std::string number_text(double v);

}  // namespace perfbench
