#include "bench.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReasonsKept = 8;
constexpr std::size_t kWindows = 20;  ///< Windows per run (stats.hpp).
/// The printed tail: p95, the highest percentile that leaves ten
/// samples beyond it in every window of every workload.
constexpr unsigned kTailPct = 95;

}  // namespace

std::string number_text(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::size_t min_timed_ops() { return min_samples_for(kTailPct); }

void report_end_to_end(Result& result, const std::vector<double>& busy_s,
                       std::vector<double> setup_s, double peak_rss_mb,
                       const std::string& unit) {
  if (busy_s.empty() || setup_s.empty()) {
    result.check(false, "no timed " + unit + " completed");
    return;
  }
  std::vector<double> us;
  us.reserve(busy_s.size());
  for (const double s : busy_s) us.push_back(s * 1e6);
  const LatencySummary lat = summarize_latency(us, kTailPct, kWindows);
  const std::size_t starts = setup_s.size();
  result.metric("ops_per_s", windowed_rate(busy_s, kWindows), "1/s");
  result.metric("latency_p50_us", lat.p50, "us");
  result.metric("setup_s", percentile(std::move(setup_s), 50), "s");
  result.metric("peak_rss_mb", peak_rss_mb, "MB");
  result.note("samples: " + std::to_string(lat.samples) + " " + unit +
              " in " + std::to_string(lat.windows) + " windows, >= " +
              std::to_string(lat.beyond) + " beyond p" +
              std::to_string(kTailPct) + " in each (latency_p" +
              std::to_string(kTailPct) + "_us " + number_text(lat.tail) +
              ", not gated: see perfbench/README.md); " +
              std::to_string(starts) + " cold starts");
}

void Result::reason(const std::string& why) {
  correct_ = false;
  if (reasons_.size() < kReasonsKept) reasons_.push_back(why);
}

void Result::op(bool ok, const std::string& why) {
  attempted_ += 1;
  if (!ok) {
    failed_ += 1;
    reason(why);
  }
}

void Result::check(bool ok, const std::string& why) {
  if (ok) return;
  failed_ += 1;
  if (attempted_ < failed_) attempted_ = failed_;
  reason(why);
}

void Result::lost(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  attempted_ += n;
  failed_ += n;
  reason(why);
}

void Result::metric(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) {
    reason("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::note(std::string line) { notes_.push_back(std::move(line)); }

void Result::order(
    const std::vector<std::pair<std::string, std::string>>& declared) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : declared) {
    Metric m{name, 0.0, unit};
    for (const Metric& got : metrics_) {
      if (got.name == name) m.value = got.value;
    }
    ordered.push_back(std::move(m));
  }
  for (const Metric& got : metrics_) {
    bool known = false;
    for (const auto& [name, unit] : declared) {
      if (got.name == name) known = unit == got.unit;
    }
    if (!known) reason("metric " + got.name + " is undeclared or mis-united");
  }
  metrics_ = std::move(ordered);
}

void Result::print(std::ostream& os) const {
  for (const std::string& line : notes_) os << line << "\n";
  for (const Metric& m : metrics_) {
    os << "  " << m.name;
    for (std::size_t i = m.name.size(); i < 28; ++i) os << ' ';
    os << number_text(m.value) << " " << m.unit << "\n";
  }
  os << "operations: attempted=" << attempted_ << " failed=" << failed_
     << " (share " << number_text(failure_share(failed_, attempted_))
     << ")\n";
  for (const std::string& why : reasons_) os << "check failed: " << why << "\n";

  os << "{\"correct\":" << (correct_ ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
       << number_text(m.value) << ",\"unit\":\"" << m.unit << "\"}";
  }
  os << "}}" << std::endl;
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t SpanLog::begin(const char* name, std::uint64_t op,
                             std::uint32_t parent) {
  if (!enabled_) return kNoParent;
  spans_.push_back(Span{name, now_ns(), -1, parent, op});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::end(std::uint32_t id) {
  if (id == kNoParent) return;
  spans_[id].end_ns = now_ns();
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::unordered_map<std::uint64_t, double> SpanLog::per_op_us(
    std::string_view name) const {
  std::unordered_map<std::uint64_t, double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return out;
}

bool SpanLog::write(const std::string& path,
                    const std::string& host_json) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"host\":" << host_json << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << number_text(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":"
        << number_text(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
        << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return out.good();
}

}  // namespace perfbench
