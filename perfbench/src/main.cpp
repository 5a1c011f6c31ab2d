// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --bin <dir with rme_served, rme_analyze>
//
// Run it through perfbench/run.py, which builds it first.  The last
// line of stdout is the JSON result; the lines before it name every
// metric with its unit, the host fingerprint and the sample counts.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones (perfbench/README.md).  Every metric is reported
// on every workload; a layer a workload's operations never reach
// reports 0.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "host.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

/// The declared metrics, (name, unit), as BENCHMARK.json lists them.
using Declared = std::vector<std::pair<std::string, std::string>>;

const Declared kEndToEnd = {
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const Declared kPerLayer = {
    {"serve.parse_us", "us"},
    {"serve.validate_us", "us"},
    {"serve.handle_us", "us"},
    {"serve.predict_us", "us"},
    {"serve.rank_us", "us"},
    {"serve.whatif_us", "us"},
    {"serve.build_us", "us"},
    {"serve.dump_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.ingest_us", "us"},
    {"serve.request_bytes", "bytes"},
    {"serve.response_bytes", "bytes"},
    {"serve.items_per_frame", "count"},
    {"core.evaluate_ns_per_item", "ns"},
    {"exec.serve_rows_speedup", "x"},
    {"exec.bootstrap_speedup", "x"},
    {"exec.analyze_speedup", "x"},
    {"artifact.capture_us", "us"},
    {"artifact.append_us", "us"},
    {"artifact.read_us", "us"},
    {"artifact.journal_bytes", "bytes"},
    {"power.measure_us", "us"},
    {"power.attempts", "count"},
    {"power.retried", "count"},
    {"power.mad_rejected", "count"},
    {"power.kept_degraded", "count"},
    {"fit.ols_us", "us"},
    {"fit.bootstrap_us", "us"},
    {"fit.bootstrap_failures", "count"},
    {"analyze.load_us", "us"},
    {"analyze.file_rules_us", "us"},
    {"analyze.project_rules_ms", "ms"},
    {"analyze.files", "count"},
    {"analyze.tokens", "count"},
    {"analyze.findings", "count"},
    {"obs.tracer_overhead_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload serve_small|sweep_fit|"
               "analyze_tree --seed N --seconds S --trace 0|1 --bin DIR\n";
  return 2;
}

/// The pid-scoped scratch directory, removed however the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
    std::filesystem::remove(std::filesystem::path(path_).parent_path(), ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool one_job = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--one-job") {
        one_job = true;
        continue;
      }
      if (i + 1 >= argc) return usage(flag + " needs a value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--bin") {
        o.bin_dir = value;
      } else if (flag == "--work") {
        o.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }

  if (one_job) {
    return perfbench::run_one_sweep_job(o.seed, o.work_dir);
  }

  const perfbench::Host host = perfbench::host_fingerprint();
  o.jobs = host.nproc;
  o.self_path = std::filesystem::absolute(argv[0]).string();
  if (!(o.seconds > 0.0)) return usage("--seconds must be > 0");
  if (o.bin_dir.empty()) return usage("--bin is required");

  using Runner = void (*)(const Options&, Result&, perfbench::SpanLog&);
  Runner runner = nullptr;
  if (o.workload == "serve_small") {
    runner = perfbench::run_serve;
  } else if (o.workload == "sweep_fit") {
    runner = perfbench::run_sweep;
  } else if (o.workload == "analyze_tree") {
    runner = perfbench::run_analyze;
  } else {
    return usage("unknown workload '" + o.workload + "'");
  }
  for (const char* tool : {"rme_served", "rme_analyze"}) {
    if (::access((o.bin_dir + "/" + tool).c_str(), X_OK) != 0) {
      return usage(o.bin_dir + "/" + tool + " is not built");
    }
  }
  if (::access("tests/golden/session_i7.rmea", R_OK) != 0) {
    return usage("run from the repository root");
  }

  o.work_dir = ".perfbench_run/" + std::to_string(::getpid());

  Result result;
  result.note("perfbench: workload=" + o.workload +
              " seed=" + std::to_string(o.seed) +
              " seconds=" + perfbench::number_text(o.seconds) +
              " trace=" + (o.trace ? "1" : "0") +
              " jobs=" + std::to_string(o.jobs));
  result.note("host: " + perfbench::to_json(host));
  perfbench::SpanLog spans(o.trace);
  try {
    const ScratchDir scratch(o.work_dir);
    runner(o, result, spans);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (o.trace) {
    const std::string path = ".perfbench_out/" + o.workload + ".trace.json";
    std::filesystem::create_directories(".perfbench_out");
    result.check(spans.write(path, perfbench::to_json(host)),
                 "cannot write " + path);
    result.note("spans: " + path);
  }
  result.order(o.trace ? kPerLayer : kEndToEnd);
  result.print(std::cout);
  return 0;
}
