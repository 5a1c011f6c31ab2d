// analyze_tree: the shipped `rme_analyze --jobs=<nproc> --format=json`
// over a corpus generated from the workload seed (corpus.hpp).  One
// operation is one cold analyzer process over the whole corpus.  Set-up
// checks the corpus's planted findings against a --jobs=1 reference
// run; every timed run must reproduce that reference byte for byte.

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "process.hpp"
#include "stats.hpp"

#include "rme/analyze/analyzer.hpp"
#include "rme/analyze/rules.hpp"
#include "rme/analyze/source.hpp"
#include "rme/artifact/json.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr double kTimeout = 60.0;   ///< One analyzer process [s].
constexpr int kColdStarts = 31;
const std::vector<std::string> kTrees = {"src", "tools", "bench", "tests"};

std::vector<std::string> analyzer_argv(const Options& o, unsigned jobs,
                                       bool metrics) {
  std::vector<std::string> argv = {
      fs::absolute(o.bin_dir + "/rme_analyze").string(),
      "--jobs=" + std::to_string(jobs), "--format=json"};
  if (metrics) argv.push_back("--metrics");
  argv.insert(argv.end(), kTrees.begin(), kTrees.end());
  return argv;
}

/// Runs one analyzer process in `root`; returns busy seconds.
double analyze_once(const std::vector<std::string>& argv,
                    const std::string& root, const std::string& out,
                    Exit& exit) {
  const Clock::time_point t0 = Clock::now();
  Child child(argv, root, fs::absolute(out).string(), "");
  exit = child.wait(kTimeout);
  return seconds_since(t0);
}

/// The (rule, file, line) set of an rme_analyze JSON report; an empty
/// optional-like flag on parse failure.
bool findings_of(const std::string& json, std::vector<Planted>& out) {
  try {
    const rme::artifact::Json doc = rme::artifact::Json::parse(json);
    for (const auto& f : doc.at("findings").items()) {
      out.push_back(Planted{f.at("rule").as_string(), f.at("file").as_string(),
                            static_cast<std::size_t>(f.at("line").as_count())});
    }
  } catch (const std::exception&) {
    return false;
  }
  std::sort(out.begin(), out.end());
  return true;
}

/// Writes the corpus and checks the reference run: exactly the planted
/// findings.  Returns the reference report bytes ("" on failure).
std::string set_up(const Options& o, const Corpus& corpus,
                   const std::string& root, Result& result) {
  result.check(write_corpus(corpus, root), "cannot write the corpus");
  Exit exit;
  const std::string out = o.work_dir + "/reference.json";
  (void)analyze_once(analyzer_argv(o, 1, false), root, out, exit);
  result.check(exit.ok(1), "reference analysis: " + exit.describe());
  const std::string reference = slurp(out);
  std::vector<Planted> found;
  result.check(findings_of(reference, found), "reference report does not parse");
  if (found != corpus.expected) {
    std::vector<Planted> extra, missing;
    std::set_difference(found.begin(), found.end(), corpus.expected.begin(),
                        corpus.expected.end(), std::back_inserter(extra));
    std::set_difference(corpus.expected.begin(), corpus.expected.end(),
                        found.begin(), found.end(), std::back_inserter(missing));
    const auto first = [](const std::vector<Planted>& v) {
      return v.empty() ? std::string("none")
                       : v[0].rule + " " + v[0].file + ":" +
                             std::to_string(v[0].line);
    };
    result.check(false, "analyzer findings differ from the planted set: " +
                            std::to_string(extra.size()) + " unplanted (" +
                            first(extra) + "), " +
                            std::to_string(missing.size()) + " missed (" +
                            first(missing) + ")");
    return {};
  }
  return reference;
}

void untraced(const Options& o, Result& result) {
  const Corpus corpus = make_corpus(o.seed);
  const std::string root = o.work_dir + "/corpus";
  const std::string reference = set_up(o, corpus, root, result);
  if (reference.empty()) return;

  // Set-up time: the analyzer's cold start on the smallest input, on
  // both sides of the timed phase.
  std::vector<double> starts;
  std::vector<std::string> tiny = analyzer_argv(o, o.jobs, false);
  tiny.resize(3);
  tiny.push_back("src/rme/rme.hpp");
  const auto cold_starts = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Exit exit;
      starts.push_back(analyze_once(tiny, root, o.work_dir + "/tiny.json", exit));
      result.check(exit.ok(0), "cold start: " + exit.describe());
    }
  };
  cold_starts(kColdStarts / 2);

  const std::vector<std::string> argv = analyzer_argv(o, o.jobs, false);
  const std::string out = o.work_dir + "/run.json";
  std::vector<double> busy, rss;
  std::size_t runs = 0;
  const auto analyze = [&] {
    Exit exit;
    const double seconds = analyze_once(argv, root, out, exit);
    const bool same = exit.ok(1) && slurp(out) == reference;
    result.op(same, "analysis " + std::to_string(++runs) + ": " +
                        (exit.ok(1) ? "report differs from --jobs=1"
                                    : exit.describe()));
    return std::pair{seconds, exit.max_rss_mb};
  };
  for (const Clock::time_point warm = after(Clock::now(), kWarmupSeconds);
       Clock::now() < warm;) {
    (void)analyze();
  }
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = after(t0, o.seconds);
  const Clock::time_point hard = after(t0, 3 * o.seconds);
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now >= hard || (now >= deadline && busy.size() >= min_timed_ops())) {
      break;
    }
    const auto [seconds, rss_mb] = analyze();
    busy.push_back(seconds);
    rss.push_back(rss_mb);
  }
  cold_starts(kColdStarts - kColdStarts / 2);
  // ru_maxrss cannot read below the benchmark's own peak at spawn time
  // (process.hpp), so that floor is printed next to it.
  result.note("rme_analyze peak RSS floor (this process's VmHWM): " +
              number_text(peak_rss_mb()) + " MB");
  report_end_to_end(result, busy, std::move(starts), median_of(rss),
                    "analyses");
}

/// The in-process cost split of one tree: per-file load and per-file
/// rules, then the whole analyze_project pipeline at jobs 1 and at
/// jobs nproc.  Medians over the passes run.
struct Split {
  double load_us = 0.0;        ///< SourceFile::load per file.
  double file_rules_us = 0.0;  ///< run_rules per file.
  double load_ms = 0.0;        ///< Σ load per pass.
  double file_rules_ms = 0.0;  ///< Σ run_rules per pass.
  double project_ms = 0.0;     ///< Derived: jobs-1 pipeline − Σ load − Σ rules.
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  rme::analyze::ProjectReport report;  ///< Of the first pass.
};

/// Runs passes over `paths` (at least `min_passes`, then on until
/// `until`), recording spans into `spans`.
Split measure_split(const std::vector<fs::path>& paths, unsigned jobs,
                    SpanLog& spans, int min_passes, Clock::time_point until) {
  std::vector<std::string> errors;
  const std::vector<fs::path> files = rme::analyze::collect_files(paths, errors);
  const auto& rules = rme::analyze::all_rules();
  rme::analyze::ProjectOptions serial;
  serial.jobs = 1;
  rme::analyze::ProjectOptions parallel;
  parallel.jobs = jobs;
  Split split;
  for (std::uint64_t pass = 0;
       pass < static_cast<std::uint64_t>(min_passes) || Clock::now() < until;
       ++pass) {
    const Scope top(spans, "analyze.pass", pass);
    for (const fs::path& file : files) {
      const rme::analyze::SourceFile source = [&] {
        const Scope s(spans, "analyze.load", pass, top.id());
        return rme::analyze::SourceFile::load(file);
      }();
      const Scope s(spans, "analyze.file_rules", pass, top.id());
      (void)rme::analyze::run_rules(source, rules);
    }
    rme::analyze::ProjectReport report;
    {
      const Scope s(spans, "analyze.project.jobs1", pass, top.id());
      report = rme::analyze::analyze_project(paths, serial);
    }
    {
      const Scope s(spans, "analyze.project.jobsN", pass, top.id());
      (void)rme::analyze::analyze_project(paths, parallel);
    }
    if (pass == 0) split.report = std::move(report);
  }

  // The jobs-1 pipeline net of its per-file loads and rules: fact
  // extraction, index, include and call graphs, project rules.
  const auto loads = spans.per_op_us("analyze.load");
  const auto per_file = spans.per_op_us("analyze.file_rules");
  std::vector<double> load_ms, file_rules_ms, project_ms;
  for (const auto& [pass, whole] : spans.per_op_us("analyze.project.jobs1")) {
    load_ms.push_back(loads.at(pass) / 1e3);
    file_rules_ms.push_back(per_file.at(pass) / 1e3);
    project_ms.push_back((whole - loads.at(pass) - per_file.at(pass)) / 1e3);
  }
  split.load_us = median_of(spans.durations_us("analyze.load"));
  split.file_rules_us = median_of(spans.durations_us("analyze.file_rules"));
  split.load_ms = median_of(load_ms);
  split.file_rules_ms = median_of(file_rules_ms);
  split.project_ms = median_of(project_ms);
  split.serial_ms = median_of(spans.durations_us("analyze.project.jobs1")) / 1e3;
  split.parallel_ms = median_of(spans.durations_us("analyze.project.jobsN")) / 1e3;
  return split;
}

std::string describe(const Split& s) {
  return "files=" + std::to_string(s.report.files_scanned) +
         " tokens=" + std::to_string(s.report.tokens_scanned) +
         " per pass [ms]: load=" + number_text(s.load_ms) +
         " file_rules=" + number_text(s.file_rules_ms) +
         " project_rules=" + number_text(s.project_ms) +
         " analyze_project_ms=" + number_text(s.serial_ms) + " (jobs 1), " +
         number_text(s.parallel_ms) + " (jobs nproc)";
}

void traced(const Options& o, Result& result, SpanLog& spans) {
  const Corpus corpus = make_corpus(o.seed);
  const std::string root = o.work_dir + "/corpus";
  const std::string reference = set_up(o, corpus, root, result);
  if (reference.empty()) return;
  const Clock::time_point start = Clock::now();

  // In-process passes over the corpus, then a few over this checkout's
  // own tree, so every traced run shows how far the corpus's cost split
  // is from the real tree's (a note, not a metric: the tree changes).
  std::vector<fs::path> paths;
  for (const std::string& t : kTrees) paths.push_back(fs::path(root) / t);
  const Split split =
      measure_split(paths, o.jobs, spans, 3, after(start, 0.4 * o.seconds));
  SpanLog tree_spans(true);
  const Split tree = measure_split({kTrees.begin(), kTrees.end()}, o.jobs,
                                   tree_spans, 3, Clock::now());
  result.note("analyze split, corpus: " + describe(split));
  result.note("analyze split, tree:   " + describe(tree));

  // Spawned analyses, rotating spans on / spans off / `--metrics` with
  // spans off; each overhead compares its mode against mode 1.
  std::vector<double> on, off, metered;
  const std::string out = o.work_dir + "/run.json";
  for (std::uint64_t op = 0;
       op < 9 || Clock::now() < after(start, o.seconds); ++op) {
    const int mode = static_cast<int>(op % 3);
    spans.set_enabled(mode == 0);
    Exit exit;
    double busy = 0.0;
    {
      const Scope s(spans, "analyze.process", op);
      busy = analyze_once(analyzer_argv(o, o.jobs, mode == 2), root, out, exit);
    }
    spans.set_enabled(true);
    (mode == 0 ? on : mode == 1 ? off : metered).push_back(1.0 / busy);
    result.op(exit.ok(1) && slurp(out) == reference,
              "traced analysis: " + exit.describe());
  }

  std::vector<Planted> found;
  for (const auto& f : split.report.findings) {
    std::string file = f.file.substr(root.size() + 1);
    found.push_back(Planted{f.rule, file, f.line});
  }
  std::sort(found.begin(), found.end());
  result.check(found == corpus.expected,
               "in-process findings differ from the planted set");

  const rme::analyze::ProjectReport& first = split.report;
  const double rate_on = median_of(on);
  const double rate_off = median_of(off);
  result.metric("exec.analyze_speedup", split.serial_ms / split.parallel_ms, "x");
  result.metric("analyze.load_us", split.load_us, "us");
  result.metric("analyze.file_rules_us", split.file_rules_us, "us");
  result.metric("analyze.project_rules_ms", split.project_ms, "ms");
  result.metric("analyze.files", static_cast<double>(first.files_scanned), "count");
  result.metric("analyze.tokens", static_cast<double>(first.tokens_scanned),
                "count");
  result.metric("analyze.findings", static_cast<double>(first.findings.size()),
                "count");
  result.metric("obs.tracer_overhead_pct",
                100.0 * (rate_off - median_of(metered)) / rate_off, "%");
  result.metric("trace.overhead_pct", 100.0 * (rate_off - rate_on) / rate_off,
                "%");
}

}  // namespace

void run_analyze(const Options& o, Result& result, SpanLog& spans) {
  if (o.trace) {
    traced(o, result, spans);
  } else {
    untraced(o, result);
  }
}

}  // namespace perfbench
