// sweep_fit: the analyst job, in-process, one operation = both
// platforms through capture (artifact::run_capture_sweep: simulate,
// measure under a mild seeded fault schedule with QC, journal, eq. (9)
// fit), read-back (artifact::read_artifact) and the 200-resample
// bootstrap (fit::bootstrap_coefficient_cis at jobs = nproc).  Seeds
// derive from (workload seed, operation index), so no operation repeats
// another's inputs.  A degraded but complete session is a valid result.

#include <filesystem>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench.hpp"
#include "host.hpp"
#include "process.hpp"
#include "stats.hpp"

#include "rme/artifact/artifact.hpp"
#include "rme/artifact/replay.hpp"
#include "rme/fit/bootstrap.hpp"
#include "rme/obs/clock.hpp"
#include "rme/obs/trace.hpp"

namespace perfbench {

namespace {

namespace art = rme::artifact;

constexpr const char* kPlatforms[] = {"i7", "gtx580"};
constexpr std::size_t kReps = 12;
constexpr double kDropout = 0.02;  ///< Mild: some retries, few degraded.
constexpr double kSpike = 0.005;
constexpr std::size_t kResamples = 200;
constexpr int kColdJobs = 15;       ///< Cold-process jobs per run.
constexpr std::size_t kCountedJobs = 6;  ///< Jobs whose counts are reported.
constexpr double kChildTimeout = 60.0;

/// Discards what the capture sweep renders (its report is part of the
/// job's work; where it lands is not).
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

std::uint64_t seed53(std::uint64_t v) { return v >> 11; }  // Exact as JSON.

art::ArtifactHeader header_for(const char* platform, std::uint64_t seed,
                               std::uint64_t job) {
  art::ArtifactHeader h;
  h.platform = platform;
  h.repetitions = kReps;
  h.qc = true;
  h.dropout = kDropout;
  h.spike = kSpike;
  h.noise_seed = seed53(derive(seed, 4 * job + 0));
  h.fault_seed = seed53(derive(seed, 4 * job + 1));
  return h;
}

rme::fit::EnergyFitOptions fit_options() {
  rme::fit::EnergyFitOptions options;
  options.relative_error = true;  // What the capture sweep fits with.
  return options;
}

/// One platform's share of a job, kept for the checks and the counts.
struct PlatformRun {
  int code = 0;
  art::ReadResult read;
  rme::fit::CoefficientCis cis;
  std::uint64_t journal_bytes = 0;
};

/// Spans for the traced run; op id of platform p of job j is 2j + p.
struct Tracing {
  SpanLog& spans;
  rme::obs::Tracer* obs = nullptr;  ///< `--metrics`-style tracer, or null.
  std::uint32_t parent = SpanLog::kNoParent;  ///< The job's span.
};

PlatformRun run_platform(const std::string& work, const char* platform,
                         std::uint64_t seed, std::uint64_t job,
                         unsigned jobs, Tracing t, std::uint64_t op) {
  static NullBuffer null_buffer;
  std::ostream sink(&null_buffer);
  PlatformRun run;
  art::SweepOptions options;
  options.artifact_path = work + "/" + platform + ".rmea";
  options.tracer = t.obs;
  {
    const Scope s(t.spans, "artifact.capture", op, t.parent);
    run.code = art::run_capture_sweep(header_for(platform, seed, job), options,
                                      sink, sink);
  }
  {
    const Scope s(t.spans, "artifact.read", op, t.parent);
    run.read = art::read_artifact(options.artifact_path);
  }
  {
    const Scope s(t.spans, "fit.bootstrap", op, t.parent);
    run.cis = rme::fit::bootstrap_coefficient_cis(
        art::samples_from_steps(run.read.steps), fit_options(), kResamples,
        derive(seed, 4 * job + 2), 0.95, jobs, t.obs);
  }
  std::error_code ec;
  run.journal_bytes = std::filesystem::file_size(options.artifact_path, ec);
  return run;
}

bool brackets(const rme::fit::BootstrapEstimate& b, double point) {
  return b.ci_lo <= point && point <= b.ci_hi;
}

/// The output checks of one platform run; "" when all hold.
std::string check_run(const char* platform, const PlatformRun& run) {
  const std::string where = std::string(platform) + ": ";
  if (run.code != 0 && run.code != 1) {
    return where + "capture exit code " + std::to_string(run.code);
  }
  const art::ReadResult& r = run.read;
  if (r.status != art::ScanStatus::kOk || !r.has_header || !r.has_fit ||
      r.steps.size() != art::platform_sweep_kernels(platform).size()) {
    return where + "journal does not read back complete: " + r.message;
  }
  const std::vector<rme::fit::EnergySample> samples =
      art::samples_from_steps(r.steps);
  const art::FitRecord refit = art::make_fit_record(
      rme::fit::fit_energy_coefficients(samples, fit_options()),
      samples.size());
  if (!same_bits(refit.eps_single, r.fit.eps_single) ||
      !same_bits(refit.delta_double, r.fit.delta_double) ||
      !same_bits(refit.eps_mem, r.fit.eps_mem) ||
      !same_bits(refit.const_power, r.fit.const_power) ||
      !same_bits(refit.r_squared, r.fit.r_squared) ||
      refit.samples != r.fit.samples) {
    return where + "refit of the read steps differs from the recorded fit";
  }
  const rme::fit::CoefficientCis& c = run.cis;
  if (!brackets(c.eps_single, r.fit.eps_single) ||
      !brackets(c.eps_double, r.fit.eps_single + r.fit.delta_double) ||
      !brackets(c.eps_mem, r.fit.eps_mem) ||
      !brackets(c.const_power, r.fit.const_power)) {
    return where + "a bootstrap interval does not bracket its estimate";
  }
  return {};
}

/// One analyst job: its busy time and both platforms' outputs.
struct JobRun {
  double busy_s = 0.0;
  PlatformRun runs[2];
};

/// Runs job `job` and checks it.
JobRun run_job(const Options& o, std::uint64_t job, Tracing t, Result& result) {
  JobRun run;
  const Clock::time_point t0 = Clock::now();
  {
    const Scope top(t.spans, "sweep.job", job);
    t.parent = top.id();
    for (int p = 0; p < 2; ++p) {
      run.runs[p] = run_platform(o.work_dir, kPlatforms[p], o.seed, job, o.jobs,
                                 t, 2 * job + static_cast<std::uint64_t>(p));
    }
  }
  run.busy_s = seconds_since(t0);
  std::string why = check_run(kPlatforms[0], run.runs[0]);
  if (why.empty()) why = check_run(kPlatforms[1], run.runs[1]);
  result.op(why.empty(), "job " + std::to_string(job) + ": " + why);
  return run;
}

/// One cold start: a fresh process running one job, start to exit [s].
double cold_job(const Options& o, int i, Result& result) {
  const std::string dir = o.work_dir + "/cold" + std::to_string(i);
  std::filesystem::create_directories(dir);
  const Clock::time_point t0 = Clock::now();
  Child child({o.self_path, "--one-job", "--seed",
               std::to_string(derive(o.seed, 1000 + static_cast<unsigned>(i))),
               "--work", dir},
              "", "", "");
  const Exit exit = child.wait(kChildTimeout);
  const double seconds = seconds_since(t0);
  result.check(exit.ok(0), "cold job " + std::to_string(i) + ": " +
                               exit.describe());
  return seconds;
}

void untraced(const Options& o, Result& result) {
  // Set-up: cold one-job processes on both sides of the timed phase.
  std::vector<double> cold;
  for (int i = 0; i < kColdJobs / 2; ++i) cold.push_back(cold_job(o, i, result));

  SpanLog off(false);
  std::uint64_t job = 0;
  for (const Clock::time_point warm = after(Clock::now(), kWarmupSeconds);
       Clock::now() < warm; ++job) {
    (void)run_job(o, job, Tracing{off}, result);
  }
  std::vector<double> busy;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = after(t0, o.seconds);
  const Clock::time_point hard = after(t0, 3 * o.seconds);
  for (;; ++job) {
    const Clock::time_point now = Clock::now();
    if (now >= hard || (now >= deadline && busy.size() >= min_timed_ops())) {
      break;
    }
    busy.push_back(run_job(o, job, Tracing{off}, result).busy_s);
  }
  for (int i = kColdJobs / 2; i < kColdJobs; ++i) {
    cold.push_back(cold_job(o, i, result));
  }
  // VmHWM, not ru_maxrss: the latter keeps the peak of whatever process
  // started this one (run.py's interpreter) from before its exec.
  const double rss = peak_rss_mb();
  result.check(rss > 0.0, "cannot read this process's VmHWM");
  report_end_to_end(result, busy, std::move(cold), rss, "jobs");
}

void traced(const Options& o, Result& result, SpanLog& spans) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = after(start, o.seconds);

  // Counted jobs: fixed in number, so their counts repeat for a seed.
  double attempts = 0, retried = 0, mad_rejected = 0, kept_degraded = 0;
  double failures = 0, journal_bytes = 0;
  std::size_t steps = 0;
  std::vector<double> measure_us;
  std::vector<double> rate_spans_on, rate_spans_off, rate_obs_on;
  for (std::uint64_t job = 0;
       job < kCountedJobs || Clock::now() < deadline; ++job) {
    // Rotate: spans on / spans off / an obs tracer on with spans off.
    // Only mode-0 jobs record the layer spans, so no layer figure mixes
    // in the cost of observation; each overhead compares neighbouring
    // jobs that differ in one thing, against mode 1.
    const int mode = static_cast<int>(job % 3);
    spans.set_enabled(mode == 0);
    std::unique_ptr<rme::obs::Clock> clock;
    std::unique_ptr<rme::obs::Tracer> tracer;
    if (mode == 2) {
      clock = rme::obs::make_real_clock();
      tracer = std::make_unique<rme::obs::Tracer>(*clock);
    }
    const JobRun run = run_job(o, job, Tracing{spans, tracer.get()}, result);
    (mode == 0 ? rate_spans_on : mode == 1 ? rate_spans_off : rate_obs_on)
        .push_back(1.0 / run.busy_s);
    spans.set_enabled(true);

    // Layer probes outside the job's timing: the eq. (9) fit, the
    // journal appends, and the bootstrap at jobs 1.
    for (int p = 0; p < 2; ++p) {
      const std::uint64_t op = 2 * job + static_cast<std::uint64_t>(p);
      const art::ReadResult& r = run.runs[p].read;
      const auto samples = art::samples_from_steps(r.steps);
      {
        const Scope s(spans, "fit.ols", op);
        (void)rme::fit::fit_energy_coefficients(samples, fit_options());
      }
      const std::string path = o.work_dir + "/append.rmea";
      std::filesystem::remove(path);
      {
        art::ArtifactWriter writer(path);
        {
          const Scope s(spans, "artifact.append", op);
          writer.append(art::to_json(r.header));
        }
        for (const art::StepRecord& step : r.steps) {
          const Scope s(spans, "artifact.append", op);
          writer.append(art::to_json(step));
        }
        const Scope s(spans, "artifact.append", op);
        writer.append(art::to_json(r.fit));
      }
      {
        const Scope s(spans, "fit.bootstrap.jobs1", op);
        (void)rme::fit::bootstrap_coefficient_cis(
            samples, fit_options(), kResamples, derive(o.seed, 4 * job + 2),
            0.95, 1);
      }
      if (job < kCountedJobs) {
        for (const art::StepRecord& step : r.steps) {
          attempts += static_cast<double>(step.reps_attempted);
          retried += static_cast<double>(step.reps_retried);
          mad_rejected += static_cast<double>(step.reps_discarded_outlier);
          kept_degraded += static_cast<double>(step.reps_kept_degraded);
        }
        failures += static_cast<double>(run.runs[p].cis.eps_single.failures);
        journal_bytes += static_cast<double>(run.runs[p].journal_bytes);
      }
      steps = r.steps.size();
    }
  }

  // power.measure_us: capture self time net of its appends and fit,
  // per step — the simulate/measure/QC work no public call isolates.
  const auto capture = spans.per_op_us("artifact.capture");
  const auto append = spans.per_op_us("artifact.append");
  const auto ols = spans.per_op_us("fit.ols");
  for (const auto& [op, c] : capture) {
    const auto a = append.find(op);
    const auto f = ols.find(op);
    if (a == append.end() || f == ols.end() || steps == 0) continue;
    measure_us.push_back((c - a->second - f->second) /
                         static_cast<double>(steps));
  }
  const double boot_n = median_of(spans.durations_us("fit.bootstrap"));
  const double boot_1 = median_of(spans.durations_us("fit.bootstrap.jobs1"));
  const double on = median_of(rate_spans_on);
  const double off = median_of(rate_spans_off);
  const double obs_on = median_of(rate_obs_on);
  const double counted = static_cast<double>(kCountedJobs);

  result.metric("exec.bootstrap_speedup", boot_1 / boot_n, "x");
  result.metric("artifact.capture_us",
                median_of(spans.durations_us("artifact.capture")), "us");
  result.metric("artifact.append_us",
                median_of(spans.durations_us("artifact.append")), "us");
  result.metric("artifact.read_us",
                median_of(spans.durations_us("artifact.read")), "us");
  result.metric("artifact.journal_bytes", journal_bytes / (2 * counted), "bytes");
  result.metric("power.measure_us", median_of(measure_us), "us");
  result.metric("power.attempts", attempts, "count");
  result.metric("power.retried", retried, "count");
  result.metric("power.mad_rejected", mad_rejected, "count");
  result.metric("power.kept_degraded", kept_degraded, "count");
  result.metric("fit.ols_us", median_of(spans.durations_us("fit.ols")), "us");
  result.metric("fit.bootstrap_us", boot_n, "us");
  result.metric("fit.bootstrap_failures", failures, "count");
  result.metric("obs.tracer_overhead_pct", 100.0 * (off - obs_on) / off, "%");
  result.metric("trace.overhead_pct", 100.0 * (off - on) / off, "%");
  result.note("counts: over the first " + std::to_string(kCountedJobs) +
              " jobs (" + std::to_string(2 * kCountedJobs) + " journals)");
}

}  // namespace

int run_one_sweep_job(std::uint64_t seed, const std::string& work_dir) {
  Options o;
  o.seed = seed;
  o.work_dir = work_dir;
  o.jobs = host_fingerprint().nproc;
  SpanLog off(false);
  Result result;
  (void)run_job(o, 0, Tracing{off}, result);
  return result.correct() ? 0 : 1;
}

void run_sweep(const Options& o, Result& result, SpanLog& spans) {
  if (o.trace) {
    traced(o, result, spans);
  } else {
    untraced(o, result);
  }
}

}  // namespace perfbench
