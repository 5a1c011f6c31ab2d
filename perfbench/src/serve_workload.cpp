// serve_small: the shipped rme_served daemon over its AF_UNIX socket,
// driven by one closed-loop client (one process, one thread, one
// connection — the daemon serves one connection at a time, and its
// callers each wait for their reply).
//
// Untraced run: set-up is the median of repeated cold starts (spawn,
// socket accepting, golden-session ingest answered); the timed phase
// sends the seeded stream for --seconds and times every frame from its
// first write to the last byte of its response line.
//
// Traced run: the same frames are replayed in-process through the
// public entry points of each layer (Json::parse, serve::parse_frame,
// core::evaluate_batch_into, serve::Engine::handle, Json::dump), with a
// span around each call, plus socket blocks with and without the
// client's spans and with and without `rme_served --metrics`, and a
// probe of the exec::parallel_map row arm on large predict frames.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "frames.hpp"
#include "process.hpp"
#include "stats.hpp"

#include "rme/artifact/artifact.hpp"
#include "rme/artifact/json.hpp"
#include "rme/core/batch.hpp"
#include "rme/core/machine_presets.hpp"
#include "rme/core/model.hpp"
#include "rme/fit/energy_fit.hpp"
#include "rme/serve/engine.hpp"
#include "rme/serve/protocol.hpp"

namespace perfbench {

namespace {

using rme::artifact::Json;

constexpr const char* kGoldenSession = "tests/golden/session_i7.rmea";
constexpr double kIoTimeout = 10.0;     ///< Per-frame receive limit [s].
constexpr double kStartTimeout = 10.0;  ///< Spawn to socket accepting [s].
constexpr int kColdStarts = 31;         ///< Cold starts per untraced run.
constexpr std::uint64_t kSampleEvery = 16;  ///< Bit-checked predict share.
constexpr std::uint64_t kMaxReplayed = 10000;  ///< Bounds a traced run's spans.

/// The registry the daemon holds after the set-up ingest, rebuilt from
/// the public API so predict rows can be recomputed independently.
class Machines {
 public:
  Machines() {
    using rme::Precision;
    namespace presets = rme::presets;
    params_["fermi"] = presets::fermi_table2();
    params_["gtx580-sp"] = presets::gtx580(Precision::kSingle);
    params_["gtx580-dp"] = presets::gtx580(Precision::kDouble);
    params_["i7-sp"] = presets::i7_950(Precision::kSingle);
    params_["i7-dp"] = presets::i7_950(Precision::kDouble);
    const rme::artifact::CoefficientScan scan =
        rme::artifact::read_artifact_coefficients(kGoldenSession);
    rme::fit::EnergyCoefficients c;
    c.eps_single = rme::EnergyPerFlop{scan.fit.eps_single};
    c.delta_double = rme::EnergyPerFlop{scan.fit.delta_double};
    c.eps_mem = rme::EnergyPerByte{scan.fit.eps_mem};
    c.const_power = rme::Watts{scan.fit.const_power};
    params_["fit-sp"] = c.to_machine(presets::i7_950(Precision::kSingle),
                                     Precision::kSingle);
    params_["fit-dp"] = c.to_machine(presets::i7_950(Precision::kDouble),
                                     Precision::kDouble);
    ok_ = scan.has_fit;
    for (const auto& [name, m] : params_) evals_[name] = rme::MachineEval::from(m);
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const rme::MachineParams& params(const std::string& n) const {
    return params_.at(n);
  }
  [[nodiscard]] const rme::MachineEval& eval(const std::string& n) const {
    return evals_.at(n);
  }

 private:
  bool ok_ = false;
  std::map<std::string, rme::MachineParams> params_;
  std::map<std::string, rme::MachineEval> evals_;
};

bool ingest_ok(std::string_view response) {
  return response.starts_with("{\"ok\":true,\"op\":\"ingest\"");
}

/// Checks one response line against its frame.  Every response: one
/// line, parses, `"ok":true`, echoes its id.  A seeded sample of
/// predict frames also has two rows recomputed with predict_time and
/// predict_energy and compared bit for bit.  Returns "" when correct.
class Checker {
 public:
  Checker(const Machines& machines, std::uint64_t seed)
      : machines_(machines), seed_(seed) {}

  std::string check(const Frame& frame, std::uint64_t id,
                    std::string_view line) {
    if (line.empty() || line.back() != '\n' ||
        std::memchr(line.data(), '\n', line.size() - 1) != nullptr) {
      return "response is not exactly one line";
    }
    expected_head(frame, id, head_);
    if (line.compare(0, head_.size(), head_) != 0) {
      return "response to frame " + std::to_string(id) +
             " does not open with " + head_ + ": " +
             std::string(line.substr(0, 160));
    }
    Json doc;
    try {
      doc = Json::parse(line.substr(0, line.size() - 1));
    } catch (const std::exception& e) {
      return std::string("response does not parse: ") + e.what();
    }
    if (!doc.is_object() || !doc.has("ok") || !doc.at("ok").as_bool() ||
        !doc.has("id") || doc.at("id").as_count() != id) {
      return "response lacks ok:true or its id";
    }
    if (frame.op == "predict" && derive(seed_, id) % kSampleEvery == 0) {
      return check_rows(frame, id, doc);
    }
    return {};
  }

 private:
  std::string check_rows(const Frame& frame, std::uint64_t id,
                         const Json& doc) {
    const std::vector<Json>& rows = doc.at("results").items();
    if (rows.size() != frame.items.size()) return "predict row count differs";
    const rme::MachineParams& m = machines_.params(frame.machine);
    for (std::uint64_t pick = 0; pick < 2; ++pick) {
      const std::size_t i = derive(seed_ ^ id, pick) % rows.size();
      const rme::KernelProfile k{frame.items[i].flops, frame.items[i].bytes};
      const rme::TimeBreakdown t = rme::predict_time(m, k);
      const rme::EnergyBreakdown e = rme::predict_energy(m, k);
      const Json& row = rows[i];
      if (!same_bits(row.at("seconds").as_number(), t.total_seconds.value()) ||
          !same_bits(row.at("joules").as_number(), e.total_joules.value()) ||
          !same_bits(row.at("flops_joules").as_number(),
                     e.flops_joules.value()) ||
          !same_bits(row.at("mem_joules").as_number(), e.mem_joules.value()) ||
          !same_bits(row.at("const_joules").as_number(),
                     e.const_joules.value())) {
        return "predict row " + std::to_string(i) + " of frame " +
               std::to_string(id) + " differs from predict_time/energy";
      }
    }
    return {};
  }

  const Machines& machines_;
  std::uint64_t seed_;
  std::string head_;
};

/// One rme_served process and the benchmark's connection to it.
class Daemon {
 public:
  Daemon(const Options& o, const std::string& tag, bool metrics)
      : socket_(o.work_dir + "/" + tag + ".sock"),
        err_path_(o.work_dir + "/" + tag + ".err") {
    std::vector<std::string> argv = {o.bin_dir + "/rme_served", "--socket",
                                     socket_, "--jobs",
                                     std::to_string(o.jobs)};
    if (metrics) argv.push_back("--metrics");
    child_ = std::make_unique<Child>(argv, "", "", err_path_);
  }
  ~Daemon() {
    if (fd_ >= 0) ::close(fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Connects and sends the set-up ingest; true when it was answered ok.
  bool ready() {
    fd_ = connect_unix(socket_, kStartTimeout, kIoTimeout);
    return fd_ >= 0 && exchange(ingest_frame(kGoldenSession)) &&
           ingest_ok(reader_.line());
  }

  /// Sends one frame and reads its response line.
  bool exchange(std::string_view frame) {
    frames_sent_ += 1;
    return write_all(fd_, frame.data(), frame.size()) && reader_.next(fd_);
  }
  [[nodiscard]] std::string_view line() const { return reader_.line(); }
  /// The daemon's peak RSS [MB], as stop() read it.
  [[nodiscard]] double peak_rss() const noexcept { return peak_rss_mb_; }

  /// Sends shutdown and checks the exit: status 0 and a summary line
  /// with errors=0 stalls=0 and frames equal to the frames sent.  The
  /// daemon's peak RSS is read just before it is told to stop.
  void stop(Result& result) {
    peak_rss_mb_ = peak_rss_mb(child_->pid());
    const bool answered =
        fd_ >= 0 && exchange("{\"op\":\"shutdown\",\"id\":\"bye\"}\n");
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    const Exit exit = child_->wait(kIoTimeout);
    result.check(answered, "daemon did not answer shutdown");
    result.check(exit.ok(0), "rme_served " + exit.describe());
    const std::string want = "serve: frames=" + std::to_string(frames_sent_) +
                             " responses=" + std::to_string(frames_sent_) +
                             " errors=0 stalls=0 ";
    const std::string err = slurp(err_path_);
    result.check(err.find(want) != std::string::npos,
                 "daemon summary is not '" + want + "...': " +
                     err.substr(0, 200));
  }

  void kill() { (void)child_->wait(0.0); }

 private:
  std::string socket_;
  std::string err_path_;
  std::unique_ptr<Child> child_;
  int fd_ = -1;
  std::uint64_t frames_sent_ = 0;
  double peak_rss_mb_ = 0.0;
  LineReader reader_;
};

/// The client loop: sends frames until `deadline` (or, with
/// `min_frames`, until at least that many were timed), timing each from
/// first write to last response byte.  A dead daemon ends the loop; the
/// frame in flight and the rest of the current pass count as failed.
struct Loop {
  Loop(const std::vector<Frame>& f, Checker& c, Result& r)
      : frames(f), checker(c), result(r) {}

  const std::vector<Frame>& frames;
  Checker& checker;
  Result& result;
  std::uint64_t next_id = 0;
  std::string text;

  bool run(Daemon& daemon, Clock::time_point deadline,
           Clock::time_point hard_deadline, std::size_t min_frames,
           std::vector<double>& latency, SpanLog& spans) {
    std::size_t done = 0;
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now >= hard_deadline || (now >= deadline && done >= min_frames)) {
        return true;
      }
      const std::uint64_t id = next_id++;
      const Frame& frame = frames[id % frames.size()];
      render(frame, id, text);
      const Scope span(spans, "client.frame", id);
      const Clock::time_point t0 = Clock::now();
      const bool answered = daemon.exchange(text);
      const double busy = seconds_since(t0);
      if (!answered) {
        result.op(false, "no answer to frame " + std::to_string(id));
        result.lost(frames.size() - 1 - id % frames.size(),
                    "daemon gone; rest of the pass not sent");
        daemon.kill();
        return false;
      }
      latency.push_back(busy);
      done += 1;
      const std::string why = checker.check(frame, id, daemon.line());
      result.op(why.empty(), why);
    }
  }
};

/// One cold start: spawn, socket accepting, ingest answered [s].
/// `keep` receives the daemon instead of stopping it.
double cold_start(const Options& o, int i, Result& result,
                  std::unique_ptr<Daemon>* keep = nullptr) {
  const Clock::time_point t0 = Clock::now();
  auto d = std::make_unique<Daemon>(o, "cold" + std::to_string(i), false);
  const bool ok = d->ready();
  const double seconds = seconds_since(t0);
  result.check(ok, "cold start " + std::to_string(i) + " not ready");
  if (ok && keep != nullptr) {
    *keep = std::move(d);
  } else if (ok) {
    d->stop(result);
  }
  return seconds;
}

void untraced(const Options& o, Result& result) {
  const Machines machines;
  result.check(machines.ok(), "cannot read the golden session");
  const std::vector<Frame> frames = make_frames(Mix::kSmall, o.seed);
  Checker checker(machines, o.seed);

  // Set-up: cold starts on both sides of the timed phase, so a noisy
  // moment at either end cannot set the median; the last one before
  // the timed phase stays up and serves it.
  std::vector<double> starts;
  for (int i = 0; i + 1 < kColdStarts / 2; ++i) {
    starts.push_back(cold_start(o, i, result));
  }
  std::unique_ptr<Daemon> daemon;
  starts.push_back(cold_start(o, kColdStarts / 2 - 1, result, &daemon));
  if (!daemon) return;

  SpanLog off(false);
  Loop loop(frames, checker, result);
  std::vector<double> latency;
  const Clock::time_point warm = Clock::now();
  bool alive = loop.run(*daemon, after(warm, kWarmupSeconds),
                        after(warm, kWarmupSeconds + kIoTimeout), 1, latency,
                        off);
  latency.clear();
  const Clock::time_point t0 = Clock::now();
  alive = alive && loop.run(*daemon, after(t0, o.seconds),
                            after(t0, 3 * o.seconds), min_timed_ops(),
                            latency, off);
  if (alive) {
    daemon->stop(result);
    result.check(daemon->peak_rss() > 0.0, "cannot read rme_served's VmHWM");
  }
  for (int i = kColdStarts / 2; i < kColdStarts; ++i) {
    starts.push_back(cold_start(o, i, result));
  }
  report_end_to_end(result, latency, std::move(starts), daemon->peak_rss(),
                    "frames");
}

void traced(const Options& o, Result& result, SpanLog& spans) {
  const Machines machines;
  result.check(machines.ok(), "cannot read the golden session");
  const std::vector<Frame> frames = make_frames(Mix::kSmall, o.seed);
  Checker checker(machines, o.seed);
  const std::string ingest_text = ingest_frame(kGoldenSession);
  const std::string_view ingest(ingest_text.data(), ingest_text.size() - 1);
  const std::size_t max_batch = 1024;

  // Counts over one pass of the stream: pure functions of the seed.
  double request_bytes = 0.0, response_bytes = 0.0, items = 0.0;
  {
    rme::serve::Engine engine({o.jobs, max_batch, nullptr});
    result.check(ingest_ok(engine.handle(ingest).dump()), "ingest failed");
    std::string text;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      render(frames[i], i, text);
      request_bytes += static_cast<double>(text.size());
      const std::string_view line(text.data(), text.size() - 1);
      response_bytes += static_cast<double>(engine.handle(line).dump().size() + 1);
      items += static_cast<double>(frames[i].items.size());
    }
  }
  const double n_frames = static_cast<double>(frames.size());

  const double budget = o.seconds;
  const Clock::time_point start = Clock::now();
  const auto at = [&](double share) { return after(start, budget * share); };

  // Phase 1 — socket blocks: plain daemon with the client's spans off
  // and on, and a `--metrics` daemon with spans off, interleaved so
  // slow drift in the host hits all three alike.
  Daemon plain(o, "plain", false);
  Daemon metered(o, "metered", true);
  result.check(plain.ready() && metered.ready(),
               "traced daemons not ready");
  Loop loop{frames, checker, result};
  std::vector<double> off_rates, on_rates, metered_rates, socket_latency;
  const double block = 0.25;
  bool alive = true;
  while (alive && Clock::now() < at(0.6)) {
    for (int which = 0; which < 3 && alive; ++which) {
      std::vector<double> latency;
      spans.set_enabled(which == 1);
      const Clock::time_point b = Clock::now();
      const Clock::time_point end = after(b, block);
      alive = loop.run(which == 2 ? metered : plain, end, after(end, 30.0), 1,
                       latency, spans);
      const double rate = windowed_rate(latency, 1);
      (which == 0 ? off_rates : which == 1 ? on_rates : metered_rates)
          .push_back(rate);
      if (which == 0) {
        for (const double s : latency) socket_latency.push_back(s * 1e6);
      }
    }
  }
  spans.set_enabled(true);
  if (alive) {
    plain.stop(result);
    metered.stop(result);
  }
  const double off_rate = median_of(off_rates);
  result.metric("trace.overhead_pct",
                100.0 * (off_rate - median_of(on_rates)) / off_rate, "%");
  result.metric("obs.tracer_overhead_pct",
                100.0 * (off_rate - median_of(metered_rates)) / off_rate, "%");

  // Phase 2 — in-process replay, one span per public call.
  for (int i = 0; i < 9; ++i) {
    rme::serve::Engine fresh({o.jobs, max_batch, nullptr});
    Json response;
    {
      const Scope s(spans, "serve.ingest", static_cast<std::uint64_t>(i));
      response = fresh.handle(ingest);
    }
    result.check(ingest_ok(response.dump()), "ingest failed");
  }
  rme::serve::Engine engine({o.jobs, max_batch, nullptr});
  (void)engine.handle(ingest);
  std::vector<rme::KernelProfile> profiles;
  rme::ModelBatch batch;
  std::map<std::uint64_t, std::string> op_of;
  std::map<std::uint64_t, double> evaluated;  ///< Items evaluated per frame.
  std::string text;
  for (std::uint64_t id = 0; id < frames.size() ||
                             (Clock::now() < at(0.85) && id < kMaxReplayed);
       ++id) {
    const Frame& frame = frames[id % frames.size()];
    render(frame, id, text);
    const std::string_view line(text.data(), text.size() - 1);
    const Scope top(spans, "serve.frame", id);
    Json doc;
    {
      const Scope s(spans, "json.parse", id, top.id());
      doc = Json::parse(line);
    }
    rme::serve::Request request;
    {
      const Scope s(spans, "serve.parse_frame", id, top.id());
      request = rme::serve::parse_frame(doc, max_batch);
    }
    if (!request.batch.empty()) {
      // As the engine does: one pass, two for whatif (base and edited).
      const rme::MachineEval& eval = machines.eval(request.machine);
      const int passes = request.op == rme::serve::Op::kWhatif ? 2 : 1;
      const Scope s(spans, "core.evaluate", id, top.id());
      for (int p = 0; p < passes; ++p) {
        profiles.clear();
        for (const auto& desc : request.batch) profiles.push_back(desc.profile());
        rme::evaluate_batch_into(eval, profiles, batch);
      }
      evaluated[id] = static_cast<double>(passes * request.batch.size());
    }
    Json response;
    {
      const Scope s(spans, "serve.handle", id, top.id());
      response = engine.handle(line);
    }
    std::string out;
    {
      const Scope s(spans, "json.dump", id, top.id());
      out = response.dump();
    }
    out += '\n';
    op_of[id] = frame.op;
    const std::string why = checker.check(frame, id, out);
    result.op(why.empty(), why);
  }

  // Phase 3 — Engine::handle at jobs 1 against jobs nproc, on large
  // predicts: the exec::parallel_map row arm engages at >= 32 items,
  // which no serve_small frame reaches.
  const std::vector<Frame> bulk = make_frames(Mix::kBulk, o.seed);
  rme::serve::Engine serial({1, max_batch, nullptr});
  (void)serial.handle(ingest);
  for (std::uint64_t id = 0;
       id < bulk.size() || (Clock::now() < at(1.0) && id < kMaxReplayed); ++id) {
    render(bulk[id % bulk.size()], id, text);
    const std::string_view line(text.data(), text.size() - 1);
    {
      const Scope s(spans, "serve.handle.jobs1", id);
      (void)serial.handle(line);
    }
    const Scope s(spans, "serve.handle.jobsN", id);
    (void)engine.handle(line);
  }

  // Per-layer figures from the spans.
  const auto parse = spans.per_op_us("json.parse");
  const auto validate = spans.per_op_us("serve.parse_frame");
  const auto evaluate = spans.per_op_us("core.evaluate");
  const auto handle = spans.per_op_us("serve.handle");
  const auto dump = spans.per_op_us("json.dump");
  std::map<std::string, std::vector<double>> handle_by_op;
  std::vector<double> build, handle_dump, ns_per_item, ratios;
  for (const auto& [id, n] : evaluated) {
    ns_per_item.push_back(evaluate.at(id) * 1e3 / n);
  }
  const auto parallel = spans.per_op_us("serve.handle.jobsN");
  for (const auto& [id, t1] : spans.per_op_us("serve.handle.jobs1")) {
    ratios.push_back(t1 / parallel.at(id));
  }
  for (const auto& [id, h] : handle) {
    handle_by_op[op_of[id]].push_back(h);
    const auto ev = evaluate.find(id);
    build.push_back(h - parse.at(id) - validate.at(id) -
                    (ev == evaluate.end() ? 0.0 : ev->second));
    handle_dump.push_back(h + dump.at(id));
  }
  result.metric("serve.parse_us", median_of(spans.durations_us("json.parse")), "us");
  result.metric("serve.validate_us",
                median_of(spans.durations_us("serve.parse_frame")), "us");
  result.metric("serve.handle_us", median_of(spans.durations_us("serve.handle")), "us");
  result.metric("serve.predict_us", median_of(handle_by_op["predict"]), "us");
  result.metric("serve.rank_us", median_of(handle_by_op["rank"]), "us");
  result.metric("serve.whatif_us", median_of(handle_by_op["whatif"]), "us");
  result.metric("serve.build_us", median_of(build), "us");
  result.metric("serve.dump_us", median_of(spans.durations_us("json.dump")), "us");
  result.metric("serve.transport_us",
                median_of(socket_latency) - median_of(handle_dump), "us");
  result.metric("serve.ingest_us", median_of(spans.durations_us("serve.ingest")), "us");
  result.metric("serve.request_bytes", request_bytes / n_frames, "bytes");
  result.metric("serve.response_bytes", response_bytes / n_frames, "bytes");
  result.metric("serve.items_per_frame", items / n_frames, "count");
  result.metric("core.evaluate_ns_per_item", median_of(ns_per_item), "ns");
  result.metric("exec.serve_rows_speedup", median_of(ratios), "x");
}

}  // namespace

void run_serve(const Options& o, Result& result, SpanLog& spans) {
  if (o.trace) {
    traced(o, result, spans);
  } else {
    untraced(o, result);
  }
}

}  // namespace perfbench
