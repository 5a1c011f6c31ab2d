#include "corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "stats.hpp"

namespace perfbench {

namespace {

/// The repository's module layout: files per module and the declared
/// layer DAG (src/rme/analyze/include_graph.cpp).  File counts match
/// the tree the analyzer gates (298 files with tests, bench and tools).
struct Module {
  const char* name;
  int files;
  std::vector<const char*> deps;
};

const std::vector<Module>& modules() {
  static const std::vector<Module> kModules = {
      {"core", 35, {}},
      {"obs", 8, {}},
      {"cli", 3, {}},
      {"exec", 2, {"obs"}},
      {"sim", 16, {"core"}},
      {"report", 10, {"core"}},
      {"analyze", 35, {"exec", "obs"}},
      {"fit", 16, {"core", "sim", "exec", "obs"}},
      {"power", 18, {"core", "sim", "fit", "exec", "obs"}},
      {"ubench", 14, {"core", "sim", "power"}},
      {"fmm", 18, {"core", "sim", "fit", "ubench", "exec", "obs"}},
      {"artifact", 10, {"core", "sim", "power", "fit", "report", "cli", "obs"}},
      {"serve", 7, {"core", "sim", "fit", "exec", "obs", "cli", "artifact"}},
  };
  return kModules;
}

constexpr int kTestFiles = 77;
constexpr int kBenchFiles = 24;  // Plus bench/bench_common.hpp.
constexpr int kToolFiles = 3;

// Densities of the tree the corpus stands in for, from a scan of its
// 298 files (perfbench/README.md): `// rme-hot:` roots and `// rme-cold:`
// cut points, RAII lock sites per guard kind, member-function
// definitions.  Every filler hot root calls a cold locked function, and
// some also a cold formatting one: cut points the call-graph walk must
// honour, or the lock- and format-in-hot-path rules report them.
constexpr int kHotRoots = 12;        ///< Including the three planted roots.
constexpr int kPlantedHotRoots = 3;  ///< alloc-, format-, lock-in-hot-path.
constexpr int kFillerHotRoots = kHotRoots - kPlantedHotRoots;
constexpr int kColdCutPoints = 13;
constexpr int kMemberFunctions = 163;
/// src/ lock_guard sites: 31, less the five planted (lock-order four,
/// lock-in-hot-path one) and the one in each cold function.
constexpr int kFillerLockGuards = 31 - 5 - kFillerHotRoots;
constexpr int kUniqueLocks = 12;
constexpr int kScopedLocks = 15;
constexpr int kTestLockGuards = 12;
/// Reduce/switch filler blocks per library source, the knob that sets
/// the token count (about 228,000, as the tree has).
constexpr int kFillerBlocks = 11;

const char* const kWords[] = {"balance", "roof",  "sweep",  "kernel", "trace",
                              "phase",   "model", "rate",   "cache",  "queue",
                              "table",   "chart", "probe",  "gauge",  "ledger",
                              "window",  "bucket", "sample", "record", "frame"};

/// The planted defect kinds: one site each, in a seeded library file.
enum class Plant {
  kBannedGlobal,
  kDeterminism,
  kLockDiscipline,
  kUnitsSuffix,
  kUncheckedIo,
  kLayering,
  kLockOrder,
  kAllocInHotPath,
  kFormatInHotPath,
  kLockInHotPath,
  kSuppression,
};
constexpr int kPlantKinds = 11;

/// Text with a running line number, so planted sites know their line.
class Writer {
 public:
  void line(const std::string& s) {
    text_ += s;
    text_ += '\n';
    ++next_;
  }
  [[nodiscard]] std::size_t next_line() const noexcept { return next_; }
  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
  std::size_t next_ = 1;
};

/// A file-level comment paragraph of `lines` lines, as the tree's files
/// open with; comments are read and lexed but carry no tokens.
void preamble(Writer& w, Rng& rng, int lines) {
  for (int i = 0; i < lines; ++i) {
    std::string text = "//";
    while (text.size() < 64) {
      text += " ";
      text += kWords[rng.range(0, 19)];
    }
    w.line(text + (i + 1 == lines ? "." : ""));
  }
}

std::string num(Rng& rng) {
  // A short decimal literal such as 1.375: one token either way.
  return std::to_string(rng.range(1, 9)) + "." +
         std::to_string(rng.range(100, 999));
}

enum class Lock { kGuard, kUnique, kScoped };

struct Unit {
  std::string module;
  std::string stem;  ///< e.g. balance_3
  std::string header;
  std::string source;  ///< Empty for a header-only unit.
  std::vector<std::string> functions;  ///< Declared double(double,double).
  int members = 0;          ///< Member functions of its class (0: no class).
  int cold = 0;             ///< Cold callees of its filler hot root (0: none).
  std::vector<Lock> locks;  ///< Filler lock sites of its source.
};

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(derive(seed, 7)) {}

  Corpus run() {
    plan_units();
    plan_plants();
    plan_shape();
    for (const Unit& u : units_) {
      emit_header(u);
      if (!u.source.empty()) emit_source(u);
    }
    emit_umbrella();
    for (int i = 0; i < kTestFiles; ++i) emit_test(i);
    emit_bench_common();
    for (int i = 0; i < kBenchFiles; ++i) emit_bench(i);
    for (int i = 0; i < kToolFiles; ++i) emit_tool(i);
    std::sort(corpus_.files.begin(), corpus_.files.end(),
              [](const CorpusFile& a, const CorpusFile& b) {
                return a.path < b.path;
              });
    std::sort(corpus_.expected.begin(), corpus_.expected.end());
    return std::move(corpus_);
  }

 private:
  void plan_units() {
    for (const Module& m : modules()) {
      const int pairs = m.files / 2;
      const int units = pairs + m.files % 2;
      for (int k = 0; k < units; ++k) {
        Unit u;
        u.module = m.name;
        u.stem = std::string(kWords[rng_.range(0, 19)]) + "_" + std::to_string(k);
        u.header = "src/rme/" + u.module + "/" + u.stem + ".hpp";
        if (k < pairs) u.source = "src/rme/" + u.module + "/" + u.stem + ".cpp";
        for (int j = 0; j < 6; ++j) {
          u.functions.push_back(u.module + "_" + std::to_string(k) + "_" +
                                kWords[rng_.range(0, 19)] + std::to_string(j));
        }
        if (!u.source.empty()) u.members = 1;
        by_module_[u.module].push_back(units_.size());
        units_.push_back(std::move(u));
      }
    }
  }

  /// Each planted kind goes into its own library source file; the
  /// layering plant needs a module other than serve (none may include
  /// serve).
  void plan_plants() {
    std::vector<std::size_t> sources;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      if (!units_[i].source.empty() && units_[i].module != "serve") {
        sources.push_back(i);
      }
    }
    rng_.shuffle(sources);
    for (int k = 0; k < kPlantKinds; ++k) {
      plants_[sources[static_cast<std::size_t>(k)]] = static_cast<Plant>(k);
    }
  }

  /// Spreads the filler hot roots and lock sites over library sources.
  void plan_shape() {
    std::vector<std::size_t> sources;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      if (!units_[i].source.empty()) sources.push_back(i);
    }
    rng_.shuffle(sources);
    for (int i = 0; i < kColdCutPoints; ++i) {
      units_[sources[static_cast<std::size_t>(i % kFillerHotRoots)]].cold += 1;
    }
    rng_.shuffle(sources);
    for (std::size_t i = sources.size(); i < kMemberFunctions; ++i) {
      units_[sources[i - sources.size()]].members = 2;
    }
    const auto place = [&](Lock kind, int n) {
      for (int i = 0; i < n; ++i) {
        units_[sources[rng_.range(0, sources.size() - 1)]].locks.push_back(kind);
      }
    };
    place(Lock::kGuard, kFillerLockGuards);
    place(Lock::kUnique, kUniqueLocks);
    place(Lock::kScoped, kScopedLocks);
  }

  void expect(const std::string& rule, const std::string& file,
              std::size_t line) {
    corpus_.expected.push_back(Planted{rule, file, line});
  }

  /// Lower-layer headers a unit may include: one or two from its
  /// module's declared dependencies.
  std::vector<std::string> dep_headers(const std::string& module) {
    std::vector<std::string> out;
    for (const Module& m : modules()) {
      if (module != m.name || m.deps.empty()) continue;
      const int n = static_cast<int>(rng_.range(1, 2));
      for (int i = 0; i < n; ++i) {
        const char* dep = m.deps[rng_.range(0, m.deps.size() - 1)];
        const auto& pool = by_module_[dep];
        const std::string h = units_[pool[rng_.range(0, pool.size() - 1)]].header;
        if (std::find(out.begin(), out.end(), h) == out.end()) out.push_back(h);
      }
    }
    return out;
  }

  static std::string include_path(const std::string& header) {
    return header.substr(4);  // Drop "src/".
  }

  void emit_header(const Unit& u) {
    Writer w;
    w.line("#pragma once");
    w.line("// " + u.module + "/" + u.stem +
           ": generated analyzer-benchmark corpus (perfbench/src/corpus.cpp).");
    preamble(w, rng_, 10);
    w.line("");
    w.line("#include <cstddef>");
    w.line("#include <vector>");
    w.line("");
    for (const std::string& h : dep_headers(u.module)) {
      w.line("#include \"" + include_path(h) + "\"");
    }
    w.line("");
    w.line("namespace rme::" + u.module + " {");
    w.line("");
    for (int s = 0; s < 2; ++s) {
      w.line("/// Accumulated state of one " + u.stem + " pass.");
      w.line("struct " + camel(u.stem) + "State" + std::to_string(s) + " {");
      w.line("  double scale = " + num(rng_) + ";");
      w.line("  double offset = " + num(rng_) + ";");
      w.line("  std::size_t count = 0;");
      w.line("  std::vector<double> history;");
      w.line("};");
      w.line("");
    }
    if (u.members > 0) {
      w.line("/// Running " + u.stem + " engine: a scaled, clamped fold.");
      w.line("class " + camel(u.stem) + "Engine {");
      w.line(" public:");
      w.line("  explicit " + camel(u.stem) + "Engine(double scale) : scale_(scale) {}");
      w.line("");
      w.line("  /// One step of the engine; pure.");
      w.line("  [[nodiscard]] double step(double x) const;");
      if (u.members > 1) {
        w.line("  /// Folds one reading into the running state.");
        w.line("  void absorb(double v);");
      }
      w.line("");
      w.line(" private:");
      w.line("  double scale_ = 1.0;");
      w.line("  double sum_ = 0.0;");
      w.line("  std::size_t count_ = 0;");
      w.line("};");
      w.line("");
    }
    for (const std::string& f : u.functions) {
      w.line("/// Combines two readings; pure, so it may sit on a hot path.");
      w.line("[[nodiscard]] double " + f + "(double x, double y);");
    }
    w.line("");
    w.line("}  // namespace rme::" + u.module);
    corpus_.files.push_back({u.header, w.take()});
  }

  static std::string camel(const std::string& stem) {
    std::string out;
    bool up = true;
    for (const char c : stem) {
      if (c == '_') {
        up = true;
        continue;
      }
      out += up ? static_cast<char>(c - ('a' <= c && c <= 'z' ? 32 : 0)) : c;
      up = false;
    }
    return out;
  }

  void emit_arith(Writer& w, const std::string& name) {
    w.line("// Folds y into x over a fixed number of rounds.  Generated");
    w.line("// filler: pure arithmetic, clean under every analyzer rule.");
    w.line("double " + name + "(double x, double y) {");
    w.line("  double acc = x * " + num(rng_) + " + y;");
    w.line("  for (int i = 0; i < " + std::to_string(rng_.range(4, 32)) +
           "; ++i) {");
    w.line("    acc = acc * " + num(rng_) + " + static_cast<double>(i) * y;");
    w.line("    if (acc > " + num(rng_) + ") {");
    w.line("      acc -= " + num(rng_) + ";");
    w.line("    }");
    w.line("  }");
    w.line("  return acc;");
    w.line("}");
    w.line("");
  }

  void emit_reduce(Writer& w, const std::string& name) {
    w.line("// Mean of the values, biased; the empty set reads as the bias.");
    w.line("// Generated filler: one pass, no allocation, no locks.");
    w.line("double " + name + "(const std::vector<double>& values, double bias) {");
    w.line("  double sum = bias;");
    w.line("  for (const double v : values) {");
    w.line("    sum += v * " + num(rng_) + ";");
    w.line("  }");
    w.line("  return values.empty() ? bias : sum / static_cast<double>(values.size());");
    w.line("}");
    w.line("");
  }

  void emit_switch(Writer& w, const std::string& name) {
    w.line("// Maps a code onto its bucket.  Generated filler: a dense");
    w.line("// switch, total over every code.");
    w.line("int " + name + "(int code) {");
    w.line("  switch (code % 4) {");
    w.line("    case 0: return code * " + std::to_string(rng_.range(2, 9)) + ";");
    w.line("    case 1: return code + " + std::to_string(rng_.range(2, 99)) + ";");
    w.line("    case 2: return code - " + std::to_string(rng_.range(2, 99)) + ";");
    w.line("    default: return code;");
    w.line("  }");
    w.line("}");
    w.line("");
  }

  void emit_locked(Writer& w, const std::string& name, Lock kind) {
    w.line("// Adds one reading to the shared total under the unit's mutex.");
    w.line("void " + name + "(double v) {");
    switch (kind) {
      case Lock::kGuard:
        w.line("  std::lock_guard<std::mutex> lock(unit_mutex);");
        break;
      case Lock::kUnique:
        w.line("  std::unique_lock<std::mutex> lock(unit_mutex);");
        break;
      case Lock::kScoped:
        w.line("  std::scoped_lock lock(unit_mutex);");
        break;
    }
    w.line("  unit_total += v * " + num(rng_) + ";");
    w.line("}");
    w.line("");
  }

  /// A hot root calling two pure functions and `cold` cold ones (a
  /// locked one, then a formatting one), which the walk must not enter.
  void emit_hot(Writer& w, const std::string& name, const std::string& a,
                const std::string& b, int cold) {
    w.line("// rme-cold: generated control path; locking is fine off the request path");
    w.line("void " + name + "_sync(double v) {");
    w.line("  std::lock_guard<std::mutex> lock(unit_mutex);");
    w.line("  unit_total += v;");
    w.line("}");
    w.line("");
    if (cold > 1) {
      w.line("// rme-cold: generated diagnostics; formatting is fine off the request path");
      w.line("std::size_t " + name + "_width(int n) {");
      w.line("  return std::to_string(n).size();");
      w.line("}");
      w.line("");
    }
    w.line("// rme-hot: generated request path");
    w.line("double " + name + "(double x) {");
    w.line("  " + name + "_sync(x);");
    if (cold > 1) {
      w.line("  x += static_cast<double>(" + name + "_width(" +
             std::to_string(rng_.range(10, 99)) + "));");
    }
    w.line("  return " + a + "(x, " + num(rng_) + ") + " + b + "(x, " +
           num(rng_) + ");");
    w.line("}");
    w.line("");
  }

  void emit_members(Writer& w, const Unit& u) {
    const std::string cls = camel(u.stem) + "Engine";
    w.line("// One step: the scaled input, clamped from above.");
    w.line("double " + cls + "::step(double x) const {");
    w.line("  const auto clamp = [&](double v) { return v > " + num(rng_) +
           " ? " + num(rng_) + " : v; };");
    w.line("  return clamp(x * scale_ + " + num(rng_) + ");");
    w.line("}");
    w.line("");
    if (u.members < 2) return;
    w.line("// Folds one reading into the running sum.");
    w.line("void " + cls + "::absorb(double v) {");
    w.line("  sum_ += v * " + num(rng_) + ";");
    w.line("  ++count_;");
    w.line("}");
    w.line("");
  }

  /// Emits one planted defect and records where it must be reported.
  void emit_plant(Writer& w, Plant kind, const Unit& u, int k) {
    const std::string file = u.source;
    const std::string tag = u.module + "_" + std::to_string(k);
    switch (kind) {
      case Plant::kBannedGlobal:
        w.line("int noise_" + tag + "() {");
        expect("banned-globals", file, w.next_line());
        w.line("  return std::rand() % 7;");
        w.line("}");
        break;
      case Plant::kDeterminism:
        w.line("unsigned entropy_" + tag + "() {");
        expect("determinism", file, w.next_line());
        w.line("  std::random_device device;");
        w.line("  return device();");
        w.line("}");
        break;
      case Plant::kLockDiscipline:
        w.line("void bump_" + tag + "() {");
        expect("lock-discipline", file, w.next_line());
        w.line("  unit_mutex.lock();");
        w.line("  unit_total += 1.0;");
        expect("lock-discipline", file, w.next_line());
        w.line("  unit_mutex.unlock();");
        w.line("}");
        break;
      case Plant::kUnitsSuffix:
        w.line("struct Idle_" + tag + " {");
        expect("units-suffix", file, w.next_line());
        w.line("  double idle_watts = 0.0;");
        w.line("};");
        break;
      case Plant::kUncheckedIo:
        w.line("void save_" + tag + "(const std::string& path, const std::string& body) {");
        w.line("  std::ofstream out(path);");
        w.line("  if (!out) return;");
        expect("unchecked-io", file, w.next_line());
        w.line("  out << body;");
        w.line("}");
        break;
      case Plant::kLockOrder:
        w.line("std::mutex first_" + tag + ";");
        w.line("std::mutex second_" + tag + ";");
        w.line("void forward_" + tag + "() {");
        w.line("  std::lock_guard<std::mutex> a(first_" + tag + ");");
        expect("lock-order", file, w.next_line());
        w.line("  std::lock_guard<std::mutex> b(second_" + tag + ");");
        w.line("  unit_total += 1.0;");
        w.line("}");
        w.line("void backward_" + tag + "() {");
        w.line("  std::lock_guard<std::mutex> b(second_" + tag + ");");
        w.line("  std::lock_guard<std::mutex> a(first_" + tag + ");");
        w.line("  unit_total += 2.0;");
        w.line("}");
        break;
      case Plant::kAllocInHotPath:
        w.line("double* grow_" + tag + "(int n) {");
        expect("alloc-in-hot-path", file, w.next_line());
        w.line("  return new double[static_cast<unsigned>(n)];");
        w.line("}");
        w.line("// rme-hot: generated allocation path");
        w.line("double fill_" + tag + "(int n) {");
        w.line("  double* p = grow_" + tag + "(n);");
        w.line("  return p[0];");
        w.line("}");
        break;
      case Plant::kFormatInHotPath:
        w.line("std::size_t label_" + tag + "(int n) {");
        expect("format-in-hot-path", file, w.next_line());
        w.line("  return std::to_string(n).size();");
        w.line("}");
        w.line("// rme-hot: generated formatting path");
        w.line("std::size_t tag_" + tag + "(int n) { return label_" + tag + "(n); }");
        break;
      case Plant::kLockInHotPath:
        w.line("// rme-hot: generated locked path");
        w.line("void count_" + tag + "() {");
        expect("lock-in-hot-path", file, w.next_line());
        w.line("  std::lock_guard<std::mutex> lock(unit_mutex);");
        w.line("  unit_total += 4.0;");
        w.line("}");
        break;
      case Plant::kSuppression:
        expect("suppression-hygiene", file, w.next_line());
        w.line("// rme-lint: allow(banned-globals)");
        w.line("int quiet_" + tag + "() { return 3; }");
        break;
      case Plant::kLayering:
        break;  // Planted at the include block.
    }
    w.line("");
  }

  void emit_source(const Unit& u) {
    const int k = static_cast<int>(&u - units_.data());
    const auto plant = plants_.find(static_cast<std::size_t>(k));
    Writer w;
    w.line("// " + u.module + "/" + u.stem + ": generated analyzer-benchmark corpus.");
    preamble(w, rng_, 12);
    w.line("#include \"" + include_path(u.header) + "\"");
    w.line("");
    w.line("#include <cstdlib>");
    w.line("#include <fstream>");
    w.line("#include <mutex>");
    w.line("#include <random>");
    w.line("#include <string>");
    w.line("#include <vector>");
    w.line("");
    for (const std::string& h : dep_headers(u.module)) {
      w.line("#include \"" + include_path(h) + "\"");
    }
    if (plant != plants_.end() && plant->second == Plant::kLayering) {
      const auto& serve = by_module_["serve"];
      expect("layering", u.source, w.next_line());
      w.line("#include \"" +
             include_path(units_[serve[rng_.range(0, serve.size() - 1)]].header) +
             "\"");
    }
    w.line("");
    w.line("namespace rme::" + u.module + " {");
    w.line("");
    w.line("namespace {");
    w.line("std::mutex unit_mutex;");
    w.line("double unit_total = 0.0;");
    w.line("}  // namespace");
    w.line("");

    // The unit's blocks, in a seeded order: its declared functions,
    // its class's members, its lock sites, its hot root, and filler.
    enum class Block { kArith, kMembers, kLock, kHot, kReduce, kSwitch };
    std::vector<Block> blocks(u.functions.size(), Block::kArith);
    if (u.members > 0) blocks.push_back(Block::kMembers);
    blocks.insert(blocks.end(), u.locks.size(), Block::kLock);
    if (u.cold > 0) blocks.push_back(Block::kHot);
    for (int i = 0; i < kFillerBlocks; ++i) {
      blocks.push_back(rng_.range(0, 1) == 0 ? Block::kReduce : Block::kSwitch);
    }
    rng_.shuffle(blocks);
    const std::size_t plant_at =
        static_cast<std::size_t>(rng_.range(0, blocks.size() - 1));
    std::size_t arith = 0, lock = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (plant != plants_.end() && b == plant_at) {
        emit_plant(w, plant->second, u, k);
      }
      const std::string base = u.module + "_" + std::to_string(k) + "_b" +
                               std::to_string(b);
      switch (blocks[b]) {
        case Block::kArith: emit_arith(w, u.functions[arith++]); break;
        case Block::kMembers: emit_members(w, u); break;
        case Block::kLock: emit_locked(w, base + "_add", u.locks[lock++]); break;
        case Block::kHot:
          emit_hot(w, base + "_hot",
                   u.functions[rng_.range(0, u.functions.size() - 1)],
                   u.functions[rng_.range(0, u.functions.size() - 1)], u.cold);
          break;
        case Block::kReduce: emit_reduce(w, base + "_mean"); break;
        case Block::kSwitch: emit_switch(w, base + "_bucket"); break;
      }
    }
    w.line("}  // namespace rme::" + u.module);
    corpus_.files.push_back({u.source, w.take()});
  }

  void emit_umbrella() {
    Writer w;
    w.line("#pragma once");
    w.line("// Umbrella header of the generated corpus.");
    for (const Module& m : modules()) {
      w.line("#include \"" + include_path(units_[by_module_[m.name][0]].header) +
             "\"");
    }
    corpus_.files.push_back({"src/rme/rme.hpp", w.take()});
  }

  /// A random unit with a source file, for tests and benches to call.
  const Unit& any_unit() {
    for (;;) {
      const Unit& u = units_[rng_.range(0, units_.size() - 1)];
      if (!u.source.empty()) return u;
    }
  }

  void emit_test(int i) {
    const Unit& u = any_unit();
    const bool locked = i < kTestLockGuards;
    Writer w;
    w.line("// Generated test file " + std::to_string(i) + ".");
    preamble(w, rng_, 4);
    w.line("#include <gtest/gtest.h>");
    if (locked) w.line("#include <mutex>");
    w.line("");
    w.line("#include \"" + include_path(u.header) + "\"");
    w.line("");
    w.line("namespace {");
    w.line("");
    for (int t = 0; t < 20; ++t) {
      const std::string& f = u.functions[rng_.range(0, u.functions.size() - 1)];
      w.line("TEST(" + camel(u.stem) + "Test, Case" + std::to_string(t) + ") {");
      w.line("  const double got = rme::" + u.module + "::" + f + "(" +
             num(rng_) + ", " + num(rng_) + ");");
      w.line("  EXPECT_GT(got, -" + num(rng_) + ");");
      w.line("  EXPECT_LT(got, " + std::to_string(rng_.range(1000, 9000)) + ".0);");
      w.line("}");
      w.line("");
    }
    if (locked) {
      const std::string& f = u.functions[0];
      w.line("TEST(" + camel(u.stem) + "Test, UnderLock) {");
      w.line("  std::mutex mu;");
      w.line("  double total = 0.0;");
      w.line("  {");
      w.line("    std::lock_guard<std::mutex> lock(mu);");
      w.line("    total += rme::" + u.module + "::" + f + "(" + num(rng_) +
             ", " + num(rng_) + ");");
      w.line("  }");
      w.line("  EXPECT_GT(total, -" + num(rng_) + ");");
      w.line("}");
      w.line("");
    }
    w.line("}  // namespace");
    corpus_.files.push_back({"tests/test_gen_" + std::to_string(i) + ".cpp",
                             w.take()});
  }

  void emit_bench_common() {
    Writer w;
    w.line("#pragma once");
    w.line("// Shared helpers of the generated benches.");
    w.line("#include <cstdio>");
    w.line("inline void report_value(const char* label, double v) {");
    w.line("  std::printf(\"%s %g\\n\", label, v);");
    w.line("}");
    corpus_.files.push_back({"bench/bench_common.hpp", w.take()});
  }

  void emit_main_body(Writer& w, const Unit& u, int rounds) {
    w.line("int main() {");
    w.line("  double acc = 0.0;");
    for (int r = 0; r < rounds; ++r) {
      const std::string& f = u.functions[rng_.range(0, u.functions.size() - 1)];
      w.line("  for (int i = 0; i < " + std::to_string(rng_.range(10, 99)) +
             "; ++i) {");
      w.line("    acc += rme::" + u.module + "::" + f +
             "(static_cast<double>(i), " + num(rng_) + ");");
      w.line("  }");
    }
    w.line("  report_value(\"acc\", acc);");
    w.line("  return 0;");
    w.line("}");
  }

  void emit_bench(int i) {
    const Unit& u = any_unit();
    Writer w;
    w.line("// Generated bench " + std::to_string(i) + ".");
    w.line("#include \"bench_common.hpp\"");
    w.line("#include \"" + include_path(u.header) + "\"");
    w.line("");
    emit_main_body(w, u, 36);
    corpus_.files.push_back({"bench/bench_gen_" + std::to_string(i) + ".cpp",
                             w.take()});
  }

  void emit_tool(int i) {
    const Unit& u = any_unit();
    Writer w;
    w.line("// Generated tool " + std::to_string(i) + ".");
    w.line("#include <cstdio>");
    w.line("#include \"" + include_path(u.header) + "\"");
    w.line("");
    w.line("namespace {");
    w.line("inline void report_value(const char* label, double v) {");
    w.line("  std::printf(\"%s %g\\n\", label, v);");
    w.line("}");
    w.line("}  // namespace");
    w.line("");
    emit_main_body(w, u, 90);
    corpus_.files.push_back({"tools/tool_gen_" + std::to_string(i) + ".cpp",
                             w.take()});
  }

  Rng rng_;
  std::vector<Unit> units_;
  std::map<std::string, std::vector<std::size_t>> by_module_;
  std::map<std::size_t, Plant> plants_;
  Corpus corpus_;
};

}  // namespace

Corpus make_corpus(std::uint64_t seed) { return Generator(seed).run(); }

bool write_corpus(const Corpus& corpus, const std::string& root) {
  namespace fs = std::filesystem;
  for (const CorpusFile& f : corpus.files) {
    const fs::path path = fs::path(root) / f.path;
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << f.text;
    out.flush();
    if (!out.good()) return false;
  }
  return true;
}

}  // namespace perfbench
