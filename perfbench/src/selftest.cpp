// perfbench_selftest — tests of the benchmark's own logic: percentile
// selection and the ten-samples-beyond-the-tail rule, failure
// accounting, the windowed rate, and seed determinism of the frame
// streams and the analyzer corpus.  Exit 0 when every check holds.
//
//   python3 perfbench/run.py --selftest

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "corpus.hpp"
#include "frames.hpp"
#include "stats.hpp"

namespace {

int g_checks = 0;
int g_failures = 0;

void check(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void test_percentiles() {
  CHECK(percentile(one_to(100), 50) == 50);
  CHECK(percentile(one_to(100), 90) == 90);
  CHECK(percentile(one_to(100), 99) == 99);
  CHECK(percentile(one_to(100), 100) == 100);
  CHECK(percentile(one_to(1000), 99) == 990);
  CHECK(percentile(one_to(7), 50) == 4);
  CHECK(percentile(std::vector<double>{3.5}, 99) == 3.5);

  // At least ten samples beyond the reported tail.
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(samples_beyond(999, 99) == 9);
  CHECK(samples_beyond(100, 90) == 10);
  CHECK(samples_beyond(99, 90) == 9);
  CHECK(min_samples_for(99) == 1000);
  CHECK(min_samples_for(90) == 100);
  CHECK(min_samples_for(50) == 20);
  for (const unsigned pct : {50u, 90u, 99u}) {
    const std::size_t n = min_samples_for(pct);
    CHECK(samples_beyond(n, pct) >= 10);
    CHECK(samples_beyond(n - 1, pct) < 10);
  }
}

void test_rates() {
  CHECK(windowed_rate(std::vector<double>(20, 0.1), 20) == 10.0);
  // One slow window among twenty moves the median rate not at all.
  std::vector<double> busy(200, 0.01);
  for (int i = 0; i < 10; ++i) busy[static_cast<std::size_t>(i)] = 1.0;
  const double rate = windowed_rate(busy, 20);
  CHECK(rate > 99.99 && rate < 100.01);
  CHECK(windowed_rate({}, 20) == 0.0);
  CHECK(windowed_rate({0.5, 0.25}, 20) == 2.0);  // One window per op.
}

void test_failure_accounting() {
  CHECK(failure_share(0, 0) == 0.0);
  CHECK(failure_share(1, 4) == 0.25);
  CHECK(failure_share(0, 10) == 0.0);

  Result r;
  r.op(true);
  r.op(true);
  CHECK(r.correct() && r.attempted() == 2 && r.failed() == 0);
  r.op(false, "bad answer");
  CHECK(!r.correct() && r.attempted() == 3 && r.failed() == 1);
  r.lost(4, "daemon gone");
  CHECK(r.attempted() == 7 && r.failed() == 5);
  CHECK(failure_share(r.failed(), r.attempted()) == 5.0 / 7.0);

  Result daemon_only;
  daemon_only.check(false, "exit 1");
  CHECK(daemon_only.attempted() == 1 && daemon_only.failed() == 1);
}

std::string stream_bytes(Mix mix, std::uint64_t seed) {
  std::string all, one;
  const std::vector<Frame> frames = make_frames(mix, seed);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    render(frames[i], i, one);
    all += one;
  }
  return all;
}

std::map<std::string, std::size_t> composition(Mix mix, std::uint64_t seed) {
  std::map<std::string, std::size_t> counts;
  for (const Frame& f : make_frames(mix, seed)) {
    counts[f.op + "/" + std::to_string(f.items.size())] += 1;
  }
  return counts;
}

void test_frames() {
  for (const Mix mix : {Mix::kSmall, Mix::kBulk}) {
    const std::string a = stream_bytes(mix, 1);
    CHECK(a == stream_bytes(mix, 1));
    CHECK(a != stream_bytes(mix, 2));
    // The seed changes the inputs, never the work mix.
    CHECK(composition(mix, 1) == composition(mix, 2));
  }
  const std::vector<Frame> small = make_frames(Mix::kSmall, 3);
  CHECK(small.size() == 4000);
  std::set<std::string> machines;
  for (const Frame& f : small) {
    if (!f.machine.empty()) machines.insert(f.machine);
    if (f.op == "predict") CHECK(f.items.size() >= 1 && f.items.size() <= 8);
  }
  CHECK(machines.size() == target_machines().size());
  const std::vector<Frame> bulk = make_frames(Mix::kBulk, 3);
  bool bulk_sized = bulk.size() == 64;
  for (const Frame& f : bulk) {
    bulk_sized = bulk_sized && f.op == "predict" && f.items.size() >= 256 &&
                 f.items.size() <= 1024;
  }
  CHECK(bulk_sized);
}

void test_corpus() {
  const Corpus a = make_corpus(1);
  const Corpus b = make_corpus(1);
  const Corpus c = make_corpus(2);
  CHECK(a.files.size() == 298);
  bool same = a.files.size() == b.files.size();
  bool differs = false;
  for (std::size_t i = 0; same && i < a.files.size(); ++i) {
    same = a.files[i].path == b.files[i].path && a.files[i].text == b.files[i].text;
    differs = differs || a.files[i].text != c.files[i].text;
  }
  CHECK(same);
  CHECK(differs);
  CHECK(a.expected == b.expected);
  CHECK(a.expected != c.expected);

  // Every planted finding points into a file of the corpus, one site
  // per rule family (lock-discipline plants a lock() and an unlock()).
  std::set<std::string> paths;
  for (const CorpusFile& f : a.files) paths.insert(f.path);
  std::map<std::string, int> per_rule;
  for (const Planted& p : a.expected) {
    CHECK(paths.count(p.file) == 1);
    per_rule[p.rule] += 1;
  }
  CHECK(per_rule.size() == 11);
  CHECK(per_rule["lock-discipline"] == 2);

  // The densities taken from the tree: 12 hot roots, 13 cold cut
  // points, 70 RAII lock sites (43 lock_guard, 12 unique_lock, 15
  // scoped_lock), 163 member definitions (`XEngine::step` or
  // `XEngine::absorb`), for every seed.
  for (const Corpus* corpus : {&a, &c}) {
    const auto count = [&](const std::string& needle) {
      std::size_t n = 0;
      for (const CorpusFile& f : corpus->files) {
        for (std::size_t at = f.text.find(needle); at != std::string::npos;
             at = f.text.find(needle, at + 1)) {
          ++n;
        }
      }
      return n;
    };
    CHECK(count("// rme-hot:") == 12);
    CHECK(count("// rme-cold:") == 13);
    CHECK(count("std::lock_guard<") == 43);
    CHECK(count("std::unique_lock<") == 12);
    CHECK(count("std::scoped_lock ") == 15);
    CHECK(count("Engine::step(") + count("Engine::absorb(") == 163);
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_rates();
  test_failure_accounting();
  test_frames();
  test_corpus();
  std::printf("perfbench_selftest: %d checks, %d failed\n", g_checks,
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
