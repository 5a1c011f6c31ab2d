#pragma once
// The analyze_tree input: a seeded C++ corpus shaped like the
// repository's own tree (the src/rme/<module>/ layout with the same
// file count per module and tree, includes that respect the declared
// layer DAG, and the tree's counts of `// rme-hot:` roots, `// rme-cold:`
// cut points, RAII lock sites and member-function definitions, with
// classes and lambdas), so the workload's input stays fixed while the
// real tree changes from commit to commit.
//
// Filler code is clean under every analyzer rule; a seeded set of
// planted defects, one per rule family, is the corpus's expected
// output.  Each planted site records the rule and line it must be
// reported at.

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

namespace perfbench {

struct CorpusFile {
  std::string path;  ///< Relative: src/rme/<module>/..., tests/..., ...
  std::string text;
};

/// A finding the analyzer must report: rule, file and 1-based line.
struct Planted {
  std::string rule;
  std::string file;
  std::size_t line = 0;

  [[nodiscard]] bool operator<(const Planted& o) const {
    return std::tie(file, line, rule) < std::tie(o.file, o.line, o.rule);
  }
  [[nodiscard]] bool operator==(const Planted&) const = default;
};

struct Corpus {
  std::vector<CorpusFile> files;  ///< In path order.
  std::vector<Planted> expected;  ///< Sorted.
};

/// A pure function of the seed.
[[nodiscard]] Corpus make_corpus(std::uint64_t seed);

/// Writes every file under `root` (created); false on I/O failure.
[[nodiscard]] bool write_corpus(const Corpus& corpus, const std::string& root);

}  // namespace perfbench
