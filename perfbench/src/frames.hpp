#pragma once
// Seeded request streams for the serve workload.
//
// The composition of a stream — how many frames of each endpoint, and
// the multiset of batch sizes — is fixed by the workload; the seed
// shuffles the order and draws every number, name and machine.  Runs
// with different seeds therefore differ in their inputs but not in
// their work mix, which is what keeps a run's throughput from moving
// with its seed.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Mix {
  kSmall,  ///< serve_small: predicts of 1-8 items, small ranks/whatifs.
  kBulk,   ///< Predicts of 256-1024 items: the row-arm probe of the
           ///< traced run (exec::parallel_map engages at >= 32 items).
};

/// One batch entry as generated (the checker recomputes it).
struct Item {
  double flops = 0.0;
  double bytes = 0.0;
};

struct Frame {
  std::string op;       ///< predict, rank, whatif or stats.
  std::string machine;  ///< Registry key; empty for stats.
  std::vector<Item> items;
  std::string prefix;   ///< Frame text up to the id value.
  std::string suffix;   ///< Frame text after the id value, with '\n'.
};

/// The seven registry keys the streams target: the five presets and
/// the two machines the set-up ingest installs.
[[nodiscard]] const std::vector<std::string>& target_machines();

/// The set-up frame: ingests the golden session as `fit-sp`/`fit-dp`.
[[nodiscard]] std::string ingest_frame(std::string_view artifact_path);

/// The stream for `mix`, a pure function of (mix, seed).
[[nodiscard]] std::vector<Frame> make_frames(Mix mix, std::uint64_t seed);

/// Writes frame `f` with request id `id` into `out` (cleared first,
/// capacity kept).
void render(const Frame& f, std::uint64_t id, std::string& out);

/// The exact opening every correct answer to `f` with `id` has:
/// {"ok":true,"op":"<op>","id":<id>,"gen":
void expected_head(const Frame& f, std::uint64_t id, std::string& out);

}  // namespace perfbench
