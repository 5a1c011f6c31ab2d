#include "frames.hpp"

#include <cmath>

#include "stats.hpp"

namespace perfbench {

namespace {

/// What one frame asks for before its numbers are drawn.
struct Kind {
  const char* op;
  std::size_t items;
};

/// serve_small: per block of 50 frames, 40 predicts (1-8 items, five
/// of each size), 6 ranks (3-8 variants), 3 whatifs (2 kernels) and one
/// stats.  80 blocks.
std::vector<Kind> small_kinds() {
  std::vector<Kind> kinds;
  for (int block = 0; block < 80; ++block) {
    for (std::size_t n = 1; n <= 8; ++n) {
      for (int r = 0; r < 5; ++r) kinds.push_back({"predict", n});
    }
    for (std::size_t n = 3; n <= 8; ++n) kinds.push_back({"rank", n});
    for (int r = 0; r < 3; ++r) kinds.push_back({"whatif", 2});
    kinds.push_back({"stats", 0});
  }
  return kinds;
}

/// The row-arm probe: 64 predicts, batch sizes spread evenly over
/// 256-1024.
std::vector<Kind> bulk_kinds() {
  constexpr std::size_t kCount = 64;
  std::vector<Kind> kinds;
  for (std::size_t i = 0; i < kCount; ++i) {
    kinds.push_back({"predict", 256 + (768 * (2 * i + 1)) / (2 * kCount)});
  }
  return kinds;
}

std::string integer_text(double v) {
  return std::to_string(static_cast<std::uint64_t>(v));
}

/// Log-uniform integer in [1e6, 1e10]: the scale of the paper's kernels.
double draw_count(Rng& rng) {
  return std::round(std::pow(10.0, 6.0 + 4.0 * rng.uniform()));
}

void append_batch(Rng& rng, Frame& frame, std::size_t n, std::string& text) {
  static const char* const kPrecision[] = {"", ",\"precision\":\"single\"",
                                           ",\"precision\":\"double\""};
  text += '[';
  for (std::size_t i = 0; i < n; ++i) {
    Item item{draw_count(rng), draw_count(rng)};
    text += i ? ",{\"name\":\"k" : "{\"name\":\"k";
    text += std::to_string(i);
    text += "\",\"flops\":";
    text += integer_text(item.flops);
    text += ",\"bytes\":";
    text += integer_text(item.bytes);
    text += kPrecision[rng.range(0, 2)];
    text += '}';
    frame.items.push_back(item);
  }
  text += ']';
}

Frame make_frame(const Kind& kind, Rng& rng) {
  static const char* const kRankBy[] = {"energy", "time", "edp", "greenup"};
  static const char* const kEdit[] = {"gflops", "gbs", "eps_flop_pj",
                                      "eps_mem_pj", "pi0_w"};
  static const std::uint64_t kEditLo[] = {50, 20, 10, 50, 0};
  static const std::uint64_t kEditHi[] = {2000, 500, 500, 1000, 200};

  Frame frame;
  frame.op = kind.op;
  frame.prefix = std::string("{\"op\":\"") + kind.op + "\",\"id\":";
  std::string& text = frame.suffix;
  if (frame.op != "stats") {
    const auto& machines = target_machines();
    frame.machine = machines[rng.range(0, machines.size() - 1)];
    text += ",\"machine\":\"" + frame.machine + "\"";
  }
  if (frame.op == "predict") {
    text += ",\"batch\":";
    append_batch(rng, frame, kind.items, text);
  } else if (frame.op == "rank") {
    text += ",\"by\":\"";
    text += kRankBy[rng.range(0, 3)];
    text += "\",\"variants\":";
    append_batch(rng, frame, kind.items, text);
  } else if (frame.op == "whatif") {
    text += ",\"batch\":";
    append_batch(rng, frame, kind.items, text);
    const std::size_t e = static_cast<std::size_t>(rng.range(0, 4));
    text += ",\"edits\":{\"";
    text += kEdit[e];
    text += "\":";
    text += std::to_string(rng.range(kEditLo[e], kEditHi[e]));
    text += '}';
  }
  text += "}\n";
  return frame;
}

}  // namespace

const std::vector<std::string>& target_machines() {
  static const std::vector<std::string> kMachines = {
      "fermi", "gtx580-sp", "gtx580-dp", "i7-sp", "i7-dp", "fit-sp", "fit-dp"};
  return kMachines;
}

std::string ingest_frame(std::string_view artifact_path) {
  return "{\"op\":\"ingest\",\"id\":\"setup\",\"name\":\"fit\",\"artifact\":\"" +
         std::string(artifact_path) + "\"}\n";
}

std::vector<Frame> make_frames(Mix mix, std::uint64_t seed) {
  std::vector<Kind> kinds = mix == Mix::kSmall ? small_kinds() : bulk_kinds();
  Rng order(derive(seed, 1));
  order.shuffle(kinds);
  Rng values(derive(seed, 2));
  std::vector<Frame> frames;
  frames.reserve(kinds.size());
  for (const Kind& kind : kinds) frames.push_back(make_frame(kind, values));
  return frames;
}

void render(const Frame& f, std::uint64_t id, std::string& out) {
  out.clear();
  out += f.prefix;
  out += std::to_string(id);
  out += f.suffix;
}

void expected_head(const Frame& f, std::uint64_t id, std::string& out) {
  out.clear();
  out += "{\"ok\":true,\"op\":\"";
  out += f.op;
  out += "\",\"id\":";
  out += std::to_string(id);
  out += ",\"gen\":";
}

}  // namespace perfbench
