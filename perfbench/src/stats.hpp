#pragma once
// Order statistics, rates and the seeded generator behind every input
// the benchmark makes.  Kept free of I/O so perfbench_selftest can pin
// each rule on known inputs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the value at 1-based rank ceil(pct * n / 100)
/// of the sorted sample (pct in 1..100).  The rank is computed in
/// integers, so p99 of 1000 samples is exactly the 990th.  Requires a
/// non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, unsigned pct);

/// The nearest-rank p50, or 0 for an empty sample (a layer a workload
/// never reached).
[[nodiscard]] double median_of(std::vector<double> values);

/// True when `a` and `b` are the same double, bit for bit.
[[nodiscard]] bool same_bits(double a, double b);

/// Samples ranked strictly after the nearest-rank percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, unsigned pct);

/// The smallest sample count that leaves at least `beyond` samples past
/// the percentile — the floor a run must reach before it may report it.
[[nodiscard]] std::size_t min_samples_for(unsigned pct,
                                          std::size_t beyond = 10);

/// Operations per second of busy time, robust to noise bursts: the ops
/// are split in order into `windows` consecutive groups of near-equal
/// size, each group's rate is its op count over its summed busy seconds,
/// and the result is the median group rate.  Fewer ops than windows
/// gives one group per op.
[[nodiscard]] double windowed_rate(const std::vector<double>& busy_seconds,
                                   std::size_t windows);

/// Per-operation latency as every workload reports it.  The run is
/// split, in order, into as many consecutive windows as leave each
/// window at least `beyond` samples past the tail percentile (at most
/// `max_windows`); p50 and the tail are taken per window and the median
/// window value is reported, so a noisy stretch of the run moves
/// neither figure.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  std::size_t samples = 0;
  std::size_t windows = 0;
  std::size_t beyond = 0;  ///< Samples past the tail in the smallest window.
};
[[nodiscard]] LatencySummary summarize_latency(
    const std::vector<double>& values, unsigned tail_pct,
    std::size_t max_windows = 20, std::size_t beyond = 10);

/// Failed operations as a share of those attempted; 0 when none were.
[[nodiscard]] double failure_share(std::uint64_t failed,
                                   std::uint64_t attempted);

/// splitmix64: a tiny generator whose stream is fixed by its seed on
/// every platform and standard library (std:: distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  [[nodiscard]] std::uint64_t next();
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();
  /// Uniform integer in [lo, hi].
  [[nodiscard]] std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(range(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a tag.
[[nodiscard]] std::uint64_t derive(std::uint64_t base, std::uint64_t tag);

}  // namespace perfbench
