#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, unsigned pct) {
  return (static_cast<std::size_t>(pct) * n + 99) / 100;  // ceil(pct*n/100)
}

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

double percentile(std::vector<double> values, unsigned pct) {
  if (values.empty() || pct == 0 || pct > 100) {
    throw std::invalid_argument("percentile of an empty sample");
  }
  const std::size_t rank = rank_of(values.size(), pct);
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double median_of(std::vector<double> values) {
  return values.empty() ? 0.0 : percentile(std::move(values), 50);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::size_t samples_beyond(std::size_t n, unsigned pct) {
  return n - rank_of(n, pct);
}

std::size_t min_samples_for(unsigned pct, std::size_t beyond) {
  std::size_t n = beyond + 1;
  while (samples_beyond(n, pct) < beyond) ++n;
  return n;
}

double windowed_rate(const std::vector<double>& busy_seconds,
                     std::size_t windows) {
  const std::size_t n = busy_seconds.size();
  if (n == 0 || windows == 0) return 0.0;
  const std::size_t groups = std::min(windows, n);
  std::vector<double> rates;
  rates.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t lo = g * n / groups;
    const std::size_t hi = (g + 1) * n / groups;
    double busy = 0.0;
    for (std::size_t i = lo; i < hi; ++i) busy += busy_seconds[i];
    if (busy > 0.0) rates.push_back(static_cast<double>(hi - lo) / busy);
  }
  return rates.empty() ? 0.0 : percentile(std::move(rates), 50);
}

LatencySummary summarize_latency(const std::vector<double>& values,
                                 unsigned tail_pct, std::size_t max_windows,
                                 std::size_t beyond) {
  LatencySummary out;
  const std::size_t n = values.size();
  out.samples = n;
  if (n == 0) return out;
  out.windows = std::clamp<std::size_t>(n / min_samples_for(tail_pct, beyond),
                                        1, std::max<std::size_t>(max_windows, 1));
  out.beyond = n;
  std::vector<double> p50s, tails;
  for (std::size_t g = 0; g < out.windows; ++g) {
    const auto lo = values.begin() + static_cast<std::ptrdiff_t>(g * n / out.windows);
    const auto hi =
        values.begin() + static_cast<std::ptrdiff_t>((g + 1) * n / out.windows);
    const std::vector<double> window(lo, hi);
    p50s.push_back(percentile(window, 50));
    tails.push_back(percentile(window, tail_pct));
    out.beyond = std::min(out.beyond, samples_beyond(window.size(), tail_pct));
  }
  out.p50 = percentile(std::move(p50s), 50);
  out.tail = percentile(std::move(tails), 50);
  return out;
}

double failure_share(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

std::uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  return mix(state_);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

std::uint64_t derive(std::uint64_t base, std::uint64_t tag) {
  return mix(mix(base) ^ (tag * 0xD1B54A32D192ED03ULL + 1));
}

}  // namespace perfbench
