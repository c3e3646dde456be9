// The benchmark's one statistics and timing helper.
//
// Every workload and the per-layer ledger time through here, so there is
// exactly one definition of "median", "quartile" and "tail percentile":
//
//  * summarize() reports the sample count, median, quartiles and the
//    highest percentile of a fixed ladder (p50 ... p99.99) that still has
//    at least ten samples beyond it — a p99 over 300 samples is not
//    reported as one;
//  * split_windows() groups timed samples into fixed windows, for
//    per-window rates and percentiles whose median one stall cannot move;
//  * time_calls() runs a body until a time budget is spent (and at least
//    a minimum number of times) and returns each call's duration.
//
// Percentiles use the nearest-rank definition on the sorted samples.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

/// Nearest-rank percentile `p` (0..100) of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

struct Summary {
  std::size_t count = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  /// Highest ladder percentile with >= 10 samples beyond it (0 when the
  /// sample is too small for even the median to qualify).
  double tail_percentile = 0.0;
  double tail = 0.0;
  /// p99 when the sample supports it, otherwise the supported tail.
  double p99 = 0.0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary summary;
  std::sort(samples.begin(), samples.end());
  summary.count = samples.size();
  if (samples.empty()) return summary;
  summary.median = percentile_sorted(samples, 50.0);
  summary.q1 = percentile_sorted(samples, 25.0);
  summary.q3 = percentile_sorted(samples, 75.0);
  summary.max = samples.back();
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
    if (beyond < 10.0) break;
    summary.tail_percentile = p;
    summary.tail = percentile_sorted(samples, p);
  }
  if (summary.tail_percentile == 0.0) summary.tail = summary.max;
  summary.p99 = summary.tail_percentile >= 99.0
                    ? percentile_sorted(samples, 99.0)
                    : summary.tail;
  return summary;
}

/// Groups (time, value) samples into consecutive windows of `window`
/// seconds covering [0, duration); samples in a trailing partial window
/// are dropped. Per-window figures (a rate, a p99) and then their median
/// keep one stall from deciding a whole run's number.
inline std::vector<std::vector<double>> split_windows(
    const std::vector<std::pair<double, double>>& samples, double window,
    double duration) {
  const std::size_t count = static_cast<std::size_t>(duration / window);
  std::vector<std::vector<double>> windows(count);
  for (const auto& [time, value] : samples) {
    if (time < 0.0) continue;
    const std::size_t index = static_cast<std::size_t>(time / window);
    if (index < count) windows[index].push_back(value);
  }
  return windows;
}

/// Calls `body()` until `budget_seconds` have passed and at least
/// `min_calls` calls were made; returns each call's duration in seconds.
template <typename Body>
std::vector<double> time_calls(double budget_seconds, std::size_t min_calls,
                               Body&& body) {
  std::vector<double> durations;
  const Clock::time_point start = Clock::now();
  while (durations.size() < min_calls || seconds_since(start) < budget_seconds) {
    const Clock::time_point call = Clock::now();
    body();
    durations.push_back(seconds_since(call));
  }
  return durations;
}

}  // namespace perfbench
