// Timing summaries under the tail-sample rule: a percentile is reported
// only when at least ten samples lie beyond it, so below 40 samples a
// summary is the median alone (the 75th percentile would need 40).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace framebench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr std::size_t kTailSamples = 10;

/// Median (mean of the two middle values for an even count).  Requires a
/// non-empty sample.
double median(std::vector<double> samples);

/// The q-quantile (0 < q < 1, nearest rank) when at least kTailSamples
/// samples lie beyond it; nullopt otherwise.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// Median plus the highest of {0.999, 0.99, 0.95, 0.9, 0.75} that the
/// sample supports (tail_q == 0 when none does).
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
};

Summary summarize(const std::vector<double>& samples);

}  // namespace framebench
