#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace framebench {

double median(std::vector<double> samples) {
  if (samples.empty()) {
    std::fprintf(stderr, "framebench: median of an empty sample\n");
    std::abort();
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (!(q > 0.0 && q < 1.0) || n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < kTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.median = median(samples);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (auto v = tail_percentile(samples, q)) {
      s.tail_q = q;
      s.tail = *v;
      break;
    }
  }
  return s;
}

}  // namespace framebench
