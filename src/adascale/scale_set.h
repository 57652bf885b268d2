// Scale sets (nominal shortest-side sizes) used throughout the paper.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <string>
#include <vector>

namespace ada {

/// An ordered set of nominal scales, largest first (paper convention).
struct ScaleSet {
  std::vector<int> scales;

  /// Smallest member (m_min in Eq. 3).  Requires a non-empty set.
  int min() const {
    assert(!scales.empty());
    return *std::min_element(scales.begin(), scales.end());
  }
  /// Largest member (m_max in Eq. 3).  Requires a non-empty set.
  int max() const {
    assert(!scales.empty());
    return *std::max_element(scales.begin(), scales.end());
  }
  /// Number of scales in the set.
  int count() const { return static_cast<int>(scales.size()); }
  /// True when `s` is a member.
  bool contains(int s) const {
    return std::find(scales.begin(), scales.end(), s) != scales.end();
  }

  /// Nearest member to `s`; ties resolve to the larger scale (accuracy-
  /// conservative).  Serving uses this to quantize regressed target scales
  /// onto the set, so streams render a closed set of shapes.
  int nearest(int s) const {
    assert(!scales.empty());
    int best = scales.front();
    int best_d = std::abs(best - s);
    for (int m : scales) {
      const int d = std::abs(m - s);
      if (d < best_d || (d == best_d && m > best)) {
        best = m;
        best_d = d;
      }
    }
    return best;
  }

  /// "{600,480,...}" — used in cache fingerprints and labels.
  std::string to_string() const {
    std::string out = "{";
    for (std::size_t i = 0; i < scales.size(); ++i) {
      out += std::to_string(scales[i]);
      if (i + 1 < scales.size()) out += ",";
    }
    return out + "}";
  }

  /// S_train of the main experiments: {600, 480, 360, 240} (Sec. 4.2).
  static ScaleSet train_default() { return ScaleSet{{600, 480, 360, 240}}; }

  /// S_reg = S_train + {128}: 128 is the smallest anchor scale, included so
  /// the regressor can push images as small as possible (Sec. 4.2).
  static ScaleSet reg_default() { return ScaleSet{{600, 480, 360, 240, 128}}; }
};

}  // namespace ada
