// Sort-based percentile, the reference the selection-based lp::percentiles
// is checked against: copy, sort, then interpolate linearly between the two
// order statistics around rank p/100 x (n - 1).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

namespace lp::reference {

inline double sort_percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace lp::reference
