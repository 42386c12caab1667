#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

namespace lp {

void Summary::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Summary::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, width_{(hi - lo) / static_cast<double>(bins)}, counts_(bins, 0) {}

void Histogram::add(double x) {
  ++total_;
  auto idx = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width_));
  if (idx < 0) {
    ++underflow_;
    idx = 0;
  } else if (idx >= static_cast<std::ptrdiff_t>(counts_.size())) {
    ++overflow_;
    idx = static_cast<std::ptrdiff_t>(counts_.size()) - 1;
  }
  ++counts_[static_cast<std::size_t>(idx)];
}

double Histogram::bin_center(std::size_t bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::string Histogram::to_ascii(std::size_t max_width) const {
  const std::size_t peak = counts_.empty()
                               ? 0
                               : *std::max_element(counts_.begin(), counts_.end());
  std::ostringstream out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const std::size_t bar =
        peak == 0 ? 0 : counts_[b] * max_width / peak;
    out << "  ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%10.4f", bin_center(b));
    out << buf << " | " << std::string(bar, '#') << " " << counts_[b] << "\n";
  }
  return out.str();
}

double percentile(std::span<const double> xs, double p) {
  return percentiles(xs, {p}).front();
}

std::vector<double> percentiles(std::span<const double> xs, const std::vector<double>& ps) {
  // Nothing to interpolate: NaN for no sample, the sample itself for one.
  const double none = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> out(ps.size(), xs.size() == 1 ? xs.front() : none);
  if (xs.size() <= 1) return out;
  std::vector<double> v(xs.begin(), xs.end());
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps[a] < ps[b]; });
  // After each selection everything from `at` on is >= *at, so the next,
  // higher rank is selected from there.
  auto from = v.begin();
  for (const std::size_t i : order) {
    const double rank = std::clamp(ps[i], 0.0, 100.0) / 100.0 *
                        static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    const auto at = v.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(from, at, v.end());
    // The upper neighbour is the least element above the lower one.
    const double upper = hi == lo ? *at : *std::min_element(at + 1, v.end());
    out[i] = *at * (1.0 - frac) + upper * frac;
    from = at;
  }
  return out;
}

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  LinearFit fit;
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return fit;
  const double nd = static_cast<double>(n);
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = nd * sxx - sx * sx;
  if (denom == 0.0) return fit;
  fit.slope = (nd * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / nd;
  const double ss_tot = syy - sy * sy / nd;
  if (ss_tot > 0.0) {
    double ss_res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = ys[i] - (fit.slope * xs[i] + fit.intercept);
      ss_res += e * e;
    }
    fit.r_squared = 1.0 - ss_res / ss_tot;
  }
  return fit;
}

std::optional<ExponentialApproachFit> fit_exponential_approach(
    std::span<const double> ts, std::span<const double> ys) {
  const std::size_t n = std::min(ts.size(), ys.size());
  if (n < 10) return std::nullopt;

  // Estimate endpoints from the first and last deciles of the trace.
  const std::size_t decile = std::max<std::size_t>(1, n / 10);
  double y0 = 0.0, y_inf = 0.0;
  for (std::size_t i = 0; i < decile; ++i) y0 += ys[i];
  for (std::size_t i = n - decile; i < n; ++i) y_inf += ys[i];
  y0 /= static_cast<double>(decile);
  y_inf /= static_cast<double>(decile);

  const double amplitude = y0 - y_inf;
  if (std::abs(amplitude) < 1e-12) return std::nullopt;

  // Linearize: log|y - y_inf| = log|amplitude| - t/tau.  Only samples with a
  // meaningful residual contribute (within [2%, 98%] of the swing).
  std::vector<double> lt, lr;
  lt.reserve(n);
  lr.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double resid = (ys[i] - y_inf) / amplitude;
    if (resid > 0.02 && resid < 0.98) {
      lt.push_back(ts[i]);
      lr.push_back(std::log(resid));
    }
  }
  if (lt.size() < 4) return std::nullopt;
  const LinearFit line = fit_linear(lt, lr);
  if (line.slope >= 0.0) return std::nullopt;

  ExponentialApproachFit fit;
  fit.y0 = y0;
  fit.y_inf = y_inf;
  fit.tau = -1.0 / line.slope;
  fit.r_squared = line.r_squared;
  return fit;
}

GaussianFit fit_gaussian(std::span<const double> xs) {
  Summary s;
  for (double x : xs) s.add(x);
  return GaussianFit{.mean = s.mean(), .sigma = s.stddev()};
}

}  // namespace lp
