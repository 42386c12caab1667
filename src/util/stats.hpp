// Small statistics toolkit used by the experiment harnesses: streaming
// summaries, fixed-bin histograms, percentiles, and the least-squares fits
// (linear, exponential-approach) used to reproduce the paper's Figure 3
// device characterizations.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lp {

/// Streaming mean/variance/min/max via Welford's algorithm.
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Fixed-range, equal-width histogram.
class Histogram {
 public:
  /// Bins the half-open range [lo, hi) into `bins` equal cells.  Samples
  /// outside the range are clamped into the first/last bin and counted in
  /// underflow()/overflow().
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] double bin_center(std::size_t bin) const;
  [[nodiscard]] double bin_width() const { return width_; }

  /// Fraction of samples in `bin` (0 if empty histogram).
  [[nodiscard]] double density(std::size_t bin) const;

  /// Renders an ASCII bar chart, one bin per row, for benchmark reports.
  [[nodiscard]] std::string to_ascii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_{0};
  std::size_t underflow_{0};
  std::size_t overflow_{0};
};

/// Returns the p-th percentile (p in [0,100], clamped) by linear
/// interpolation between the order statistics around rank p/100 x (n - 1);
/// NaN for an empty input.  The input need not be sorted.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// percentile(xs, p) for each p in `ps`, in the order given.  Exact by
/// selection: one copy of `xs`, then per rank in ascending order one
/// std::nth_element over the part of the copy at and above the previous
/// rank, so a few ranks cost O(n) expected instead of a sort.
[[nodiscard]] std::vector<double> percentiles(std::span<const double> xs,
                                              const std::vector<double>& ps);

/// Ordinary least-squares line y = slope*x + intercept.
struct LinearFit {
  double slope{0.0};
  double intercept{0.0};
  double r_squared{0.0};
};
[[nodiscard]] LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Fit of a first-order step response y(t) = y_inf + (y0 - y_inf)*exp(-t/tau).
/// Used to extract the thermo-optic time constant from an MZI switching
/// transient the way the paper fits Figure 3a.
struct ExponentialApproachFit {
  double y0{0.0};
  double y_inf{0.0};
  double tau{0.0};
  double r_squared{0.0};
};

/// Fits the model above given samples of (t, y).  y0 and y_inf are taken
/// from the first/last deciles of the trace; tau is fit by linear regression
/// on log-transformed residuals.  Returns nullopt when the trace is too
/// short or does not decay.
[[nodiscard]] std::optional<ExponentialApproachFit> fit_exponential_approach(
    std::span<const double> ts, std::span<const double> ys);

/// Gaussian parameters estimated from samples (method of moments).
struct GaussianFit {
  double mean{0.0};
  double sigma{0.0};
};
[[nodiscard]] GaussianFit fit_gaussian(std::span<const double> xs);

}  // namespace lp
