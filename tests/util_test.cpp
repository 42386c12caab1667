#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "sort_percentile.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace lp {
namespace {

TEST(Units, DurationConversions) {
  const Duration d = Duration::micros(3.7);
  EXPECT_DOUBLE_EQ(d.to_seconds(), 3.7e-6);
  EXPECT_DOUBLE_EQ(d.to_nanos(), 3700.0);
  EXPECT_DOUBLE_EQ(d.to_millis(), 3.7e-3);
}

TEST(Units, DurationArithmetic) {
  EXPECT_DOUBLE_EQ((Duration::micros(2) + Duration::micros(3)).to_micros(), 5.0);
  EXPECT_NEAR((Duration::micros(5) - Duration::micros(3)).to_micros(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ((Duration::micros(2) * 3.0).to_micros(), 6.0);
  EXPECT_DOUBLE_EQ(Duration::micros(6) / Duration::micros(2), 3.0);
  EXPECT_LT(Duration::micros(1), Duration::micros(2));
  EXPECT_TRUE(Duration::infinite() > Duration::seconds(1e12));
  EXPECT_FALSE(Duration::infinite().is_finite());
}

TEST(Units, TimePointAlgebra) {
  const TimePoint t0 = TimePoint::at_seconds(1.0);
  const TimePoint t1 = t0 + Duration::millis(500);
  EXPECT_DOUBLE_EQ(t1.to_seconds(), 1.5);
  EXPECT_EQ(t1 - t0, Duration::millis(500));
}

TEST(Units, DataSizeConversions) {
  EXPECT_DOUBLE_EQ(DataSize::kib(1).to_bytes(), 1024.0);
  EXPECT_DOUBLE_EQ(DataSize::mib(1).to_bytes(), 1048576.0);
  EXPECT_DOUBLE_EQ(DataSize::gib(1).to_mib(), 1024.0);
  EXPECT_DOUBLE_EQ(DataSize::bytes(10).to_bits(), 80.0);
}

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(Bandwidth::gbps(224).to_bps(), 224e9);
  EXPECT_DOUBLE_EQ(Bandwidth::gBps(300).to_gbps(), 2400.0);
  EXPECT_DOUBLE_EQ(Bandwidth::gBps(300).to_gBps(), 300.0);
  EXPECT_TRUE(Bandwidth::zero().is_zero());
}

TEST(Units, TransferTime) {
  // 1 GiB at 8 Gbps = 1.073741824 s.
  const Duration t = transfer_time(DataSize::gib(1), Bandwidth::gbps(8));
  EXPECT_NEAR(t.to_seconds(), 1.073741824, 1e-9);
  const DataSize back = data_at(Bandwidth::gbps(8), t);
  EXPECT_NEAR(back.to_bytes(), DataSize::gib(1).to_bytes(), 1.0);
}

TEST(Units, DecibelRoundTrip) {
  const Decibel d = Decibel::db(3.0103);
  EXPECT_NEAR(d.to_linear(), 2.0, 1e-4);
  EXPECT_NEAR(Decibel::from_linear(10.0).value(), 10.0, 1e-12);
  EXPECT_EQ((Decibel::db(1) + Decibel::db(2)).value(), 3.0);
}

TEST(Units, PowerAttenuation) {
  const Power p = Power::dbm(10.0);
  EXPECT_NEAR(p.to_milliwatts(), 10.0, 1e-9);
  const Power attenuated = p.attenuated_by(Decibel::db(10.0));
  EXPECT_NEAR(attenuated.to_dbm(), 0.0, 1e-9);
  EXPECT_NEAR(attenuated.to_milliwatts(), 1.0, 1e-9);
}

TEST(Units, LengthConversions) {
  EXPECT_DOUBLE_EQ(Length::microns(3).to_meters(), 3e-6);
  EXPECT_DOUBLE_EQ(Length::millimeters(25).to_microns(), 25000.0);
  EXPECT_DOUBLE_EQ(Length::millimeters(25) / Length::microns(3), 25000.0 / 3.0);
}

TEST(Rng, Deterministic) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexUnbiasedish) {
  Rng rng{11};
  std::vector<int> counts(7, 0);
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 7, 500);
}

TEST(Rng, NormalMoments) {
  Rng rng{13};
  Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng{17};
  Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliRate) {
  Rng rng{19};
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent{23};
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, SummarySingleSampleVarianceZero) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, HistogramBinning) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.5);
  EXPECT_DOUBLE_EQ(h.density(3), 0.1);
}

TEST(Stats, HistogramOverUnderflow) {
  Histogram h{0.0, 1.0, 4};
  h.add(-5.0);
  h.add(9.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_FALSE(h.to_ascii().empty());
}

TEST(Stats, PercentileInterpolation) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Stats, PercentilesMatchSortReference) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const std::vector<double> ascending{0.0, 25.0, 50.0, 99.0, 99.9, 100.0};
  Rng rng{21};
  for (int c = 0; c < 400; ++c) {
    SCOPED_TRACE(c);
    // Sizes 0-3 first, then up to a few thousand; most draws come from a few
    // distinct values, so ties straddle every rank.  Every fifth input holds
    // one +inf, where the interpolation's inf x 0 must match too.
    const std::size_t n = c < 40 ? static_cast<std::size_t>(c % 4)
                                 : 1 + rng.uniform_index(4000);
    const std::uint64_t distinct = 1 + rng.uniform_index(c % 2 == 0 ? 5 : 100000);
    std::vector<double> xs(n);
    for (double& x : xs) x = static_cast<double>(rng.uniform_index(distinct)) * 0.37 - 3.0;
    if (c % 5 == 4 && n > 0) xs[rng.uniform_index(n)] = std::numeric_limits<double>::infinity();
    std::vector<double> ps = ascending;
    if (c % 3 != 0) std::shuffle(ps.begin(), ps.end(), rng);
    const std::vector<double> got = percentiles(xs, ps);
    ASSERT_EQ(got.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const double want = reference::sort_percentile(xs, ps[i]);
      EXPECT_EQ(bits(got[i]), bits(want)) << "n " << n << " p " << ps[i];
      EXPECT_EQ(bits(percentile(xs, ps[i])), bits(want)) << "n " << n << " p " << ps[i];
      if (n == 0) {
        EXPECT_TRUE(std::isnan(got[i]));
      }
    }
  }
}

TEST(Stats, LinearFitExact) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, -7.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, ExponentialApproachFitRecoversTau) {
  // y(t) = 1 - exp(-t / 2.5us)
  std::vector<double> ts, ys;
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.1e-6;
    ts.push_back(t);
    ys.push_back(1.0 - std::exp(-t / 2.5e-6));
  }
  const auto fit = fit_exponential_approach(ts, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->tau, 2.5e-6, 0.1e-6);
  EXPECT_GT(fit->r_squared, 0.99);
}

TEST(Stats, ExponentialApproachRejectsFlat) {
  std::vector<double> ts, ys;
  for (int i = 0; i < 50; ++i) {
    ts.push_back(i);
    ys.push_back(1.0);
  }
  EXPECT_FALSE(fit_exponential_approach(ts, ys).has_value());
}

TEST(Stats, GaussianFit) {
  Rng rng{29};
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.normal(0.25, 0.08));
  const GaussianFit fit = fit_gaussian(xs);
  EXPECT_NEAR(fit.mean, 0.25, 0.005);
  EXPECT_NEAR(fit.sigma, 0.08, 0.005);
}

TEST(Result, OkAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad = Err("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
  EXPECT_FALSE(static_cast<bool>(bad));
}

}  // namespace
}  // namespace lp
