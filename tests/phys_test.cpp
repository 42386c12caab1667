#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "phys/link_budget.hpp"
#include "phys/loss.hpp"
#include "phys/modulator.hpp"
#include "phys/mzi.hpp"
#include "phys/photodetector.hpp"
#include "phys/wdm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lp::phys {
namespace {

TEST(Wdm, SixteenChannelsByDefault) {
  const WdmGrid grid;
  EXPECT_EQ(grid.channel_count(), 16u);
  EXPECT_EQ(grid.channels().size(), 16u);
}

TEST(Wdm, WavelengthsSymmetricAroundCenter) {
  const WdmGrid grid{16, Length::microns(1.310), Length::microns(0.0008)};
  const double lo = grid.wavelength(0).to_microns();
  const double hi = grid.wavelength(15).to_microns();
  EXPECT_NEAR((lo + hi) / 2.0, 1.310, 1e-9);
  EXPECT_LT(lo, hi);
  // Uniform spacing.
  for (ChannelId c = 0; c + 1 < 16; ++c) {
    EXPECT_NEAR(grid.wavelength(c + 1).to_microns() - grid.wavelength(c).to_microns(),
                0.0008, 1e-12);
  }
}

TEST(Mzi, SettlingTimeMatchesPaper) {
  // Default parameters: tau = 1.0 us, settle at 2.5% -> ln(40) = 3.69 us.
  const Mzi mzi;
  EXPECT_NEAR(mzi.settling_time().to_micros(), 3.69, 0.02);
}

TEST(Mzi, StartsInBarState) {
  const Mzi mzi;
  const TimePoint t0;
  EXPECT_DOUBLE_EQ(mzi.bar_power_at(t0), 1.0);
  EXPECT_DOUBLE_EQ(mzi.cross_power_at(t0), 0.0);
  EXPECT_EQ(mzi.target_port(), MziPort::kBar);
}

TEST(Mzi, TransientApproachesCrossState) {
  Mzi mzi;
  const TimePoint t0;
  mzi.program(MziPort::kCross, t0);
  EXPECT_EQ(mzi.target_port(), MziPort::kCross);
  // Monotonic rise of cross power.
  double prev = -1.0;
  for (double us = 0.0; us <= 10.0; us += 0.5) {
    const double p = mzi.cross_power_at(t0 + Duration::micros(us));
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_NEAR(mzi.cross_power_at(t0 + Duration::micros(20)), 1.0, 1e-6);
}

TEST(Mzi, SettledAtSettlingTime) {
  Mzi mzi;
  const TimePoint t0;
  mzi.program(MziPort::kCross, t0);
  EXPECT_FALSE(mzi.settled_at(t0 + Duration::micros(1.0)));
  EXPECT_TRUE(mzi.settled_at(t0 + mzi.settling_time() + Duration::nanos(1)));
}

TEST(Mzi, ReprogramMidFlightStartsFromCurrentPhase) {
  Mzi mzi;
  const TimePoint t0;
  mzi.program(MziPort::kCross, t0);
  const TimePoint mid = t0 + Duration::micros(0.5);
  const double phase_mid = mzi.phase_at(mid);
  mzi.program(MziPort::kBar, mid);
  // Immediately after reprogramming, phase is continuous.
  EXPECT_NEAR(mzi.phase_at(mid), phase_mid, 1e-12);
  // And decays back toward 0.
  EXPECT_LT(mzi.phase_at(mid + Duration::micros(2)), phase_mid);
}

TEST(Mzi, PowerConservation) {
  Mzi mzi;
  const TimePoint t0;
  mzi.program(MziPort::kCross, t0);
  for (double us = 0.0; us < 5.0; us += 0.25) {
    const TimePoint t = t0 + Duration::micros(us);
    EXPECT_NEAR(mzi.bar_power_at(t) + mzi.cross_power_at(t), 1.0, 1e-12);
  }
}

TEST(Mzi, RiseTimeIsFractionOfSettling) {
  const Mzi mzi;
  const Duration rise = mzi.rise_time_10_90();
  EXPECT_GT(rise.to_micros(), 0.1);
  EXPECT_LT(rise, mzi.settling_time());
}

TEST(Mzi, SettledImmediatelyWhenNoSwing) {
  Mzi mzi;
  const TimePoint t0;
  mzi.program(MziPort::kBar, t0);  // already bar
  EXPECT_TRUE(mzi.settled_at(t0));
}

TEST(Modulator, LineRateIs224Gbps) {
  const Modulator mod;
  EXPECT_NEAR(mod.line_rate().to_gbps(), 224.0, 1e-9);
  EXPECT_EQ(mod.bits_per_symbol(), 2u);
}

TEST(Modulator, NrzHalvesRate) {
  ModulatorParams p;
  p.line_code = LineCode::kNrz;
  const Modulator mod{p};
  EXPECT_NEAR(mod.line_rate().to_gbps(), 112.0, 1e-9);
}

TEST(Photodetector, BerDecreasesWithPower) {
  const Photodetector pd;
  double prev = 1.0;
  for (double dbm = -30.0; dbm <= 0.0; dbm += 5.0) {
    const double ber = pd.bit_error_rate(Power::dbm(dbm), LineCode::kPam4, 112e9);
    EXPECT_LE(ber, prev + 1e-15);
    prev = ber;
  }
}

TEST(Photodetector, SensitivityAchievesTargetBer) {
  const Photodetector pd;
  const double target = 2.4e-4;
  const Power sens = pd.sensitivity(target, LineCode::kPam4, 112e9);
  const double at = pd.bit_error_rate(sens, LineCode::kPam4, 112e9);
  EXPECT_LE(at, target * 1.01);
  // 1 dB below sensitivity must fail.
  const double below = pd.bit_error_rate(sens.attenuated_by(Decibel::db(1.0)),
                                         LineCode::kPam4, 112e9);
  EXPECT_GT(below, target);
}

TEST(Photodetector, Pam4NeedsMorePowerThanNrz) {
  const Photodetector pd;
  const Power pam4 = pd.sensitivity(1e-4, LineCode::kPam4, 112e9);
  const Power nrz = pd.sensitivity(1e-4, LineCode::kNrz, 112e9);
  EXPECT_GT(pam4.to_dbm(), nrz.to_dbm());
}

// Photodetector::sensitivity answers a repeated key from a per-thread memo.
// A fresh std::thread starts with an empty memo, so its first call always
// runs the bisection: that is the reference every memoized answer must hit
// bit for bit, whatever key the thread asked before.
struct SensitivityKey {
  PhotodetectorParams params;
  LineCode code;
  double target_ber;
};

std::uint64_t sensitivity_bits(const SensitivityKey& k) {
  const Power p = Photodetector{k.params}.sensitivity(k.target_ber, k.code, 112e9);
  return std::bit_cast<std::uint64_t>(p.to_milliwatts());
}

std::vector<SensitivityKey> sensitivity_keys() {
  PhotodetectorParams noisy;
  noisy.responsivity_a_per_w = 0.7;
  noisy.thermal_noise_a_rthz = 30e-12;
  std::vector<SensitivityKey> keys;
  for (const PhotodetectorParams& params : {PhotodetectorParams{}, noisy}) {
    for (const LineCode code : {LineCode::kPam4, LineCode::kNrz}) {
      for (const double target : {2.4e-4, 1e-12}) keys.push_back({params, code, target});
    }
  }
  return keys;
}

std::vector<std::uint64_t> fresh_thread_answers(const std::vector<SensitivityKey>& keys) {
  std::vector<std::uint64_t> fresh(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::thread t{[&, i] { fresh[i] = sensitivity_bits(keys[i]); }};
    t.join();
  }
  return fresh;
}

TEST(SensitivityMemo, InterleavedKeysMatchAFreshThread) {
  const std::vector<SensitivityKey> keys = sensitivity_keys();
  const std::vector<std::uint64_t> fresh = fresh_thread_answers(keys);
  // Keys differing in one field have different answers, so a memo that
  // ignored that field would be seen below.
  for (std::size_t a = 0; a < keys.size(); ++a) {
    for (std::size_t b = a + 1; b < keys.size(); ++b) {
      ASSERT_NE(fresh[a], fresh[b]) << "keys " << a << " and " << b;
    }
  }
  // Every ordered pair, each key asked twice in a row and then after the
  // other: hits and misses alike must return the bisection's answer.
  for (std::size_t a = 0; a < keys.size(); ++a) {
    for (std::size_t b = 0; b < keys.size(); ++b) {
      EXPECT_EQ(sensitivity_bits(keys[a]), fresh[a]) << a;
      EXPECT_EQ(sensitivity_bits(keys[a]), fresh[a]) << a << " repeated";
      EXPECT_EQ(sensitivity_bits(keys[b]), fresh[b]) << b << " after " << a;
    }
  }
}

TEST(SensitivityMemo, PoolWorkersMatchAFreshThread) {
  const std::vector<SensitivityKey> keys = sensitivity_keys();
  const std::vector<std::uint64_t> fresh = fresh_thread_answers(keys);
  util::ThreadPool pool{4};
  std::vector<std::uint64_t> got(64 * keys.size());
  // Task i asks key (i * 5) mod |keys|: each worker sees the keys in a
  // scrambled interleaving, and several workers share every key.
  util::parallel_for(
      got.size(),
      [&](std::size_t i) { got[i] = sensitivity_bits(keys[i * 5 % keys.size()]); }, &pool);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], fresh[i * 5 % keys.size()]) << "task " << i;
  }
}

TEST(Photodetector, QofZeroPowerIsTiny) {
  const Photodetector pd;
  EXPECT_LT(pd.q_factor(Power::zero(), LineCode::kNrz, 112e9), 0.01);
  EXPECT_NEAR(ber_from_q(0.0), 0.5, 1e-12);
}

TEST(Loss, CrossingAndStitchDefaults) {
  const LossModel loss;
  EXPECT_NEAR(loss.crossings(1).value(), 0.25, 1e-12);
  EXPECT_NEAR(loss.crossings(4).value(), 1.0, 1e-12);
  EXPECT_NEAR(loss.stitches_mean(2).value(), 0.5, 1e-12);
}

TEST(Loss, PropagationScalesWithLength) {
  const LossModel loss;
  EXPECT_NEAR(loss.propagation(Length::millimeters(20)).value(), 0.2, 1e-12);
  EXPECT_NEAR(loss.propagation(Length::zero()).value(), 0.0, 1e-12);
}

TEST(Loss, StitchSamplesNonNegativeAndCentered) {
  const LossModel loss;
  Rng rng{31};
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const Decibel s = loss.sample_stitch(rng);
    EXPECT_GE(s.value(), 0.0);
    sum += s.value();
  }
  EXPECT_NEAR(sum / 20000.0, 0.25, 0.01);
}

TEST(Loss, FiberHopIncludesAttachFacets) {
  const LossModel loss;
  EXPECT_NEAR(loss.fiber_hop(Length::zero()).value(), 3.0, 1e-12);
  EXPECT_GT(loss.fiber_hop(Length::meters(1000)).value(), 3.0);
}

TEST(LinkBudget, ShortCircuitCloses) {
  const LinkBudget budget;
  CircuitProfile p;
  p.waveguide_length = Length::millimeters(25);
  p.crossings = 1;
  p.stitches = 1;
  p.mzi_traversals = 2;
  const LinkBudgetReport report = budget.evaluate(p);
  EXPECT_TRUE(report.closes);
  EXPECT_GT(report.margin.value(), 0.0);
  EXPECT_NEAR(report.line_rate.to_gbps(), 224.0, 1e-9);
}

TEST(LinkBudget, CrossWaferCircuitCloses) {
  // Longest plausible circuit: corner-to-corner on both wafers + fiber.
  const LinkBudget budget;
  CircuitProfile p;
  p.waveguide_length = Length::millimeters(25.0 * 20);
  p.crossings = 18;
  p.stitches = 20;
  p.mzi_traversals = 24;
  p.fiber_hops = 1;
  p.fiber_length = Length::meters(3);
  const LinkBudgetReport report = budget.evaluate(p);
  EXPECT_TRUE(report.closes) << "loss=" << report.total_loss.value() << " dB, ber="
                             << report.pre_fec_ber;
}

TEST(LinkBudget, AbsurdLossFails) {
  const LinkBudget budget;
  const LinkBudgetReport report = budget.evaluate_at_loss(Decibel::db(60));
  EXPECT_FALSE(report.closes);
  EXPECT_LT(report.margin.value(), 0.0);
}

TEST(LinkBudget, LossMonotonicInProfile) {
  const LinkBudget budget;
  CircuitProfile small;
  small.waveguide_length = Length::millimeters(25);
  small.crossings = 1;
  CircuitProfile big = small;
  big.crossings = 10;
  big.stitches = 5;
  EXPECT_LT(budget.path_loss(small).value(), budget.path_loss(big).value());
}

TEST(LinkBudget, SampledLossNearDeterministic) {
  const LinkBudget budget;
  CircuitProfile p;
  p.waveguide_length = Length::millimeters(100);
  p.stitches = 4;
  Rng rng{37};
  lp::Summary s;
  for (int i = 0; i < 5000; ++i) s.add(budget.sampled_path_loss(p, rng).value());
  EXPECT_NEAR(s.mean(), budget.path_loss(p).value(), 0.05);
}

TEST(LinkBudget, SensitivityConsistentWithEvaluate) {
  const LinkBudget budget;
  // A circuit whose received power sits exactly at sensitivity must have
  // margin ~0.
  const Power sens = budget.sensitivity();
  const double launch = budget.params().launch.to_dbm();
  const double modulator_penalty = 2.5;  // insertion 1.0 + penalty 1.5
  const double loss_to_sens = launch - sens.to_dbm() - modulator_penalty;
  const LinkBudgetReport report =
      budget.evaluate_at_loss(Decibel::db(loss_to_sens));
  EXPECT_NEAR(report.margin.value(), 0.0, 0.01);
}

}  // namespace
}  // namespace lp::phys
