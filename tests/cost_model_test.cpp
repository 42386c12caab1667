// Tests pinning the cost model to the paper's Tables 1 and 2 and the §4.1
// bandwidth-utilization claims (Figure 5c).
#include <gtest/gtest.h>

#include "collective/autotuner.hpp"
#include "collective/cost_model.hpp"
#include "topo/slice.hpp"

namespace lp::coll {
namespace {

using topo::Coord;
using topo::Shape;
using topo::Slice;

constexpr Shape kRack{{4, 4, 4}};

CostParams params_with(Bandwidth b) {
  CostParams p;
  p.chip_bandwidth = b;
  return p;
}

// --- Table 1: Slice-1 (4x2x1), p = 8 ---------------------------------------

class Table1 : public ::testing::Test {
 protected:
  Slice slice1_{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  CostParams params_ = params_with(Bandwidth::gBps(300.0));
  DataSize n_ = DataSize::mib(256);
  CollectivePlan plan_ = build_plan(slice1_, kRack);
};

TEST_F(Table1, PlanIsOneSnakeRingOverEightChips) {
  ASSERT_EQ(plan_.stages.size(), 1u);
  EXPECT_TRUE(plan_.stages[0].snake);
  EXPECT_EQ(plan_.stages[0].ring_size, 8);
  EXPECT_EQ(plan_.chip_count, 8);
  EXPECT_EQ(plan_.alpha_steps(), 7);
}

TEST_F(Table1, ElectricalAlphaIs7Steps) {
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kElectrical, params_);
  EXPECT_EQ(cost.alpha_steps, 7);
  EXPECT_EQ(cost.reconfigs, 0);
}

TEST_F(Table1, OpticalAlphaIs7StepsPlusOneReconfig) {
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kOptical, params_);
  EXPECT_EQ(cost.alpha_steps, 7);
  EXPECT_EQ(cost.reconfigs, 1);
}

TEST_F(Table1, ElectricalBetaIsThreeTimesOptimal) {
  // Table 1: N * (p-1)/p * 3/B.
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kElectrical, params_);
  const Duration expected =
      transfer_time(n_ * (7.0 / 8.0), params_.chip_bandwidth / 3.0);
  EXPECT_NEAR(cost.beta_time.to_seconds(), expected.to_seconds(), 1e-12);
  const Duration optimal = optimal_reduce_scatter_beta(n_, 8, params_.chip_bandwidth);
  EXPECT_NEAR(cost.beta_time / optimal, 3.0, 1e-9);
}

TEST_F(Table1, OpticalBetaIsOptimal) {
  // Table 1: N * (p-1)/p * 1/B.
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kOptical, params_);
  const Duration optimal = optimal_reduce_scatter_beta(n_, 8, params_.chip_bandwidth);
  EXPECT_NEAR(cost.beta_time / optimal, 1.0, 1e-9);
}

TEST_F(Table1, OpticsWinsForLargeBuffersDespiteReconfig) {
  const auto elec = reduce_scatter_cost(plan_, n_, Interconnect::kElectrical, params_);
  const auto opt = reduce_scatter_cost(plan_, n_, Interconnect::kOptical, params_);
  EXPECT_LT(opt.total(params_).to_seconds(), elec.total(params_).to_seconds());
}

TEST_F(Table1, ElectricalWinsForTinyBuffers) {
  // At a few bytes, the extra r dominates any beta saving.
  const DataSize tiny = DataSize::bytes(64);
  const auto elec = reduce_scatter_cost(plan_, tiny, Interconnect::kElectrical, params_);
  const auto opt = reduce_scatter_cost(plan_, tiny, Interconnect::kOptical, params_);
  EXPECT_GT(opt.total(params_).to_seconds(), elec.total(params_).to_seconds());
}

// --- Table 2: Slice-3 (4x4x1), D = 2 ----------------------------------------

class Table2 : public ::testing::Test {
 protected:
  Slice slice3_{2, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  CostParams params_ = params_with(Bandwidth::gBps(300.0));
  DataSize n_ = DataSize::mib(256);
  CollectivePlan plan_ = build_plan(slice3_, kRack);
};

TEST_F(Table2, PlanIsTwoProperStages) {
  ASSERT_EQ(plan_.stages.size(), 2u);
  EXPECT_FALSE(plan_.stages[0].snake);
  EXPECT_EQ(plan_.stages[0].ring_size, 4);
  EXPECT_DOUBLE_EQ(plan_.stages[0].buffer_fraction, 1.0);
  EXPECT_EQ(plan_.stages[1].ring_size, 4);
  EXPECT_DOUBLE_EQ(plan_.stages[1].buffer_fraction, 0.25);
}

TEST_F(Table2, AlphaIsThreePerStage) {
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kElectrical, params_);
  EXPECT_EQ(cost.alpha_steps, 6);  // 3 + 3
  const auto opt = reduce_scatter_cost(plan_, n_, Interconnect::kOptical, params_);
  EXPECT_EQ(opt.reconfigs, 2);  // r per stage (two table rows)
}

TEST_F(Table2, ElectricalBetaMatchesTable) {
  // Row 1: (3/4)N at B/3; row 2: (3/16)N at B/3.
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kElectrical, params_);
  const Bandwidth b3 = params_.chip_bandwidth / 3.0;
  const Duration expected =
      transfer_time(n_ * 0.75, b3) + transfer_time(n_ * (3.0 / 16.0), b3);
  EXPECT_NEAR(cost.beta_time.to_seconds(), expected.to_seconds(), 1e-12);
}

TEST_F(Table2, OpticalBetaMatchesTable) {
  // Stages run at B/2 after redirecting the idle Z bandwidth.
  const auto cost = reduce_scatter_cost(plan_, n_, Interconnect::kOptical, params_);
  const Bandwidth b2 = params_.chip_bandwidth / 2.0;
  const Duration expected =
      transfer_time(n_ * 0.75, b2) + transfer_time(n_ * (3.0 / 16.0), b2);
  EXPECT_NEAR(cost.beta_time.to_seconds(), expected.to_seconds(), 1e-12);
}

TEST_F(Table2, ElectricalBetaIs1_5xOptical) {
  const auto elec = reduce_scatter_cost(plan_, n_, Interconnect::kElectrical, params_);
  const auto opt = reduce_scatter_cost(plan_, n_, Interconnect::kOptical, params_);
  EXPECT_NEAR(elec.beta_time / opt.beta_time, 1.5, 1e-9);
}

// --- Figure 5c: bandwidth utilization ---------------------------------------

TEST(Utilization, Slice1ElectricalIsOneThird) {
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const auto plan = build_plan(s, kRack);
  const CostParams p;
  EXPECT_NEAR(bandwidth_utilization(plan, Interconnect::kElectrical, p), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(bandwidth_utilization(plan, Interconnect::kOptical, p), 1.0, 1e-12);
}

TEST(Utilization, Slice3ElectricalIsTwoThirds) {
  const Slice s{2, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  const auto plan = build_plan(s, kRack);
  const CostParams p;
  // Slice-3 drives 2 of the 3 provisioned dimensions: "33% lower" (Fig 5c).
  EXPECT_NEAR(bandwidth_utilization(plan, Interconnect::kElectrical, p), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(bandwidth_utilization(plan, Interconnect::kOptical, p), 1.0, 1e-12);
}

TEST(Utilization, FullRackElectricalMatchesOptical) {
  const Slice s{0, 0, Coord{{0, 0, 0}}, Shape{{4, 4, 4}}};
  const auto plan = build_plan(s, kRack);
  ASSERT_EQ(plan.stages.size(), 3u);
  const CostParams p;
  const DataSize n = DataSize::mib(64);
  const auto elec = reduce_scatter_cost(plan, n, Interconnect::kElectrical, p);
  const auto opt = reduce_scatter_cost(plan, n, Interconnect::kOptical, p);
  EXPECT_NEAR(elec.beta_time / opt.beta_time, 1.0, 1e-9)
      << "full-rack slices already use all dims; optics adds no beta gain";
}

// --- AllReduce / AllGather composition --------------------------------------

TEST(Composition, AllReduceIsTwiceReduceScatter) {
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const auto plan = build_plan(s, kRack);
  const CostParams p;
  const DataSize n = DataSize::mib(100);
  const auto rs = reduce_scatter_cost(plan, n, Interconnect::kOptical, p);
  const auto ag = all_gather_cost(plan, n, Interconnect::kOptical, p);
  const auto ar = all_reduce_cost(plan, n, Interconnect::kOptical, p);
  EXPECT_EQ(ar.alpha_steps, rs.alpha_steps + ag.alpha_steps);
  EXPECT_EQ(ar.reconfigs, rs.reconfigs + ag.reconfigs);
  EXPECT_NEAR(ar.beta_time.to_seconds(),
              rs.beta_time.to_seconds() + ag.beta_time.to_seconds(), 1e-15);
}

// --- Simultaneous multi-order variant ---------------------------------------

TEST(Simultaneous, NoBenefitWithSingleStage) {
  // The paper: subdividing cannot help a slice with one usable dimension.
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const auto plan = build_plan(s, kRack);
  const CostParams p;
  const DataSize n = DataSize::mib(128);
  const auto seq = reduce_scatter_cost(plan, n, Interconnect::kElectrical, p);
  const auto sim = simultaneous_reduce_scatter_cost(plan, n, p);
  EXPECT_NEAR(sim.beta_time.to_seconds(), seq.beta_time.to_seconds(), 1e-12);
}

TEST(Simultaneous, HelpsMultiStageElectrical) {
  const Slice s{0, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  const auto plan = build_plan(s, kRack);
  const CostParams p;
  const DataSize n = DataSize::mib(128);
  const auto seq = reduce_scatter_cost(plan, n, Interconnect::kElectrical, p);
  const auto sim = simultaneous_reduce_scatter_cost(plan, n, p);
  EXPECT_LT(sim.beta_time.to_seconds(), seq.beta_time.to_seconds());
}

// --- Property sweep: optics never loses on beta -----------------------------

struct ShapeCase {
  Shape shape;
  Coord offset;
};

class BetaDominance : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(BetaDominance, OpticalBetaNeverWorseThanElectrical) {
  const auto& c = GetParam();
  const Slice s{0, 0, c.offset, c.shape};
  const auto plan = build_plan(s, kRack);
  if (plan.stages.empty()) GTEST_SKIP() << "single-chip slice";
  const CostParams p;
  for (double mib : {0.25, 4.0, 64.0, 1024.0}) {
    const DataSize n = DataSize::mib(mib);
    const auto elec = reduce_scatter_cost(plan, n, Interconnect::kElectrical, p);
    const auto opt = reduce_scatter_cost(plan, n, Interconnect::kOptical, p);
    EXPECT_LE(opt.beta_time.to_seconds(), elec.beta_time.to_seconds() * (1.0 + 1e-12))
        << "shape " << c.shape[0] << "x" << c.shape[1] << "x" << c.shape[2];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BetaDominance,
    ::testing::Values(ShapeCase{Shape{{4, 2, 1}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 4, 1}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 4, 2}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{2, 2, 1}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{2, 2, 2}}, Coord{{1, 1, 1}}},
                      ShapeCase{Shape{{4, 1, 1}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{1, 4, 2}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 4, 4}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{2, 4, 4}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 2, 2}}, Coord{{0, 2, 0}}}));

class AlphaConsistency : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(AlphaConsistency, AlphaStepsMatchPlanStructure) {
  const auto& c = GetParam();
  const Slice s{0, 0, c.offset, c.shape};
  const auto plan = build_plan(s, kRack);
  std::int32_t expected = 0;
  for (const auto& st : plan.stages) expected += st.ring_size - 1;
  EXPECT_EQ(plan.alpha_steps(), expected);
  // Total ring membership covers every chip at least once: the product of
  // stage ring sizes equals the chip count.
  if (!plan.stages.empty()) {
    std::int64_t product = 1;
    for (const auto& st : plan.stages) product *= st.ring_size;
    EXPECT_EQ(product, s.chip_count());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlphaConsistency,
    ::testing::Values(ShapeCase{Shape{{4, 2, 1}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 4, 1}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 4, 2}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{2, 2, 2}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{4, 4, 4}}, Coord{{0, 0, 0}}},
                      ShapeCase{Shape{{2, 4, 2}}, Coord{{2, 0, 2}}}));

TEST(Plan, SingleChipSliceHasNoStages) {
  const Slice s{0, 0, Coord{{0, 0, 0}}, Shape{{1, 1, 1}}};
  const auto plan = build_plan(s, kRack);
  EXPECT_TRUE(plan.stages.empty());
  EXPECT_EQ(plan.alpha_steps(), 0);
  const CostParams p;
  EXPECT_EQ(bandwidth_utilization(plan, Interconnect::kElectrical, p), 0.0);
}

TEST(Plan, UsableDimsRule) {
  const Slice s{0, 0, Coord{{0, 0, 0}}, Shape{{4, 2, 4}}};
  const auto usable = usable_dims(s, kRack);
  ASSERT_EQ(usable.size(), 2u);
  EXPECT_EQ(usable[0], 0u);
  EXPECT_EQ(usable[1], 2u);
  const auto active = active_dims(s);
  EXPECT_EQ(active.size(), 3u);
}

TEST(Plan, SnakeFoldsPartialDimWithFirstUsable) {
  // 4x4x2: Z (extent 2 of 4) folds with X into an 8-ring; Y stays proper.
  const Slice s{0, 0, Coord{{0, 0, 0}}, Shape{{4, 4, 2}}};
  const auto plan = build_plan(s, kRack);
  ASSERT_EQ(plan.stages.size(), 2u);
  EXPECT_TRUE(plan.stages[0].snake);
  EXPECT_EQ(plan.stages[0].ring_size, 8);
  EXPECT_FALSE(plan.stages[1].snake);
  EXPECT_EQ(plan.stages[1].ring_size, 4);
  EXPECT_DOUBLE_EQ(plan.stages[1].buffer_fraction, 1.0 / 8.0);
}

TEST(Cost, ReconfigTimeScalesWithR) {
  const Slice s{0, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  const auto plan = build_plan(s, kRack);
  CostParams p;
  p.reconfig = Duration::micros(3.7);
  const auto cost = reduce_scatter_cost(plan, DataSize::mib(1), Interconnect::kOptical, p);
  EXPECT_NEAR(cost.reconfig_time(p).to_micros(), 7.4, 1e-9);
  EXPECT_NEAR(cost.total(p).to_seconds(),
              cost.alpha_time(p).to_seconds() + cost.reconfig_time(p).to_seconds() +
                  cost.beta_time.to_seconds(),
              1e-15);
}

TEST(Cost, PerStageFullStrategyBeatsStaticSplit) {
  const Slice s{0, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  const auto plan = build_plan(s, kRack);
  const CostParams p;
  const DataSize n = DataSize::mib(64);
  const auto split = reduce_scatter_cost(plan, n, Interconnect::kOptical, p,
                                         RedirectStrategy::kStaticSplit);
  const auto full = reduce_scatter_cost(plan, n, Interconnect::kOptical, p,
                                        RedirectStrategy::kPerStageFull);
  EXPECT_LT(full.beta_time.to_seconds(), split.beta_time.to_seconds());
}

// --- Unit audit --------------------------------------------------------------
//
// Hand-computed pins of the alpha-beta-r units documented in cost_model.hpp,
// checked against the autotuner's closed forms.  Chosen numbers make every
// term exact in binary floating point: rate 32 GB/s, power-of-two buffers.
//
//   alpha = 1 us per posted send step (software overhead, a Duration)
//   beta  = DataSize / Bandwidth via transfer_time (no stored constant)
//   r     = 3.7 us per fabric reprogram (MZI settle, Duration)

TEST(UnitAudit, RingAllReducePinnedByHand) {
  // m = 8, n = 8 MiB at 32 GB/s.  Ring AllReduce: 2 (m-1) alpha steps, one
  // reconfiguration (circuits persist), 2 (m-1) wire steps of n/m bytes.
  //   T(n/m) = 1 MiB / 32 GB/s = 1048576 / 32e9 s = 32.768 us
  //   total  = 14 x 1 us + 3.7 us + 14 x 32.768 us = 476.452 us
  const Autotuner tuner;  // alpha defaults to 1 us
  const Duration got =
      tuner.predict(CollOp::kAllReduce, Algorithm::kRing, 8, DataSize::mib(8),
                    Bandwidth::gBps(32.0), Duration::micros(3.7));
  EXPECT_NEAR(got.to_seconds(), 476.452e-6, 1e-12);
}

TEST(UnitAudit, RingReduceScatterPinnedByHand) {
  // Half the AllReduce: 7 alpha steps + r + 7 x T(1 MiB) = 7 + 3.7 +
  // 229.376 = 240.076 us.
  const Autotuner tuner;
  const Duration got =
      tuner.predict(CollOp::kReduceScatter, Algorithm::kRing, 8, DataSize::mib(8),
                    Bandwidth::gBps(32.0), Duration::micros(3.7));
  EXPECT_NEAR(got.to_seconds(), 240.076e-6, 1e-12);
}

TEST(UnitAudit, AllToAllRotationPinnedByHand) {
  // m = 5, each member scatters n = 4 MiB total.  Rotation: 4 rounds, each
  // re-pairing (alpha + r) and moving n/4 = 1 MiB:
  //   4 x (1 + 3.7 + 32.768) us = 149.872 us
  const Autotuner tuner;
  const Duration got =
      tuner.predict(CollOp::kAllToAll, Algorithm::kRotation, 5, DataSize::mib(4),
                    Bandwidth::gBps(32.0), Duration::micros(3.7));
  EXPECT_NEAR(got.to_seconds(), 149.872e-6, 1e-12);
}

TEST(UnitAudit, AllToAllRingPinnedByHand) {
  // Same exchange on the standing ring: one reconfiguration, but every one
  // of the 4 store-and-forward phases carries the inflated per-link load
  // n m / (2 (m-1)) = 4 MiB x 5/8 = 2.5 MiB:
  //   4 x 1 us + 3.7 us + 4 x 81.92 us = 335.38 us
  const Autotuner tuner;
  const Duration got =
      tuner.predict(CollOp::kAllToAll, Algorithm::kRing, 5, DataSize::mib(4),
                    Bandwidth::gBps(32.0), Duration::micros(3.7));
  EXPECT_NEAR(got.to_seconds(), 335.38e-6, 1e-12);
}

TEST(UnitAudit, BetaScalesInverselyWithBandwidth) {
  // Doubling the circuit rate must halve exactly the beta term and leave
  // alpha and r untouched — the units are independent.
  const Autotuner tuner;
  const DataSize n = DataSize::mib(8);
  const Duration r = Duration::micros(3.7);
  const Duration slow =
      tuner.predict(CollOp::kAllReduce, Algorithm::kRing, 8, n, Bandwidth::gBps(16.0), r);
  const Duration fast =
      tuner.predict(CollOp::kAllReduce, Algorithm::kRing, 8, n, Bandwidth::gBps(32.0), r);
  const Duration alpha_r = Duration::micros(14.0 + 3.7);
  EXPECT_NEAR((slow - alpha_r).to_seconds(), 2.0 * (fast - alpha_r).to_seconds(), 1e-12);
}

}  // namespace
}  // namespace lp::coll
