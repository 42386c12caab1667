// Tests for the AllGather / AllReduce / Broadcast schedules, the tree /
// halving group schedules on arbitrary survivor sets, the slice-level
// builders' answer to slices outside their rack, and the crosstalk model.
#include <gtest/gtest.h>

#include <set>

#include "collective/alltoall.hpp"
#include "collective/autotuner.hpp"
#include "collective/schedule.hpp"
#include "phys/crosstalk.hpp"
#include "phys/link_budget.hpp"
#include "sim/flow_sim.hpp"
#include "topo/slice.hpp"

namespace lp {
namespace {

using coll::Interconnect;
using topo::Coord;
using topo::Shape;
using topo::Slice;
using topo::TpuCluster;

class Schedules : public ::testing::Test {
 protected:
  TpuCluster cluster_;
  coll::CostParams params_;
  Slice slice1_{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  Slice slice3_{1, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  DataSize n_ = DataSize::mib(64);
};

TEST_F(Schedules, AllGatherMirrorsReduceScatter) {
  const auto rs = coll::build_reduce_scatter_schedule(
      cluster_, slice3_, n_, Interconnect::kElectrical, params_);
  const auto ag = coll::build_all_gather_schedule(cluster_, slice3_, n_,
                                                  Interconnect::kElectrical, params_);
  EXPECT_EQ(ag.phases.size(), rs.phases.size());
  EXPECT_NEAR(ag.total_bytes().to_bytes(), rs.total_bytes().to_bytes(), 1.0);
  // First gather phase moves the small shards (reverse order).
  ASSERT_FALSE(ag.phases.empty());
  EXPECT_LT(ag.phases.front().transfers[0].bytes.to_bytes(),
            rs.phases.front().transfers[0].bytes.to_bytes());
}

TEST_F(Schedules, AllGatherOpticalReconfigsOncePerStage) {
  const auto ag = coll::build_all_gather_schedule(cluster_, slice3_, n_,
                                                  Interconnect::kOptical, params_);
  int reconfigs = 0;
  for (const auto& p : ag.phases) {
    if (p.pre_delay > Duration::zero()) ++reconfigs;
  }
  EXPECT_EQ(reconfigs, 2);
  // And the first phase of the schedule carries one.
  EXPECT_GT(ag.phases.front().pre_delay.to_seconds(), 0.0);
}

TEST_F(Schedules, AllGatherReconfiguresOnEachStagesFirstPhase) {
  // Slice-3 runs two 4-rings: phases 0-2, then 3-5.  The reconfiguration
  // sits on each stage's first phase for any buffer, an empty one included,
  // where every stage carries the same zero bytes per step.
  for (const DataSize n : {n_, DataSize::zero()}) {
    const auto ag = coll::build_all_gather_schedule(cluster_, slice3_, n,
                                                    Interconnect::kOptical, params_);
    ASSERT_EQ(ag.phases.size(), 6u);
    for (std::size_t i = 0; i < ag.phases.size(); ++i) {
      EXPECT_EQ(ag.phases[i].pre_delay, i % 3 == 0 ? params_.reconfig : Duration::zero())
          << "n=" << n.to_bytes() << " phase " << i;
    }
  }
}

TEST_F(Schedules, AllReduceMeasuredMatchesAnalytic) {
  const auto schedule = coll::build_all_reduce_schedule(
      cluster_, slice1_, n_, Interconnect::kElectrical, params_);
  const sim::FlowSimulator fsim{cluster_.dim_bandwidth()};
  const auto run = fsim.run(schedule);
  const auto plan = coll::build_plan(slice1_, cluster_.config().rack_shape);
  const auto cost =
      coll::all_reduce_cost(plan, n_, Interconnect::kElectrical, params_);
  EXPECT_NEAR(run.total.to_seconds(), cost.beta_time.to_seconds(), 1e-9);
}

TEST_F(Schedules, AllReduceOpticalKeepsCircuitsUpAcrossHalves) {
  const auto schedule = coll::build_all_reduce_schedule(
      cluster_, slice3_, n_, Interconnect::kOptical, params_);
  Duration reconfig = Duration::zero();
  for (const auto& p : schedule.phases) reconfig += p.pre_delay;
  // Two stages, circuits persist into the gather: 2 x r, not 4 x r.
  EXPECT_NEAR(reconfig.to_micros(), 2 * 3.7, 1e-6);
}

TEST_F(Schedules, BroadcastPipelineStructure) {
  const unsigned chunks = 4;
  const auto schedule = coll::build_broadcast_schedule(
      cluster_, slice1_, n_, chunks, Interconnect::kElectrical, params_);
  // p=8 ring: p-1 + chunks-1 = 10 phases.
  EXPECT_EQ(schedule.phases.size(), 10u);
  // Total bytes: every non-root edge (p-1 of them) carries the whole buffer.
  EXPECT_NEAR(schedule.total_bytes().to_bytes(), 7.0 * n_.to_bytes(), 1.0);
  // Middle phases have multiple edges active (pipelining).
  std::size_t peak = 0;
  for (const auto& p : schedule.phases) peak = std::max(peak, p.transfers.size());
  EXPECT_GE(peak, 3u);
}

TEST_F(Schedules, BroadcastPipeliningBeatsStoreAndForward) {
  const sim::FlowSimulator fsim{cluster_.dim_bandwidth()};
  const auto pipelined = fsim.run(coll::build_broadcast_schedule(
      cluster_, slice1_, n_, 16, Interconnect::kElectrical, params_));
  const auto store_fwd = fsim.run(coll::build_broadcast_schedule(
      cluster_, slice1_, n_, 1, Interconnect::kElectrical, params_));
  EXPECT_LT(pipelined.total.to_seconds(), store_fwd.total.to_seconds() / 2.0);
}

TEST_F(Schedules, BroadcastOpticalPaysOneReconfig) {
  const auto schedule = coll::build_broadcast_schedule(
      cluster_, slice1_, n_, 4, Interconnect::kOptical, params_);
  Duration reconfig = Duration::zero();
  for (const auto& p : schedule.phases) reconfig += p.pre_delay;
  EXPECT_NEAR(reconfig.to_micros(), 3.7, 1e-6);
}

TEST_F(Schedules, BroadcastZeroChunksEmpty) {
  const auto schedule = coll::build_broadcast_schedule(
      cluster_, slice1_, n_, 0, Interconnect::kElectrical, params_);
  EXPECT_TRUE(schedule.phases.empty());
}

// --- Group schedules on non-power-of-two survivor sets -----------------------
//
// The autotuner's tree/halving candidates must stay correct on *whatever
// chips survive* — the same contract the elastic ring AllReduce honors.
// These tests pin the phase structure and byte conservation of
// Autotuner::build on m = 7 (fold + power-of-two core) and on the
// degenerate 2- and 3-member groups a badly shrunk ring can reach.

class GroupSchedules : public ::testing::Test {
 protected:
  coll::Schedule build(coll::CollOp op, coll::Algorithm algo,
                       const std::vector<topo::TpuId>& members) const {
    return tuner_.build(op, algo, members, n_, rate_, r_);
  }
  coll::Schedule tree_broadcast(const std::vector<topo::TpuId>& members) const {
    return build(coll::CollOp::kBroadcast, coll::Algorithm::kTree, members);
  }
  coll::Schedule halving_reduce_scatter(const std::vector<topo::TpuId>& members) const {
    return build(coll::CollOp::kReduceScatter, coll::Algorithm::kHalvingDoubling, members);
  }
  coll::Schedule halving_doubling_all_reduce(
      const std::vector<topo::TpuId>& members) const {
    return build(coll::CollOp::kAllReduce, coll::Algorithm::kHalvingDoubling, members);
  }

  static std::vector<topo::TpuId> survivors(std::size_t m) {
    // Deliberately non-contiguous ids: builders must index the member
    // list, never assume dense ranks.
    std::vector<topo::TpuId> ids;
    for (std::size_t i = 0; i < m; ++i) ids.push_back(static_cast<topo::TpuId>(40 + 3 * i));
    return ids;
  }

  static void expect_transfers_stay_in_group(const coll::Schedule& s,
                                             const std::vector<topo::TpuId>& members) {
    const std::set<topo::TpuId> in_group{members.begin(), members.end()};
    for (const auto& phase : s.phases) {
      for (const auto& t : phase.transfers) {
        EXPECT_TRUE(in_group.count(t.src)) << "src " << t.src << " not a survivor";
        EXPECT_TRUE(in_group.count(t.dst)) << "dst " << t.dst << " not a survivor";
        EXPECT_NE(t.src, t.dst);
        EXPECT_TRUE(t.is_optical());
      }
    }
  }

  coll::Autotuner tuner_;
  Bandwidth rate_ = Bandwidth::gBps(37.5);  // 1-lambda elastic-bridge rate
  Duration r_ = Duration::micros(3.7);
  DataSize n_ = DataSize::mib(8);
};

TEST_F(GroupSchedules, TreeBroadcastNonPowerOfTwoStructure) {
  const auto members = survivors(7);
  const auto s = tree_broadcast(members);
  ASSERT_EQ(s.phases.size(), 3u);  // ceil(log2 7)
  // Informed set doubles (saturating): 1, 2, then 3 senders into the tail.
  EXPECT_EQ(s.phases[0].transfers.size(), 1u);
  EXPECT_EQ(s.phases[1].transfers.size(), 2u);
  EXPECT_EQ(s.phases[2].transfers.size(), 3u);
  // Fresh pairing every phase: each one pays the reconfiguration.
  for (const auto& p : s.phases) EXPECT_EQ(p.pre_delay, r_);
  // Byte conservation: every non-root member receives the buffer once.
  EXPECT_NEAR(s.total_bytes().to_bytes(), 6.0 * n_.to_bytes(), 1.0);
  expect_transfers_stay_in_group(s, members);
}

TEST_F(GroupSchedules, HalvingReduceScatterFoldsExtras) {
  // m = 7 = 2^2 + 3: one fold pre-phase (3 extras push full buffers onto
  // the core), then K = 2 exchange phases of n/2 and n/4.
  const auto members = survivors(7);
  const auto s = halving_reduce_scatter(members);
  ASSERT_EQ(s.phases.size(), 3u);
  EXPECT_EQ(s.phases[0].transfers.size(), 3u);  // fold: the extras
  EXPECT_EQ(s.phases[1].transfers.size(), 4u);  // pairwise exchange on the core
  EXPECT_EQ(s.phases[2].transfers.size(), 4u);
  EXPECT_NEAR(s.phases[0].transfers[0].bytes.to_bytes(), n_.to_bytes(), 1.0);
  EXPECT_NEAR(s.phases[1].transfers[0].bytes.to_bytes(), n_.to_bytes() / 2.0, 1.0);
  EXPECT_NEAR(s.phases[2].transfers[0].bytes.to_bytes(), n_.to_bytes() / 4.0, 1.0);
  // 3n fold + 4(n/2) + 4(n/4) = 6n = (m-1) n.
  EXPECT_NEAR(s.total_bytes().to_bytes(), 6.0 * n_.to_bytes(), 1.0);
  expect_transfers_stay_in_group(s, members);
}

TEST_F(GroupSchedules, AllReduceAlgorithmsConserveBytes) {
  // Every AllReduce lowering moves exactly 2 (m-1) n bytes in total —
  // ring, tree, and halving-doubling agree on any survivor count.
  for (const std::size_t m : {2u, 3u, 5u, 7u, 12u}) {
    const auto members = survivors(m);
    const double want = 2.0 * static_cast<double>(m - 1) * n_.to_bytes();
    const auto ring = build(coll::CollOp::kAllReduce, coll::Algorithm::kRing, members);
    const auto tree = build(coll::CollOp::kAllReduce, coll::Algorithm::kTree, members);
    const auto hd = halving_doubling_all_reduce(members);
    EXPECT_NEAR(ring.total_bytes().to_bytes(), want, 1.0) << "ring m=" << m;
    EXPECT_NEAR(tree.total_bytes().to_bytes(), want, 1.0) << "tree m=" << m;
    EXPECT_NEAR(hd.total_bytes().to_bytes(), want, 1.0) << "hd m=" << m;
    expect_transfers_stay_in_group(tree, members);
    expect_transfers_stay_in_group(hd, members);
  }
}

TEST_F(GroupSchedules, DegenerateTwoAndThreeMemberGroups) {
  // m = 2: no fold, a single pairwise exchange (halving) or a single
  // full-buffer send (tree).
  const auto two = survivors(2);
  const auto rs2 = halving_reduce_scatter(two);
  ASSERT_EQ(rs2.phases.size(), 1u);
  EXPECT_EQ(rs2.phases[0].transfers.size(), 2u);
  EXPECT_NEAR(rs2.total_bytes().to_bytes(), n_.to_bytes(), 1.0);
  const auto bc2 = tree_broadcast(two);
  ASSERT_EQ(bc2.phases.size(), 1u);
  EXPECT_EQ(bc2.phases[0].transfers.size(), 1u);

  // m = 3 = 2^1 + 1: fold + one exchange phase.
  const auto three = survivors(3);
  const auto rs3 = halving_reduce_scatter(three);
  ASSERT_EQ(rs3.phases.size(), 2u);
  EXPECT_EQ(rs3.phases[0].transfers.size(), 1u);
  EXPECT_EQ(rs3.phases[1].transfers.size(), 2u);
  EXPECT_NEAR(rs3.total_bytes().to_bytes(), 2.0 * n_.to_bytes(), 1.0);
  const auto ar3 = halving_doubling_all_reduce(three);
  ASSERT_EQ(ar3.phases.size(), 4u);  // fold, exchange, exchange, unfold
  EXPECT_NEAR(ar3.total_bytes().to_bytes(), 4.0 * n_.to_bytes(), 1.0);

  // Fewer than two members: nothing to exchange.
  EXPECT_TRUE(tree_broadcast(survivors(1)).phases.empty());
  EXPECT_TRUE(halving_doubling_all_reduce(survivors(0)).phases.empty());
}

TEST_F(GroupSchedules, GatherMirrorsScatterOnSurvivorSets) {
  // The doubling AllGather is the halving ReduceScatter run backwards:
  // same phase count, same total bytes, small shards first.
  for (const std::size_t m : {3u, 7u, 12u}) {
    const auto members = survivors(m);
    const auto rs = halving_reduce_scatter(members);
    const auto ag =
        build(coll::CollOp::kAllGather, coll::Algorithm::kHalvingDoubling, members);
    EXPECT_EQ(ag.phases.size(), rs.phases.size()) << "m=" << m;
    EXPECT_NEAR(ag.total_bytes().to_bytes(), rs.total_bytes().to_bytes(), 1.0);
    ASSERT_FALSE(ag.phases.empty());
    EXPECT_LT(ag.phases.front().transfers[0].bytes.to_bytes(),
              ag.phases.back().transfers[0].bytes.to_bytes());
  }
}

// --- Slices outside their rack ------------------------------------------------
//
// Lowered as they stand, these slices would schedule chips of the next
// rack, chip ids past the end of the pod, or walk the torus until an
// allocation fails.  Every slice-level builder answers them as it answers
// other degenerate input: with an empty schedule.

TEST(OutOfRack, EverySliceBuilderReturnsAnEmptySchedule) {
  const TpuCluster cluster;
  const coll::CostParams params;
  const DataSize n = DataSize::mib(64);
  const Slice outside[] = {
      {0, 0, Coord{{1, 0, 0}}, Shape{{4, 4, 4}}},   // overflows into rack 1
      {0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 2}}},   // overflows along z
      {0, 0, Coord{{-1, 0, 0}}, Shape{{2, 2, 2}}},  // negative offset
      {0, 0, Coord{{0, 0, 0}}, Shape{{4, 0, 4}}},   // zero extent
      {0, 64, Coord{{0, 0, 0}}, Shape{{4, 4, 4}}},  // rack past the pod
      {0, -1, Coord{{0, 0, 0}}, Shape{{2, 2, 2}}},  // negative rack
  };
  for (const Slice& slice : outside) {
    ASSERT_TRUE(topo::outside_rack(cluster, slice).has_value());
    const auto demand =
        coll::uniform_all_to_all(static_cast<std::size_t>(slice.chip_count()), n);
    for (const Interconnect ic : {Interconnect::kElectrical, Interconnect::kOptical}) {
      for (const coll::RedirectStrategy strategy :
           {coll::RedirectStrategy::kStaticSplit, coll::RedirectStrategy::kPerStageFull}) {
        EXPECT_TRUE(coll::build_reduce_scatter_schedule(cluster, slice, n, ic, params,
                                                        strategy)
                        .phases.empty());
        EXPECT_TRUE(
            coll::build_all_gather_schedule(cluster, slice, n, ic, params, strategy)
                .phases.empty());
        EXPECT_TRUE(
            coll::build_all_reduce_schedule(cluster, slice, n, ic, params, strategy)
                .phases.empty());
      }
      EXPECT_TRUE(
          coll::build_broadcast_schedule(cluster, slice, n, 4, ic, params).phases.empty());
      EXPECT_TRUE(
          coll::build_all_to_all_schedule(cluster, slice, demand, ic, params).phases.empty());
    }
  }
  // A slice flush against the rack's far corner still fits.
  const Slice corner{0, 63, Coord{{0, 2, 3}}, Shape{{4, 2, 1}}};
  EXPECT_FALSE(topo::outside_rack(cluster, corner).has_value());
  EXPECT_EQ(coll::build_reduce_scatter_schedule(cluster, corner, n,
                                                Interconnect::kElectrical, params)
                .phases.size(),
            7u);
}

// --- Crosstalk ---------------------------------------------------------------

TEST(Crosstalk, AggregateScalesLinearly) {
  const phys::CrosstalkModel model;
  EXPECT_NEAR(model.aggregate_ratio(1), 10e-3 * 0.316, 1e-4);  // 10^-2.5
  EXPECT_NEAR(model.aggregate_ratio(10), 10 * model.aggregate_ratio(1), 1e-12);
}

TEST(Crosstalk, PenaltiesOrdered) {
  const phys::CrosstalkModel model;
  for (unsigned k : {1u, 8u, 24u}) {
    EXPECT_GT(model.incoherent_penalty(k).value(), 0.0);
    EXPECT_GT(model.coherent_penalty(k).value(), model.incoherent_penalty(k).value())
        << "coherent beating is the worst case";
  }
  EXPECT_LT(model.incoherent_penalty(24).value(), 0.5)
      << "25 dB extinction keeps 24-switch paths under half a dB";
}

TEST(Crosstalk, PenaltyMonotoneInTraversals) {
  const phys::CrosstalkModel model;
  double prev = 0.0;
  for (unsigned k = 0; k < 100; k += 10) {
    const double p = model.incoherent_penalty(k).value();
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Crosstalk, MaxTraversalsInvertsPenalty) {
  const phys::CrosstalkModel model;
  const unsigned k = model.max_traversals(Decibel::db(0.5));
  EXPECT_LE(model.incoherent_penalty(k).value(), 0.5 + 1e-9);
  EXPECT_GT(model.incoherent_penalty(k + 2).value(), 0.5);
}

TEST(Crosstalk, BudgetChargesIncoherentPenalty) {
  const phys::LinkBudget budget;
  phys::CircuitProfile with, without;
  with.mzi_traversals = 24;
  without.mzi_traversals = 0;
  const auto a = budget.evaluate(with);
  const auto b = budget.evaluate(without);
  EXPECT_GT(a.crosstalk_penalty.value(), 0.0);
  EXPECT_NEAR(a.crosstalk_penalty.value(),
              phys::CrosstalkModel{}.incoherent_penalty(24).value(), 1e-12);
  EXPECT_EQ(b.crosstalk_penalty.value(), 0.0);
}

TEST(Crosstalk, PoorExtinctionBreaksLongPaths) {
  phys::CrosstalkParams params;
  params.extinction = Decibel::db(10.0);  // bad switch
  const phys::CrosstalkModel model{params};
  EXPECT_GT(model.incoherent_penalty(9).value(), 3.0);
  EXPECT_GE(model.coherent_penalty(25).value(), 1e8) << "closed form collapses";
}

}  // namespace
}  // namespace lp
