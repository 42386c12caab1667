#include <gtest/gtest.h>

#include <vector>

#include "collective/alltoall.hpp"
#include "collective/schedule.hpp"
#include "sim/event_queue.hpp"
#include "sim/flow_sim.hpp"
#include "topo/cluster.hpp"
#include "topo/slice.hpp"

namespace lp::sim {
namespace {

using coll::Interconnect;
using coll::Transfer;
using topo::Coord;
using topo::DirectedLink;
using topo::Shape;
using topo::Slice;
using topo::TpuCluster;

TEST(EventQueue, RunsInTimestampOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(2.0), [&] { order.push_back(2); });
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::at_seconds(3.0), [&] { order.push_back(3); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now().to_seconds(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtEqualTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CallbacksCanSchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] {
    ++fired;
    q.schedule_in(Duration::seconds(1.0), [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now().to_seconds(), 2.0);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(TimePoint::at_seconds(1.0), [&] { ++fired; });
  q.schedule_at(TimePoint::at_seconds(5.0), [&] { ++fired; });
  EXPECT_EQ(q.run_until(TimePoint::at_seconds(2.0)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

Transfer electrical(topo::TpuId src, topo::TpuId dst, DataSize bytes,
                    std::vector<DirectedLink> route) {
  Transfer t;
  t.src = src;
  t.dst = dst;
  t.bytes = bytes;
  t.route = std::move(route);
  return t;
}

TEST(FlowSim, SingleFlowFullRate) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  const auto r = sim.run_phase(
      {electrical(0, 1, DataSize::gib(1), {DirectedLink{0, 0, +1}})});
  EXPECT_NEAR(r.duration.to_seconds(),
              transfer_time(DataSize::gib(1), Bandwidth::gbps(100)).to_seconds(), 1e-9);
  EXPECT_EQ(r.peak_link_load, 1u);
}

TEST(FlowSim, TwoFlowsShareLinkHalfRate) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  const DirectedLink shared{0, 0, +1};
  const auto r = sim.run_phase({
      electrical(0, 1, DataSize::gib(1), {shared}),
      electrical(0, 1, DataSize::gib(1), {shared}),
  });
  EXPECT_NEAR(r.duration.to_seconds(),
              2 * transfer_time(DataSize::gib(1), Bandwidth::gbps(100)).to_seconds(),
              1e-9);
  EXPECT_EQ(r.peak_link_load, 2u);
  EXPECT_NEAR(r.flows[0].initial_rate.to_gbps(), 50.0, 1e-6);
}

TEST(FlowSim, ShortFlowFreesBandwidthForLongFlow) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  const DirectedLink shared{0, 0, +1};
  // Short flow (0.5 GiB) and long flow (1.5 GiB) share a link: short ends at
  // t=2*0.5/(100G) ... then long runs at full rate.
  const auto r = sim.run_phase({
      electrical(0, 1, DataSize::gib(0.5), {shared}),
      electrical(0, 1, DataSize::gib(1.5), {shared}),
  });
  const double g = DataSize::gib(1).to_bits();
  const double t_short = 0.5 * g / 50e9;
  const double t_long = t_short + (1.5 * g - 50e9 * t_short) / 100e9;
  EXPECT_NEAR(r.flows[0].completion.to_seconds(), t_short, 1e-9);
  EXPECT_NEAR(r.flows[1].completion.to_seconds(), t_long, 1e-9);
}

TEST(FlowSim, DisjointFlowsDoNotInteract) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  const auto r = sim.run_phase({
      electrical(0, 1, DataSize::gib(1), {DirectedLink{0, 0, +1}}),
      electrical(2, 3, DataSize::gib(1), {DirectedLink{2, 0, +1}}),
  });
  EXPECT_NEAR(r.duration.to_seconds(),
              transfer_time(DataSize::gib(1), Bandwidth::gbps(100)).to_seconds(), 1e-9);
}

TEST(FlowSim, OpticalFlowsIgnoreLinkContention) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  Transfer optical;
  optical.src = 0;
  optical.dst = 1;
  optical.bytes = DataSize::gib(1);
  optical.dedicated_rate = Bandwidth::gbps(800);
  const auto r = sim.run_phase({optical});
  EXPECT_NEAR(r.duration.to_seconds(),
              transfer_time(DataSize::gib(1), Bandwidth::gbps(800)).to_seconds(), 1e-9);
}

TEST(FlowSim, MultiHopFlowBottleneckedOnce) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  // A 2-hop flow and a 1-hop flow sharing only the second link.
  const DirectedLink l1{0, 0, +1};
  const DirectedLink l2{1, 0, +1};
  const auto r = sim.run_phase({
      electrical(0, 2, DataSize::gib(1), {l1, l2}),
      electrical(1, 2, DataSize::gib(1), {l2}),
  });
  // Both flows bottleneck on l2 at 50G each.
  EXPECT_NEAR(r.flows[0].initial_rate.to_gbps(), 50.0, 1e-6);
  EXPECT_NEAR(r.flows[1].initial_rate.to_gbps(), 50.0, 1e-6);
}

TEST(FlowSim, MaxMinGivesUnbottleneckedFlowTheRest) {
  const FlowSimulator sim{Bandwidth::gbps(90)};
  // Three flows on link A; one of them also crosses link B with one other.
  const DirectedLink a{0, 0, +1};
  const DirectedLink b{1, 0, +1};
  const auto r = sim.run_phase({
      electrical(0, 1, DataSize::gib(10), {a}),
      electrical(0, 1, DataSize::gib(10), {a}),
      electrical(0, 2, DataSize::gib(10), {a, b}),
      electrical(1, 2, DataSize::gib(10), {b}),
  });
  // Link A: 3 flows -> 30G each is the first bottleneck.
  EXPECT_NEAR(r.flows[0].initial_rate.to_gbps(), 30.0, 1e-6);
  EXPECT_NEAR(r.flows[2].initial_rate.to_gbps(), 30.0, 1e-6);
  // Link B: flow 3 gets the residual 60G.
  EXPECT_NEAR(r.flows[3].initial_rate.to_gbps(), 60.0, 1e-6);
}

TEST(FlowSim, EmptyPhase) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  const auto r = sim.run_phase({});
  EXPECT_EQ(r.duration, Duration::zero());
}

// Zero- and sub-epsilon-byte transfers complete instantly and still report
// the rate they would have started at — no flow is left with a zero
// initial_rate just because it never reached the filling loop.
TEST(FlowSim, ZeroByteTransfersRecordInitialRate) {
  const FlowSimulator sim{Bandwidth::gbps(100)};
  const DirectedLink link{0, 0, +1};
  Transfer optical_zero;
  optical_zero.src = 2;
  optical_zero.dst = 3;
  optical_zero.dedicated_rate = Bandwidth::gbps(300);
  const auto r = sim.run_phase({
      electrical(0, 1, DataSize::zero(), {link}),
      // 1e-8 bytes = 8e-8 bits, below the solver's done-epsilon.
      electrical(1, 2, DataSize::bytes(1e-8), {DirectedLink{1, 0, +1}}),
      optical_zero,
      electrical(0, 1, DataSize::gib(1), {link}),
  });
  ASSERT_EQ(r.flows.size(), 4u);
  EXPECT_EQ(r.flows[0].completion, Duration::zero());
  EXPECT_EQ(r.flows[1].completion, Duration::zero());
  EXPECT_EQ(r.flows[2].completion, Duration::zero());
  EXPECT_NEAR(r.flows[0].initial_rate.to_gbps(), 100.0, 1e-9);
  EXPECT_NEAR(r.flows[1].initial_rate.to_gbps(), 100.0, 1e-9);
  EXPECT_NEAR(r.flows[2].initial_rate.to_gbps(), 300.0, 1e-9);
  // The real flow is unaffected by its instantly-done link mate: full rate.
  EXPECT_NEAR(r.flows[3].initial_rate.to_gbps(), 100.0, 1e-9);
  EXPECT_NEAR(r.duration.to_seconds(),
              transfer_time(DataSize::gib(1), Bandwidth::gbps(100)).to_seconds(), 1e-9);
}

// --- Schedule-level: flow sim must reproduce the analytic cost model --------

class ScheduleSim : public ::testing::Test {
 protected:
  TpuCluster cluster_;
  coll::CostParams params_;
  DataSize n_ = DataSize::mib(64);
};

TEST_F(ScheduleSim, ElectricalSlice1MatchesAnalyticBeta) {
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const auto schedule = coll::build_reduce_scatter_schedule(
      cluster_, s, n_, Interconnect::kElectrical, params_);
  const FlowSimulator sim{cluster_.dim_bandwidth()};
  const auto result = sim.run(schedule);
  const auto plan = coll::build_plan(s, cluster_.config().rack_shape);
  const auto cost =
      coll::reduce_scatter_cost(plan, n_, Interconnect::kElectrical, params_);
  EXPECT_NEAR(result.total.to_seconds(), cost.beta_time.to_seconds(), 1e-9);
  EXPECT_EQ(result.peak_link_load, 1u) << "snake ring must be congestion-free";
}

TEST_F(ScheduleSim, OpticalSlice1MatchesAnalyticBetaPlusReconfig) {
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const auto schedule = coll::build_reduce_scatter_schedule(
      cluster_, s, n_, Interconnect::kOptical, params_);
  const FlowSimulator sim{cluster_.dim_bandwidth()};
  const auto result = sim.run(schedule);
  const auto plan = coll::build_plan(s, cluster_.config().rack_shape);
  const auto cost = coll::reduce_scatter_cost(plan, n_, Interconnect::kOptical, params_);
  EXPECT_NEAR(result.total.to_seconds(),
              (cost.beta_time + cost.reconfig_time(params_)).to_seconds(), 1e-9);
  EXPECT_NEAR(result.reconfig_time.to_micros(), 3.7, 1e-6);
}

TEST_F(ScheduleSim, ElectricalSlice3TwoStageMatches) {
  const Slice s{0, 0, Coord{{0, 0, 2}}, Shape{{4, 4, 1}}};
  const auto schedule = coll::build_reduce_scatter_schedule(
      cluster_, s, n_, Interconnect::kElectrical, params_);
  EXPECT_EQ(schedule.phases.size(), 6u);  // 3 steps x 2 stages
  const FlowSimulator sim{cluster_.dim_bandwidth()};
  const auto result = sim.run(schedule);
  const auto plan = coll::build_plan(s, cluster_.config().rack_shape);
  const auto cost =
      coll::reduce_scatter_cost(plan, n_, Interconnect::kElectrical, params_);
  EXPECT_NEAR(result.total.to_seconds(), cost.beta_time.to_seconds(), 1e-9);
}

TEST_F(ScheduleSim, OpticalBeatsElectricalOnSlice1) {
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const FlowSimulator sim{cluster_.dim_bandwidth()};
  const DataSize big = DataSize::gib(4);  // r is negligible at this size
  const auto elec = sim.run(coll::build_reduce_scatter_schedule(
      cluster_, s, big, Interconnect::kElectrical, params_));
  const auto opt = sim.run(coll::build_reduce_scatter_schedule(
      cluster_, s, big, Interconnect::kOptical, params_));
  EXPECT_NEAR(elec.total.to_seconds() / opt.total.to_seconds(), 3.0, 0.01)
      << "measured speedup should be ~3x for Slice-1 at large N";
}

TEST_F(ScheduleSim, ScheduleAccounting) {
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  const auto schedule = coll::build_reduce_scatter_schedule(
      cluster_, s, n_, Interconnect::kElectrical, params_);
  EXPECT_EQ(schedule.phases.size(), 7u);
  for (const auto& phase : schedule.phases) EXPECT_EQ(phase.transfers.size(), 8u);
  // ReduceScatter moves (p-1)/p * N per chip: 8 chips x 7/8 N = 7N.
  EXPECT_NEAR(schedule.total_bytes().to_bytes(), 7.0 * n_.to_bytes(), 1.0);
}

// --- All-to-all --------------------------------------------------------------

TEST(AllToAll, UniformDemandMatrix) {
  const auto m = coll::uniform_all_to_all(4, DataSize::mib(3));
  EXPECT_EQ(m.size, 4u);
  EXPECT_NEAR(m.at(0, 1).to_mib(), 1.0, 1e-12);
  EXPECT_NEAR(m.at(2, 3).to_mib(), 1.0, 1e-12);
}

TEST(AllToAll, MoeDemandConservesTokens) {
  Rng rng{99};
  const auto m = coll::moe_gating_demand(8, 100, 2, DataSize::kib(4), rng);
  DataSize total = DataSize::zero();
  for (std::size_t s = 0; s < 8; ++s) {
    for (std::size_t d = 0; d < 8; ++d) total += m.at(s, d);
  }
  // 8 chips x 100 tokens x 2 experts, minus self-routed tokens.
  EXPECT_LE(total.to_bytes(), 8 * 100 * 2 * DataSize::kib(4).to_bytes());
  EXPECT_GT(total.to_bytes(), 0.8 * 8 * 100 * 2 * DataSize::kib(4).to_bytes());
}

TEST(AllToAll, DimensionOrderRouteLengths) {
  TpuCluster cluster;
  const auto a = cluster.chip_at(0, Coord{{0, 0, 0}});
  const auto b = cluster.chip_at(0, Coord{{3, 2, 1}});
  const auto route = coll::dimension_order_route(cluster, a, b);
  // Shortest-way: x: 0->3 wraps -1 (1 hop), y: 2 hops, z: 1 hop.
  EXPECT_EQ(route.size(), 4u);
}

TEST(AllToAll, OpticalFasterThanElectricalForUniform) {
  TpuCluster cluster;
  const Slice s{0, 0, Coord{{0, 0, 0}}, Shape{{4, 4, 1}}};
  coll::CostParams params;
  const auto demand = coll::uniform_all_to_all(16, DataSize::mib(64));
  const auto elec_sched = coll::build_all_to_all_schedule(
      cluster, s, demand, Interconnect::kElectrical, params);
  const auto opt_sched = coll::build_all_to_all_schedule(
      cluster, s, demand, Interconnect::kOptical, params);
  const FlowSimulator sim{cluster.dim_bandwidth()};
  const auto elec = sim.run(elec_sched);
  const auto opt = sim.run(opt_sched);
  EXPECT_LT(opt.total.to_seconds(), elec.total.to_seconds());
  EXPECT_GT(elec.peak_link_load, 1u) << "electrical all-to-all must contend";
}

}  // namespace
}  // namespace lp::sim
