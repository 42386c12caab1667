#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "lightpath/fabric.hpp"
#include "routing/decentralized.hpp"
#include "routing/plan_cache.hpp"
#include "routing/planner.hpp"
#include "routing/repair.hpp"
#include "routing/router.hpp"

namespace lp::routing {
namespace {

using fabric::Direction;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::GlobalTile;
using fabric::TileCoord;
using fabric::TileId;
using fabric::Wafer;
using fabric::WaferParams;

TEST(Router, TrivialSelfRoute) {
  const Wafer wafer;
  const auto hops = find_route(wafer, 3, 3);
  ASSERT_TRUE(hops.has_value());
  EXPECT_TRUE(hops->empty());
}

TEST(Router, ShortestPathLength) {
  const Wafer wafer;
  const auto a = wafer.tile_at(TileCoord{0, 0});
  const auto b = wafer.tile_at(TileCoord{3, 5});
  const auto hops = find_route(wafer, a, b);
  ASSERT_TRUE(hops.has_value());
  EXPECT_EQ(hops->size(), 8u);
}

TEST(Router, PrefersFewerTurns) {
  const Wafer wafer;
  const auto a = wafer.tile_at(TileCoord{1, 0});
  const auto b = wafer.tile_at(TileCoord{1, 7});
  const auto hops = find_route(wafer, a, b);
  ASSERT_TRUE(hops.has_value());
  for (Direction d : *hops) EXPECT_EQ(d, Direction::kEast) << "straight line, no turns";
}

TEST(Router, RoutesAroundFullEdge) {
  WaferParams params;
  params.lanes_per_edge = 4;
  Wafer wafer{params};
  const auto a = wafer.tile_at(TileCoord{1, 0});
  const auto b = wafer.tile_at(TileCoord{1, 2});
  // Saturate the direct east edge out of (1,1).
  ASSERT_TRUE(wafer.reserve_lanes(wafer.tile_at(TileCoord{1, 1}), Direction::kEast, 4));
  const auto hops = find_route(wafer, a, b);
  ASSERT_TRUE(hops.has_value());
  EXPECT_GT(hops->size(), 2u) << "must detour";
  // Verify the path is feasible.
  EXPECT_TRUE(wafer.path_has_capacity(a, *hops, 1));
}

TEST(Router, ReportsInfeasible) {
  WaferParams params;
  params.lanes_per_edge = 2;
  Wafer wafer{params};
  // Cut tile (0,0) off entirely.
  const auto corner = wafer.tile_at(TileCoord{0, 0});
  ASSERT_TRUE(wafer.reserve_lanes(corner, Direction::kEast, 2));
  ASSERT_TRUE(wafer.reserve_lanes(corner, Direction::kSouth, 2));
  EXPECT_FALSE(find_route(wafer, corner, wafer.tile_at(TileCoord{2, 2})).has_value());
}

TEST(Router, RespectsLaneCount) {
  WaferParams params;
  params.lanes_per_edge = 4;
  Wafer wafer{params};
  const auto a = wafer.tile_at(TileCoord{0, 0});
  const auto b = wafer.tile_at(TileCoord{0, 1});
  RouteOptions opts;
  opts.lanes = 8;  // more than any edge has
  EXPECT_FALSE(find_route(wafer, a, b, opts).has_value());
}

TEST(Planner, PlacesRingDemands) {
  Fabric fab;
  CircuitPlanner planner{fab};
  std::vector<Demand> demands;
  for (fabric::TileId t = 0; t < 8; ++t) {
    demands.push_back(Demand{GlobalTile{0, t}, GlobalTile{0, (t + 1) % 8}, 4});
  }
  const auto report = planner.place_all(demands);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.placed.size(), 8u);
  EXPECT_GT(report.mzis_programmed, 0u);
  EXPECT_GT(report.reconfig_latency.to_micros(), 3.5);
  planner.release_all(report);
  EXPECT_EQ(fab.active_circuits(), 0u);
}

TEST(Planner, OffFabricDemandFailsWithoutSideEffects) {
  // Tile 42 lies past the default 4x8 wafer, and wafer 1 past a one-wafer
  // fabric: no such demand is placed, and the ledger does not move.
  Fabric fab;
  CircuitPlanner planner{fab};
  const std::uint64_t key = fab.ledger_key();
  const std::vector<Demand> off{Demand{GlobalTile{0, 42}, GlobalTile{0, 1}, 1},
                                Demand{GlobalTile{0, 1}, GlobalTile{0, 42}, 1},
                                Demand{GlobalTile{1, 0}, GlobalTile{1, 3}, 1}};
  for (const Demand& d : off) EXPECT_FALSE(planner.place_one(d).ok());
  const PlanReport report = planner.place_all(off);
  EXPECT_TRUE(report.placed.empty());
  EXPECT_EQ(report.failed, plan_order(fab, off));
  EXPECT_EQ(fab.active_circuits(), 0u);
  EXPECT_EQ(fab.ledger_key(), key);

  // plan_order keys them like cross-wafer demands, ahead of every same-wafer
  // one, and the same-wafer demand still places.
  const Demand on{GlobalTile{0, 0}, GlobalTile{0, 31}, 1};
  std::vector<Demand> mixed{on};
  mixed.insert(mixed.end(), off.begin(), off.end());
  EXPECT_EQ(plan_order(fab, mixed).back(), on);
  const PlanReport partial = planner.place_all(mixed);
  ASSERT_EQ(partial.placed.size(), 1u);
  EXPECT_EQ(partial.placed.front().demand, on);
  EXPECT_EQ(partial.failed.size(), off.size());
  planner.release_all(partial);
  EXPECT_EQ(fab.ledger_key(), key);
}

TEST(Planner, ReportsFailuresWithoutAbandoningRest) {
  FabricConfig config;
  config.wafer.lanes_per_edge = 8192;
  Fabric fab{config};
  CircuitPlanner planner{fab};
  // Tile 0 has only 16 Tx lambdas: three 8-lambda demands from it cannot all fit.
  std::vector<Demand> demands{
      Demand{GlobalTile{0, 0}, GlobalTile{0, 1}, 8},
      Demand{GlobalTile{0, 0}, GlobalTile{0, 2}, 8},
      Demand{GlobalTile{0, 0}, GlobalTile{0, 3}, 8},
      Demand{GlobalTile{0, 4}, GlobalTile{0, 5}, 8},
  };
  const auto report = planner.place_all(demands);
  EXPECT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.placed.size(), 3u);
  planner.release_all(report);
}

TEST(Planner, SameTileDemandFailsAndLeavesTheLedger) {
  Fabric fab;
  CircuitPlanner planner{fab};
  const std::uint64_t digest = fab.ledger_digest();
  const Demand self{GlobalTile{0, 6}, GlobalTile{0, 6}, 3};
  const auto report = planner.place_all({self});
  EXPECT_TRUE(report.placed.empty());
  ASSERT_EQ(report.failed.size(), 1u);
  EXPECT_EQ(report.failed.front(), self);
  EXPECT_EQ(report.mzis_programmed, 0u);
  EXPECT_EQ(fab.active_circuits(), 0u);
  EXPECT_EQ(fab.ledger_digest(), digest);
}

TEST(Planner, LaneScarcityTriggersDetours) {
  FabricConfig config;
  config.wafer.lanes_per_edge = 4;
  Fabric fab{config};
  CircuitPlanner planner{fab};
  // Many parallel demands across the same row exhaust the straight lanes.
  std::vector<Demand> demands;
  for (int i = 0; i < 3; ++i) {
    demands.push_back(Demand{GlobalTile{0, fab.wafer(0).tile_at(TileCoord{1, 0})},
                             GlobalTile{0, fab.wafer(0).tile_at(TileCoord{1, 7})}, 4});
  }
  const auto report = planner.place_all(demands);
  // First takes the straight row; the others detour through rows 0/2.
  EXPECT_TRUE(report.complete());
  unsigned detoured = 0;
  for (const auto& placed : report.placed) {
    const fabric::Circuit* c = fab.circuit(placed.id);
    ASSERT_NE(c, nullptr);
    if (c->turn_count() > 0) ++detoured;
  }
  EXPECT_GE(detoured, 2u) << "two of three circuits must leave the straight row";
  planner.release_all(report);
}

TEST(Decentralized, AllSucceedWithAmpleLanes) {
  Fabric fab;
  std::vector<Demand> demands;
  for (fabric::TileId t = 0; t < 16; ++t) {
    demands.push_back(Demand{GlobalTile{0, t}, GlobalTile{0, 31 - t}, 2});
  }
  const auto report = run_decentralized_setup(fab, demands);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.per_demand.size(), 16u);
  for (const auto& o : report.per_demand) {
    EXPECT_TRUE(o.success);
    EXPECT_GT(o.messages, 0u);
  }
  EXPECT_GT(report.makespan.to_micros(), 3.5) << "settle is included";
  // The real fabric was never touched.
  EXPECT_EQ(fab.wafer(0).total_lanes_used(), 0u);
}

TEST(Decentralized, ScarcityCausesRetriesOrFailures) {
  FabricConfig config;
  config.wafer.lanes_per_edge = 2;
  Fabric fab{config};
  std::vector<Demand> demands;
  // Everyone crosses the middle of row 0.
  for (int i = 0; i < 6; ++i) {
    demands.push_back(Demand{GlobalTile{0, 0}, GlobalTile{0, 7}, 1});
  }
  const auto report = run_decentralized_setup(fab, demands);
  unsigned retries = 0;
  for (const auto& o : report.per_demand) retries += o.retries;
  EXPECT_GT(retries + report.failures, 0u);
}

TEST(Decentralized, DeterministicUnderSeed) {
  Fabric fab;
  std::vector<Demand> demands{Demand{GlobalTile{0, 0}, GlobalTile{0, 9}, 1},
                              Demand{GlobalTile{0, 1}, GlobalTile{0, 8}, 1}};
  const auto a = run_decentralized_setup(fab, demands);
  const auto b = run_decentralized_setup(fab, demands);
  ASSERT_EQ(a.per_demand.size(), b.per_demand.size());
  for (std::size_t i = 0; i < a.per_demand.size(); ++i) {
    EXPECT_EQ(a.per_demand[i].messages, b.per_demand[i].messages);
    EXPECT_DOUBLE_EQ(a.per_demand[i].completion.to_seconds(),
                     b.per_demand[i].completion.to_seconds());
  }
}

TEST(Decentralized, CentralizedLatencyScalesWithDemands) {
  Fabric fab;
  const Duration few = centralized_setup_latency(fab, 10);
  const Duration many = centralized_setup_latency(fab, 1000);
  EXPECT_LT(few.to_seconds(), many.to_seconds());
}

TEST(Repair, SameWaferRepairCompletes) {
  Fabric fab;
  RepairRequest req;
  req.spare = GlobalTile{0, 12};
  req.neighbors = {GlobalTile{0, 3}, GlobalTile{0, 5}, GlobalTile{0, 20}};
  req.wavelengths = 2;
  const auto plan = repair_with_spare(fab, req);
  EXPECT_TRUE(plan.complete);
  EXPECT_EQ(plan.circuits.size(), 6u);  // both directions per neighbor
  EXPECT_EQ(plan.fibers_used, 0u);
  EXPECT_GT(plan.reconfig_latency.to_micros(), 3.5);
}

TEST(Repair, CrossWaferUsesFibers) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 16);
  RepairRequest req;
  req.spare = GlobalTile{1, 4};
  req.neighbors = {GlobalTile{0, 3}};
  req.wavelengths = 1;
  const auto plan = repair_with_spare(fab, req);
  EXPECT_TRUE(plan.complete);
  EXPECT_EQ(plan.fibers_used, 2u);
}

TEST(Repair, FailureRollsBackCleanly) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};  // no fiber links at all
  RepairRequest req;
  req.spare = GlobalTile{1, 4};
  req.neighbors = {GlobalTile{0, 3}};
  const auto plan = repair_with_spare(fab, req);
  EXPECT_FALSE(plan.complete);
  EXPECT_TRUE(plan.circuits.empty());
  EXPECT_EQ(fab.active_circuits(), 0u);
  EXPECT_EQ(fab.wafer(0).total_lanes_used(), 0u);
}

TEST(Repair, ChooseSparePrefersSameWafer) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  const std::vector<GlobalTile> candidates{GlobalTile{1, 0}, GlobalTile{0, 30},
                                           GlobalTile{0, 2}};
  const std::vector<GlobalTile> neighbors{GlobalTile{0, 1}, GlobalTile{0, 3}};
  const auto choice = choose_spare(fab, candidates, neighbors);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice.value(), 2u) << "same-wafer, closest candidate wins";
}

TEST(Repair, ChooseSpareEmptyFails) {
  Fabric fab;
  const std::vector<GlobalTile> neighbors{GlobalTile{0, 1}};
  EXPECT_FALSE(choose_spare(fab, {}, neighbors).ok());
}

TEST(Repair, ChooseSpareManhattanBreaksFiberTies) {
  Fabric fab;
  const Wafer& w = fab.wafer(0);
  // All candidates same-wafer (fiber tie at 0); the closer one wins even
  // when listed later.
  const std::vector<GlobalTile> candidates{
      GlobalTile{0, w.tile_at(TileCoord{3, 7})}, GlobalTile{0, w.tile_at(TileCoord{1, 2})}};
  const std::vector<GlobalTile> neighbors{GlobalTile{0, w.tile_at(TileCoord{1, 1})}};
  const auto choice = choose_spare(fab, candidates, neighbors);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice.value(), 1u) << "Manhattan distance breaks the fiber tie";
}

TEST(Repair, ChooseSpareExactTieFirstCandidateWins) {
  Fabric fab;
  const Wafer& w = fab.wafer(0);
  // (0,1) and (1,0) are both 1 hop from (0,0): fibers and distance tie, so
  // the first listed candidate must win (deterministic repair plans).
  const std::vector<GlobalTile> candidates{
      GlobalTile{0, w.tile_at(TileCoord{0, 1})}, GlobalTile{0, w.tile_at(TileCoord{1, 0})}};
  const std::vector<GlobalTile> neighbors{GlobalTile{0, w.tile_at(TileCoord{0, 0})}};
  const auto choice = choose_spare(fab, candidates, neighbors);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice.value(), 0u);
}

// Regression: a repair that fails mid-plan (first neighbor pair fits, the
// second exhausts the spare's Rx pool) must leave the fabric exactly as it
// found it — no leaked circuits, lanes, or wavelength reservations.
TEST(Repair, PartialFailureLeavesNoLeakedReservations) {
  Fabric fab;
  RepairRequest req;
  req.spare = GlobalTile{0, 12};
  req.neighbors = {GlobalTile{0, 3}, GlobalTile{0, 20}};
  req.wavelengths = 16;  // first neighbor consumes all 16 Rx at the spare
  const auto plan = repair_with_spare(fab, req);
  EXPECT_FALSE(plan.complete);
  EXPECT_TRUE(plan.circuits.empty());
  EXPECT_EQ(fab.active_circuits(), 0u);
  EXPECT_EQ(fab.wafer(0).total_lanes_used(), 0u);
  for (const TileId t : {TileId{3}, TileId{12}, TileId{20}}) {
    EXPECT_EQ(fab.wafer(0).tile(t).tx_used(), 0u) << "tile " << t;
    EXPECT_EQ(fab.wafer(0).tile(t).rx_used(), 0u) << "tile " << t;
  }
}

// A spare or neighbor off the fabric — on a wafer the fabric does not have,
// or past its wafer's last tile — is an incomplete repair that touches
// nothing: no circuit, no ledger write, no epoch bump.
TEST(Repair, TilesOffTheFabricLeaveTheFabricUntouched) {
  Fabric fab;
  const std::uint64_t key = fab.ledger_key();
  const std::uint64_t epoch = fab.epoch();
  const std::vector<std::pair<GlobalTile, std::vector<GlobalTile>>> cases{
      {GlobalTile{5, 0}, {GlobalTile{5, 1}}},
      {GlobalTile{5, 0}, {GlobalTile{0, 1}}},
      {GlobalTile{0, 12}, {GlobalTile{0, 3}, GlobalTile{5, 1}}},
      {GlobalTile{0, 12}, {GlobalTile{0, 999}}},
      {GlobalTile{0, 32}, {GlobalTile{0, 3}}},
  };
  for (const auto& [spare, neighbors] : cases) {
    RepairRequest req;
    req.spare = spare;
    req.neighbors = neighbors;
    req.wavelengths = 2;
    const RepairPlan plan = repair_with_spare(fab, req);
    EXPECT_FALSE(plan.complete);
    EXPECT_TRUE(plan.circuits.empty());
    EXPECT_EQ(plan.reconfig_latency, Duration::zero());
    EXPECT_EQ(fab.ledger_key(), key);
    EXPECT_EQ(fab.epoch(), epoch);
    EXPECT_EQ(fab.active_circuits(), 0u);
  }
}

TEST(Repair, ChooseSpareNeverPicksACandidateOffTheFabric) {
  Fabric fab;
  const std::vector<GlobalTile> off_wafer{GlobalTile{5, 0}};
  const std::vector<GlobalTile> off_wafer_neighbor{GlobalTile{5, 1}};
  EXPECT_FALSE(choose_spare(fab, off_wafer, off_wafer_neighbor).ok());
  const std::vector<GlobalTile> off_fabric{GlobalTile{5, 0}, GlobalTile{0, 40}};
  const std::vector<GlobalTile> neighbor{GlobalTile{0, 1}};
  EXPECT_FALSE(choose_spare(fab, off_fabric, neighbor).ok());
  // Tile 33 would sit 4 hops from tile 1 and tile 20 sits 5 away, so only
  // the check keeps the off-wafer tile from winning.
  const std::vector<GlobalTile> candidates{GlobalTile{5, 0}, GlobalTile{0, 33},
                                           GlobalTile{0, 20}, GlobalTile{1, 0}};
  const auto choice = choose_spare(fab, candidates, neighbor);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice.value(), 2u);
}

// --- escalate_repair: the graceful-degradation ladder ----------------------

TEST(Escalate, RetuneRecoversLaserLossWithHeadroom) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;  // tile 0 has 14 free Tx: plenty to re-lock onto
  const auto out = escalate_repair(fab, victim, {});
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRetune);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRetune)], 1u);
  ASSERT_EQ(out.circuits.size(), 1u);
  EXPECT_EQ(out.circuits.front(), id.value()) << "retune keeps the circuit";
  EXPECT_EQ(fab.active_circuits(), 1u);
  EXPECT_GT(out.latency.to_seconds(), 0.0);
}

TEST(Escalate, RerouteAroundBlockedPath) {
  Fabric fab;
  Wafer& w = fab.wafer(0);
  const TileId a = w.tile_at(TileCoord{0, 0});
  const TileId b = w.tile_at(TileCoord{0, 2});
  const auto id = fab.connect(GlobalTile{0, a}, GlobalTile{0, b}, 2);
  ASSERT_TRUE(id.ok());
  // Block the straight east-east path as a stuck switch would (both directed
  // edges of the first hop quarantined).
  ASSERT_TRUE(w.reserve_lanes(a, Direction::kEast, w.lanes_free(a, Direction::kEast)));
  const TileId mid = *w.neighbor(a, Direction::kEast);
  ASSERT_TRUE(w.reserve_lanes(mid, Direction::kWest, w.lanes_free(mid, Direction::kWest)));

  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  const auto out = escalate_repair(fab, victim, {});
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kReroute);
  EXPECT_EQ(fab.active_circuits(), 1u) << "victim replaced, not duplicated";
  ASSERT_EQ(out.circuits.size(), 1u);
  EXPECT_NE(out.circuits.front(), id.value());
  const fabric::Circuit* c = fab.circuit(out.circuits.front());
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->waveguide_hop_count(), 2u) << "detour around the blocked edge";
}

TEST(Escalate, RespareReplacesDeadEndpoint) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dst_dead = true;  // reroute cannot help; endpoint must move
  EscalationOptions opts;
  const std::vector<GlobalTile> spares{GlobalTile{0, 11}};
  opts.spare_candidates = spares;
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRespare);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kReroute)], 0u)
      << "dead endpoint skips the reroute rung";
  EXPECT_EQ(out.circuits.size(), 2u) << "anchor<->spare, both directions";
  EXPECT_EQ(fab.circuit(id.value()), nullptr) << "victim torn down";
  EXPECT_EQ(fab.active_circuits(), 2u);
}

// Rung 3 reads the caller's list in place until a spare fails, then
// excludes that spare and no other: the nearest spare (tile 9, between two
// farther ones in the list) is rejected, and the next try lands on the
// nearer of the two left.
TEST(Escalate, RespareExcludesOnlyTheRejectedSpare) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dst_dead = true;
  const GlobalTile rejected{0, 9};
  const std::vector<GlobalTile> spares{GlobalTile{0, 31}, rejected, GlobalTile{0, 12}};
  EscalationOptions opts;
  opts.spare_candidates = spares;
  opts.validate = [&](const Fabric& f, fabric::CircuitId c) {
    return f.circuit(c)->src != rejected && f.circuit(c)->dst != rejected;
  };
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRespare);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRespare)], 2u);
  ASSERT_EQ(out.circuits.size(), 2u);
  EXPECT_EQ(fab.circuit(out.circuits[0])->dst, (GlobalTile{0, 12}));
}

TEST(Escalate, ElectricalDetourWhenOpticalRungsExhausted) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  EscalationOptions opts;
  const std::vector<GlobalTile> spares{GlobalTile{0, 11}};
  opts.spare_candidates = spares;
  opts.electrical_feasible = true;
  opts.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kElectricalDetour);
  EXPECT_GT(out.attempts[rung_index(RepairRung::kReroute)], 0u);
  EXPECT_GT(out.attempts[rung_index(RepairRung::kRespare)], 0u);
  EXPECT_EQ(fab.active_circuits(), 0u) << "traffic left the optical domain";
  EXPECT_GE(out.latency, opts.electrical_detour_latency);
}

TEST(Escalate, RackMigrationIsTheLastResortAndCannotFail) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  EscalationOptions opts;
  opts.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRackMigration);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRackMigration)], 1u);
  EXPECT_GE(out.latency, opts.migration_latency);
  EXPECT_EQ(fab.active_circuits(), 0u);
}

// A rung whose replacement is rejected mid-attempt must roll it back fully:
// after every optical rung fails, the fabric differs from the initial state
// by exactly the victim's teardown — nothing else leaked.
TEST(Escalate, FailedRungsRollBackToExactState) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 16);
  (void)fab.connect(GlobalTile{0, 16}, GlobalTile{0, 19}, 2);  // bystander
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{1, 4}, 2);
  ASSERT_TRUE(id.ok());

  Fabric expected = fab;  // the only sanctioned change: victim teardown
  expected.disconnect(id.value());

  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  EscalationOptions opts;
  const std::vector<GlobalTile> spares{GlobalTile{0, 27}, GlobalTile{1, 20}};
  opts.spare_candidates = spares;
  opts.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_EQ(out.rung, RepairRung::kRackMigration);
  EXPECT_GT(out.attempts[rung_index(RepairRung::kReroute)], 0u);
  EXPECT_GT(out.attempts[rung_index(RepairRung::kRespare)], 0u);

  EXPECT_EQ(fab.active_circuits(), expected.active_circuits());
  for (fabric::WaferId w = 0; w < fab.wafer_count(); ++w) {
    EXPECT_EQ(fab.wafer(w).total_lanes_used(), expected.wafer(w).total_lanes_used());
    for (fabric::TileId t = 0; t < fab.wafer(w).tile_count(); ++t) {
      EXPECT_EQ(fab.wafer(w).tile(t).tx_used(), expected.wafer(w).tile(t).tx_used());
      EXPECT_EQ(fab.wafer(w).tile(t).rx_used(), expected.wafer(w).tile(t).rx_used());
    }
  }
  for (std::size_t i = 0; i < fab.fiber_links().size(); ++i) {
    EXPECT_EQ(fab.fiber_links()[i].used, expected.fiber_links()[i].used);
  }
}

TEST(Escalate, UnknownCircuitIsNotRepairable) {
  Fabric fab;
  DegradedCircuit victim;
  victim.id = 12345;
  const auto out = escalate_repair(fab, victim, {});
  EXPECT_FALSE(out.recovered);
  EXPECT_FALSE(out.budget_exhausted) << "plan failure, not a timeout";
  for (const auto a : out.attempts) EXPECT_EQ(a, 0u);
}

// --- escalate_repair: wall-clock budget ------------------------------------

TEST(Escalate, BudgetExhaustionLeavesVictimEstablished) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  EscalationOptions opts;
  // Every replacement is rejected, so each reroute/respare attempt burns
  // probe latency; a sub-attempt budget exhausts after the first charge.
  const std::vector<GlobalTile> spares{GlobalTile{0, 11}};
  opts.spare_candidates = spares;
  opts.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  opts.budget = Duration::micros(0.001);
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_GE(out.latency, opts.budget) << "the started attempt is charged in full";
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRackMigration)], 0u)
      << "exhaustion gates even the last-resort rung";
  EXPECT_NE(fab.circuit(id.value()), nullptr)
      << "exhausted climb leaves the victim for a later retry";
  EXPECT_EQ(fab.active_circuits(), 1u) << "no leaked replacements";
}

TEST(Escalate, ZeroBudgetMeansUnlimited) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  EscalationOptions opts;
  opts.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  ASSERT_EQ(opts.budget, Duration::zero());
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered) << "unlimited budget always reaches rung 5";
  EXPECT_EQ(out.rung, RepairRung::kRackMigration);
  EXPECT_FALSE(out.budget_exhausted);
}

TEST(Planner, PlaceAllIsInvariantUnderInputPermutation) {
  // Regression: equal-Manhattan-distance demands used to keep their input
  // order through the stable sort, so permuting the input permuted the
  // placement order — and, under contention, which demands won the lanes.
  // plan_order now breaks distance ties by ascending (src, dst,
  // wavelengths), making the plan a function of the demand *set*.
  fabric::WaferParams params;
  params.rows = 4;
  params.cols = 8;
  params.lanes_per_edge = 2;  // scarce: placement order decides winners
  FabricConfig config;
  config.wafer = params;

  // All demands span the same Manhattan distance (3), crossing paths.
  const std::vector<Demand> demands{
      {{0, 0}, {0, 3}, 2},  {{0, 8}, {0, 11}, 2}, {{0, 3}, {0, 0}, 2},
      {{0, 11}, {0, 8}, 2}, {{0, 1}, {0, 25}, 2}, {{0, 25}, {0, 1}, 2},
  };
  std::vector<Demand> permuted = demands;
  std::reverse(permuted.begin(), permuted.end());

  Fabric fab_a{config};
  Fabric fab_b{config};
  const PlanReport a = CircuitPlanner{fab_a}.place_all(demands);
  const PlanReport b = CircuitPlanner{fab_b}.place_all(permuted);

  ASSERT_EQ(a.placed.size(), b.placed.size());
  for (std::size_t i = 0; i < a.placed.size(); ++i) {
    EXPECT_EQ(a.placed[i].demand, b.placed[i].demand) << "index " << i;
  }
  ASSERT_EQ(a.failed.size(), b.failed.size());
  for (std::size_t i = 0; i < a.failed.size(); ++i) {
    EXPECT_EQ(a.failed[i], b.failed[i]) << "index " << i;
  }
  EXPECT_EQ(a.mzis_programmed, b.mzis_programmed);
  EXPECT_EQ(fab_a.ledger_digest(), fab_b.ledger_digest());
}

TEST(Planner, PlanOrderIsATotalOrder) {
  const Fabric fab;
  std::vector<Demand> demands{
      {{0, 5}, {0, 6}, 1}, {{0, 2}, {0, 1}, 1}, {{0, 1}, {0, 2}, 2},
      {{0, 1}, {0, 2}, 1}, {{0, 0}, {0, 7}, 1},
  };
  const auto ordered = plan_order(fab, demands);
  // Longest first...
  ASSERT_EQ(ordered.size(), 5u);
  EXPECT_EQ(ordered[0].src.tile, 0u);
  EXPECT_EQ(ordered[0].dst.tile, 7u);
  // ...then distance-1 ties in ascending (src, dst, wavelengths) order.
  EXPECT_EQ(ordered[1], (Demand{{0, 1}, {0, 2}, 1}));
  EXPECT_EQ(ordered[2], (Demand{{0, 1}, {0, 2}, 2}));
  EXPECT_EQ(ordered[3], (Demand{{0, 2}, {0, 1}, 1}));
  EXPECT_EQ(ordered[4], (Demand{{0, 5}, {0, 6}, 1}));
}

TEST(Escalate, GenerousBudgetDoesNotChangeTheOutcome) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;
  EscalationOptions opts;
  opts.budget = Duration::seconds(1.0);
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRetune);
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_LT(out.latency, opts.budget);
}

// --- Retry backoff, transient failures, and budget accounting (gray) -------

TEST(Backoff, DelayScheduleIsDeterministicAndJittered) {
  RetryBackoff plain;
  plain.base = Duration::micros(50.0);
  EXPECT_EQ(plain.delay(0), Duration::zero()) << "retry 0 is the first attempt";
  EXPECT_EQ(plain.delay(1), Duration::micros(50.0));
  EXPECT_EQ(plain.delay(2), Duration::micros(100.0));
  EXPECT_EQ(plain.delay(3), Duration::micros(200.0));

  RetryBackoff off;  // zero base disables waits entirely
  off.jitter_fraction = 0.5;
  EXPECT_EQ(off.delay(5), Duration::zero());

  RetryBackoff jittered = plain;
  jittered.jitter_fraction = 0.5;
  jittered.seed = 7;
  double want = 50e-6;
  for (std::uint64_t k = 1; k <= 4; ++k, want *= 2.0) {
    const double got = jittered.delay(k).to_seconds();
    EXPECT_GE(got, want * 0.5) << "retry " << k;
    EXPECT_LE(got, want * 1.5) << "retry " << k;
    EXPECT_EQ(jittered.delay(k), jittered.delay(k))
        << "jitter must be a pure function of (seed, retry)";
  }
  RetryBackoff other = jittered;
  other.seed = 8;
  EXPECT_NE(other.delay(1), jittered.delay(1))
      << "different seeds should draw different jitter";
}

TEST(Escalate, AllTransientClimbReportsTransientFailedAndKeepsTheVictim) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  const std::uint64_t epoch_before = fab.epoch();
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  EscalationOptions opts;
  opts.backoff.base = Duration::micros(50.0);
  opts.transient_failure = [](RepairRung, std::uint32_t) { return true; };
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_FALSE(out.recovered);
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_TRUE(out.transient_failed);
  EXPECT_GT(out.transient_failures, 0u);
  EXPECT_GT(out.backoff_latency.to_seconds(), 0.0);
  EXPECT_GE(out.latency, out.backoff_latency);
  EXPECT_EQ(fab.active_circuits(), 1u) << "victim must stay established";
  EXPECT_EQ(fab.epoch(), epoch_before)
      << "an all-transient climb must not mutate the fabric";
}

TEST(Escalate, TransientRetryWithinARungThenSucceeds) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  EscalationOptions opts;
  opts.backoff.base = Duration::micros(50.0);
  // First programming attempt of the climb settles out; the retry locks.
  opts.transient_failure = [](RepairRung, std::uint32_t attempt) {
    return attempt == 0;
  };
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRetune);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRetune)], 2u);
  EXPECT_EQ(out.transient_failures, 1u);
  EXPECT_EQ(out.backoff_latency, opts.backoff.delay(1))
      << "exactly one wait, before the successful retry";
}

TEST(Escalate, RungTimeoutAbandonsASlowRung) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  // Every attempt is transient and each retry waits 1 ms: with a 100 us
  // rung cap the retune rung is abandoned after its first attempt instead
  // of burning retries_per_rung attempts in place.
  EscalationOptions capped;
  capped.retries_per_rung = 8;
  capped.backoff.base = Duration::millis(1.0);
  capped.rung_timeout = Duration::micros(100.0);
  capped.transient_failure = [](RepairRung r, std::uint32_t) {
    return r == RepairRung::kRetune;
  };
  const auto out = escalate_repair(fab, victim, capped);
  EXPECT_TRUE(out.recovered);
  EXPECT_NE(out.rung, RepairRung::kRetune) << "the climb must escalate past retune";
  EXPECT_LE(out.attempts[rung_index(RepairRung::kRetune)], 2u)
      << "the cap, not retries_per_rung, bounds the rung";
}

// Regression (budget-exhausted accounting audit): a rung the budget gates
// off before entry must charge neither attempts nor latency -- the outcome
// stops exactly at the spend recorded when the gate closed.
TEST(Escalate, BudgetGatedRungChargesNoAttemptsOrLatency) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;  // retune is skipped; reroute would be next

  // One failed-validation reroute attempt costs exactly one settle probe.
  // Grant precisely that: the climb charges the first attempt in full, and
  // every later rung is gated off with zero attempts and zero latency.
  const Duration one_attempt = fab.reconfig().settle_latency();
  ASSERT_GT(one_attempt.to_seconds(), 0.0);

  EscalationOptions opts;
  opts.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  opts.electrical_feasible = true;
  opts.budget = one_attempt;  // gate closes exactly after the first attempt
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_FALSE(out.recovered);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kReroute)], 1u);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRespare)], 0u);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kElectricalDetour)], 0u)
      << "a rung never entered must count zero attempts";
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRackMigration)], 0u);
  EXPECT_EQ(out.latency, one_attempt)
      << "no rolled-back latency from rungs the budget gated off";
}

// Rung 2 replays a strategy's probe only over the ledger it was recorded
// under.  Two climbs of one recovery share a memo; between the first
// climb's probes and the second climb's reroute, the second climb's oracle
// connects a circuit onto the victim's only route (at its first call, on
// the retune rung, with no replacement up).  The reroute must then place
// live, fail, and advance to the next strategy, as a climb with a fresh
// memo does; replaying the stale probe would ask the oracle instead and
// retry the same strategy.
TEST(Escalate, RerouteReprobesWhenTheLedgerMoves) {
  FabricConfig config;
  config.wafer.rows = 1;
  config.wafer.cols = 4;
  config.wafer.lanes_per_edge = 2;  // the victim's lane plus one
  struct Run {
    EscalationOutcome second;
    std::uint32_t oracle_calls{0};
    std::uint64_t route_misses{0};
    std::uint64_t ledger_key{0};
  };
  const auto run = [&config](bool shared_memo) {
    Fabric fab{config};
    PlanCache cache{fab};
    const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 1);
    EXPECT_TRUE(id.ok());
    DegradedCircuit victim;
    victim.id = id.value();
    victim.budget_failed = true;
    victim.dead_lasers = 1;  // retune runs, and asks the oracle, before the reroute
    EscalationOptions opts;
    opts.cache = &cache;
    opts.transient_failure = [](RepairRung, std::uint32_t) { return true; };
    RerouteMemo memo;
    RerouteMemo fresh;
    const EscalationOutcome first = escalate_repair(fab, victim, opts, memo);
    EXPECT_TRUE(first.transient_failed);
    EXPECT_EQ(first.attempts[rung_index(RepairRung::kReroute)], 2u)
        << "the router strategy, then its transient retry";

    auto calls = std::make_shared<std::uint32_t>(0);
    opts.transient_failure = [&fab, calls](RepairRung, std::uint32_t) {
      if (++*calls == 1) {
        EXPECT_TRUE(fab.connect(GlobalTile{0, 1}, GlobalTile{0, 2}, 1).ok());
      }
      return true;
    };
    Run r;
    r.second = escalate_repair(fab, victim, opts, shared_memo ? memo : fresh);
    r.oracle_calls = *calls;
    r.route_misses = cache.stats().route_misses;
    r.ledger_key = fab.ledger_key();
    return r;
  };
  const Run shared = run(true);
  const Run reference = run(false);

  const EscalationOutcome& out = shared.second;
  EXPECT_TRUE(out.transient_failed);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kReroute)], 2u)
      << "both strategies, each failing deterministically";
  EXPECT_EQ(out.transient_failures, 4u) << "two retunes and two migrations, no reroute";
  EXPECT_EQ(shared.oracle_calls, 4u);
  EXPECT_EQ(shared.route_misses, 2u) << "the router strategy searched again";

  EXPECT_EQ(out.transient_failed, reference.second.transient_failed);
  EXPECT_EQ(out.attempts, reference.second.attempts);
  EXPECT_EQ(out.transient_failures, reference.second.transient_failures);
  EXPECT_EQ(out.latency, reference.second.latency);
  EXPECT_EQ(shared.oracle_calls, reference.oracle_calls);
  EXPECT_EQ(shared.route_misses, reference.route_misses);
  EXPECT_EQ(shared.ledger_key, reference.ledger_key);
}

TEST(Escalate, EmptySpareListAndInfeasibleDetourCountZeroAttempts) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  DegradedCircuit victim;
  victim.id = id.value();
  victim.src_dead = true;  // only respare / the electrical rungs apply

  EscalationOptions opts;  // no spare candidates, detour infeasible
  const auto out = escalate_repair(fab, victim, opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, RepairRung::kRackMigration);
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRespare)], 0u)
      << "no spare was ever selected, so no attempt was made";
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kElectricalDetour)], 0u)
      << "an infeasible detour is a gate, not an attempt";
  EXPECT_EQ(out.attempts[rung_index(RepairRung::kRackMigration)], 1u);
}

}  // namespace
}  // namespace lp::routing
