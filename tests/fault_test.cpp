// Tests of the component-fault layer: deterministic injection, the
// apply/revert overlay, health diagnosis, the fault-aware repair ladder, and
// the component-fault Monte-Carlo study.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/failure_study.hpp"
#include "fault/fault.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/repair.hpp"
#include "util/parallel.hpp"

namespace lp::fault {
namespace {

using fabric::Direction;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::GlobalTile;
using fabric::TileId;

Fabric two_wafer_fabric() {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  const auto& w = fab.wafer(0);
  for (std::int32_t row = 0; row < w.rows(); ++row) {
    fab.add_fiber_link({0, w.tile_at({row, w.cols() - 1})}, {1, w.tile_at({row, 0})},
                       16);
  }
  return fab;
}

bool same_fault(const Fault& a, const Fault& b) {
  return a.kind == b.kind && a.tile == b.tile && a.direction == b.direction &&
         a.fiber_link == b.fiber_link &&
         a.excess_loss.value() == b.excess_loss.value() &&
         a.tau_factor == b.tau_factor && a.dead_lasers == b.dead_lasers &&
         a.stuck_port == b.stuck_port;
}

TEST(Injector, SampleTrialIsPureFunctionOfSeedAndTrial) {
  const Fabric fab = two_wafer_fabric();
  const FaultInjector injector{fab, {}, 42};
  bool any_difference = false;
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    const auto a = injector.sample_trial(trial);
    const auto b = injector.sample_trial(trial);
    ASSERT_EQ(a.size(), b.size()) << trial;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(same_fault(a[i], b[i])) << "trial " << trial << " fault " << i;
    }
    if (trial > 0 && !any_difference) {
      const auto prev = injector.sample_trial(trial - 1);
      any_difference = prev.size() != a.size() || !same_fault(prev.front(), a.front());
    }
  }
  EXPECT_TRUE(any_difference) << "different trials draw different faults";
}

TEST(Injector, BurstsConfineToTheFirstFaultsWafer) {
  const Fabric fab = two_wafer_fabric();
  FaultModelParams params;
  params.burst_probability = 1.0;
  params.fiber_cut_weight = 0.0;  // cut anchors span wafers; exclude for the check
  params.rack_power_probability = 0.0;  // rack-power bursts cross wafers by design
  const FaultInjector injector{fab, params, 7};
  std::size_t bursts = 0;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const auto faults = injector.sample_trial(trial);
    ASSERT_GE(faults.size(), 2u) << "burst_probability=1 always bursts";
    ++bursts;
    for (const Fault& f : faults) {
      EXPECT_EQ(f.tile.wafer, faults.front().tile.wafer) << "trial " << trial;
    }
  }
  EXPECT_GT(bursts, 0u);
}

// Rack-power bursts spill onto the wafers after the anchor's, in order —
// extra i lands on wafer (w0 + 1 + i) mod wafer_count.  The domain draw is
// part of the seeded stream, so the split below is a regression pin: a
// change to the draw order shows up as a different domain mix.
TEST(Injector, RackPowerBurstsSpanConsecutiveWafers) {
  FabricConfig config;
  config.wafer_count = 4;
  const Fabric fab{config};
  FaultModelParams params;
  params.burst_probability = 1.0;
  params.fiber_cut_weight = 0.0;
  params.rack_power_probability = 1.0;  // every burst is a rack-power event
  const FaultInjector injector{fab, params, 7};
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const SampledFaults sf = injector.sample_trial_with_domain(trial);
    ASSERT_GE(sf.faults.size(), 2u);
    EXPECT_EQ(sf.domain, BurstDomain::kRackPower) << "trial " << trial;
    const auto w0 = sf.faults.front().tile.wafer;
    for (std::size_t i = 1; i < sf.faults.size(); ++i) {
      const auto want = static_cast<fabric::WaferId>(
          (w0 + static_cast<fabric::WaferId>(i)) % config.wafer_count);
      EXPECT_EQ(sf.faults[i].tile.wafer, want)
          << "trial " << trial << " extra " << i - 1;
    }
  }
}

// On a single-wafer fabric there is no second wafer to power down, so the
// domain degrades to kWafer — but the Bernoulli draw still happens, keeping
// the stream identical to the multi-wafer case.
TEST(Injector, RackPowerDomainDegradesOnSingleWafer) {
  const Fabric fab{FabricConfig{}};
  FaultModelParams params;
  params.burst_probability = 1.0;
  params.rack_power_probability = 1.0;
  const FaultInjector injector{fab, params, 7};
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const SampledFaults sf = injector.sample_trial_with_domain(trial);
    EXPECT_EQ(sf.domain, BurstDomain::kWafer) << "trial " << trial;
    for (const Fault& f : sf.faults) EXPECT_EQ(f.tile.wafer, 0u);
  }
}

// The domain draw is a pure function of (seed, trial): same inputs, same
// SampledFaults — and single-fault trials report kNone.
TEST(Injector, DomainDrawIsDeterministic) {
  const Fabric fab = two_wafer_fabric();
  FaultModelParams params;
  params.burst_probability = 0.0;  // never bursts
  const FaultInjector injector{fab, params, 42};
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    const SampledFaults a = injector.sample_trial_with_domain(trial);
    const SampledFaults b = injector.sample_trial_with_domain(trial);
    EXPECT_EQ(a.domain, BurstDomain::kNone);
    ASSERT_EQ(a.faults.size(), 1u);
    ASSERT_EQ(b.faults.size(), 1u);
    EXPECT_TRUE(same_fault(a.faults.front(), b.faults.front())) << trial;
  }
}

TEST(FaultSet, QueriesReflectAddedFaults) {
  FaultSet fs;
  fs.add({.kind = FaultKind::kMziStuck, .tile = {0, 5}, .direction = Direction::kEast});
  fs.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 5},
          .direction = Direction::kEast, .excess_loss = Decibel::db(2.0)});
  fs.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 5},
          .direction = Direction::kEast, .excess_loss = Decibel::db(1.5)});
  fs.add({.kind = FaultKind::kLaserLoss, .tile = {1, 3}, .dead_lasers = 4});
  fs.add({.kind = FaultKind::kFiberCut, .fiber_link = 2});
  fs.add({.kind = FaultKind::kChipDeath, .tile = {1, 9}});

  EXPECT_TRUE(fs.mzi_stuck({0, 5}, Direction::kEast));
  EXPECT_FALSE(fs.mzi_stuck({0, 5}, Direction::kWest));
  EXPECT_DOUBLE_EQ(fs.waveguide_excess({0, 5}, Direction::kEast).value(), 3.5)
      << "repeated drift accumulates";
  EXPECT_EQ(fs.dead_lasers({1, 3}), 4u);
  EXPECT_EQ(fs.dead_lasers({0, 3}), 0u);
  EXPECT_TRUE(fs.fiber_cut(2));
  EXPECT_FALSE(fs.fiber_cut(0));
  EXPECT_TRUE(fs.chip_dead({1, 9}));
  EXPECT_FALSE(fs.chip_dead({0, 9}));
}

// apply_to() must be exactly undone by revert(): same lanes, endpoint
// wavelengths, fiber flags and usage, and MZI parameters as before.
TEST(FaultSet, ApplyThenRevertRestoresTheFabric) {
  Fabric fab = two_wafer_fabric();
  (void)fab.connect({0, 0}, {0, 3}, 2);
  (void)fab.connect({0, 7}, {1, 4}, 2);

  const auto lanes0 = fab.wafer(0).total_lanes_used();
  const auto lanes1 = fab.wafer(1).total_lanes_used();
  const auto tx0 = fab.wafer(0).tile(0).tx_used();
  const auto tau = fab.wafer(0).tile(5).mzi(Direction::kEast).params().tau;
  const auto target = fab.wafer(0).tile(5).mzi(Direction::kEast).target_port();
  const auto fiber_used = fab.fiber_links()[0].used;

  FaultSet fs;
  fs.add({.kind = FaultKind::kMziStuck, .tile = {0, 5}, .direction = Direction::kEast,
          .stuck_port = phys::MziPort::kCross});
  fs.add({.kind = FaultKind::kMziDrift, .tile = {0, 5}, .direction = Direction::kEast,
          .excess_loss = Decibel::db(0.8), .tau_factor = 4.0});
  fs.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 9},
          .direction = Direction::kSouth, .excess_loss = Decibel::db(5.0)});
  fs.add({.kind = FaultKind::kFiberCut, .fiber_link = 0});
  fs.add({.kind = FaultKind::kLaserLoss, .tile = {0, 0}, .dead_lasers = 3});
  fs.add({.kind = FaultKind::kChipDeath, .tile = {1, 20}});
  fs.apply_to(fab);
  EXPECT_TRUE(fs.applied());

  // The overlay took effect.
  EXPECT_GT(fab.wafer(0).total_lanes_used(), lanes0) << "edges quarantined";
  EXPECT_TRUE(fab.fiber_links()[0].down);
  EXPECT_EQ(fab.wafer(0).tile(0).tx_used(), tx0 + 3) << "dark lasers parked";
  EXPECT_EQ(fab.wafer(1).tile(20).tx_free(), 0u) << "dead chip endpoints parked";
  EXPECT_EQ(fab.wafer(1).tile(20).rx_free(), 0u);
  EXPECT_EQ(fab.wafer(0).tile(5).mzi(Direction::kEast).target_port(),
            phys::MziPort::kCross);
  EXPECT_GT(fab.wafer(0).tile(5).mzi(Direction::kEast).params().tau, tau);

  fs.revert(fab);
  EXPECT_FALSE(fs.applied());
  EXPECT_EQ(fab.wafer(0).total_lanes_used(), lanes0);
  EXPECT_EQ(fab.wafer(1).total_lanes_used(), lanes1);
  EXPECT_EQ(fab.wafer(0).tile(0).tx_used(), tx0);
  EXPECT_FALSE(fab.fiber_links()[0].down);
  EXPECT_EQ(fab.fiber_links()[0].used, fiber_used);
  EXPECT_EQ(fab.wafer(1).tile(20).tx_used(), 0u);
  EXPECT_EQ(fab.wafer(1).tile(20).rx_used(), 0u);
  EXPECT_EQ(fab.wafer(0).tile(5).mzi(Direction::kEast).params().tau, tau);
  EXPECT_EQ(fab.wafer(0).tile(5).mzi(Direction::kEast).target_port(), target);
}

TEST(FaultSet, CutFiberRefusesNewCircuitsUntilReverted) {
  Fabric fab = two_wafer_fabric();
  FaultSet fs;
  // Cut every bundle: no cross-wafer circuit can be placed.
  for (std::size_t i = 0; i < fab.fiber_links().size(); ++i) {
    fs.add({.kind = FaultKind::kFiberCut, .fiber_link = i});
  }
  fs.apply_to(fab);
  EXPECT_FALSE(fab.connect({0, 7}, {1, 4}, 1).ok());
  fs.revert(fab);
  EXPECT_TRUE(fab.connect({0, 7}, {1, 4}, 1).ok());
}

TEST(Health, NoFaultsMeansCleanScan) {
  Fabric fab = two_wafer_fabric();
  (void)fab.connect({0, 0}, {0, 3}, 2);
  (void)fab.connect({0, 7}, {1, 4}, 2);
  const HealthMonitor monitor;
  EXPECT_TRUE(monitor.scan(fab, FaultSet{}).empty());
}

// A stale or never-placed circuit id (a ring edge whose connect failed is
// stored as id 0) must diagnose as down, not dereference a missing circuit.
TEST(Health, UnknownCircuitIsHardDown) {
  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);
  ASSERT_TRUE(id.ok());
  fab.disconnect(id.value());
  const HealthMonitor monitor;
  for (const fabric::CircuitId gone : {id.value(), fabric::CircuitId{9999}}) {
    const CircuitDiagnosis diag = monitor.diagnose(fab, FaultSet{}, gone);
    EXPECT_EQ(diag.id, gone);
    EXPECT_EQ(diag.health, CircuitHealth::kDown) << gone;
    EXPECT_TRUE(diag.hard_down) << gone;
    EXPECT_FALSE(diag.budget.closes) << gone;
    EXPECT_EQ(to_degraded(diag).id, gone);
  }
}

TEST(Health, StuckMziOnThePathIsHardDown) {
  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);  // XY: east, east, east
  ASSERT_TRUE(id.ok());
  FaultSet fs;
  fs.add({.kind = FaultKind::kMziStuck, .tile = {0, 1}, .direction = Direction::kEast});
  const HealthMonitor monitor;
  const auto d = monitor.diagnose(fab, fs, id.value());
  EXPECT_EQ(d.health, CircuitHealth::kDown);
  EXPECT_TRUE(d.hard_down);

  // The same fault seen from the receiving side of the hop also matches.
  FaultSet entry_side;
  entry_side.add(
      {.kind = FaultKind::kMziStuck, .tile = {0, 2}, .direction = Direction::kWest});
  EXPECT_TRUE(monitor.diagnose(fab, entry_side, id.value()).hard_down);

  // A stuck switch elsewhere does not affect this circuit.
  FaultSet unrelated;
  unrelated.add(
      {.kind = FaultKind::kMziStuck, .tile = {0, 20}, .direction = Direction::kEast});
  EXPECT_EQ(monitor.diagnose(fab, unrelated, id.value()).health,
            CircuitHealth::kHealthy);
}

TEST(Health, LossDriftDegradesWhenTheBudgetStopsClosing) {
  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);
  ASSERT_TRUE(id.ok());
  const HealthMonitor monitor;

  FaultSet mild;
  mild.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 0},
            .direction = Direction::kEast, .excess_loss = Decibel::db(0.2)});
  const auto d_mild = monitor.diagnose(fab, mild, id.value());
  EXPECT_EQ(d_mild.health, CircuitHealth::kHealthy)
      << "0.2 dB of drift sits inside the margin";
  EXPECT_DOUBLE_EQ(d_mild.fault_excess.value(), 0.2);

  FaultSet severe;
  severe.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 0},
              .direction = Direction::kEast, .excess_loss = Decibel::db(40.0)});
  const auto d = monitor.diagnose(fab, severe, id.value());
  EXPECT_EQ(d.health, CircuitHealth::kDegraded);
  EXPECT_TRUE(d.budget_failed);
  EXPECT_FALSE(d.budget.closes);
  EXPECT_FALSE(d.hard_down) << "light still arrives, just too faint";
}

// A drifted switch adds its excess once per traversal: as the exit switch
// of the tile a hop leaves, and as the entry switch of the tile it reaches.
TEST(Health, MziDriftAddsItsExcessPerTraversal) {
  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);  // XY: east, east, east
  ASSERT_TRUE(id.ok());
  const HealthMonitor monitor;

  FaultSet exit_side;
  exit_side.add({.kind = FaultKind::kMziDrift, .tile = {0, 1},
                 .direction = Direction::kEast, .excess_loss = Decibel::db(0.25)});
  const auto d = monitor.diagnose(fab, exit_side, id.value());
  EXPECT_DOUBLE_EQ(d.fault_excess.value(), 0.25);
  EXPECT_EQ(d.health, CircuitHealth::kHealthy) << "0.25 dB sits inside the margin";

  FaultSet both_sides = exit_side;
  both_sides.add({.kind = FaultKind::kMziDrift, .tile = {0, 2},
                  .direction = Direction::kWest, .excess_loss = Decibel::db(0.25)});
  EXPECT_DOUBLE_EQ(monitor.diagnose(fab, both_sides, id.value()).fault_excess.value(), 0.5);

  FaultSet off_path;
  off_path.add({.kind = FaultKind::kMziDrift, .tile = {0, 20},
                .direction = Direction::kEast, .excess_loss = Decibel::db(0.25)});
  EXPECT_EQ(monitor.diagnose(fab, off_path, id.value()).fault_excess, Decibel::zero());
}

TEST(Health, LaserLossAndEndpointDeathDiagnoses) {
  Fabric fab = two_wafer_fabric();
  const auto on_wafer = fab.connect({0, 0}, {0, 3}, 2);
  const auto cross = fab.connect({0, 7}, {1, 4}, 2);
  ASSERT_TRUE(on_wafer.ok());
  ASSERT_TRUE(cross.ok());
  const HealthMonitor monitor;

  FaultSet lasers;
  lasers.add({.kind = FaultKind::kLaserLoss, .tile = {0, 0}, .dead_lasers = 2});
  const auto d1 = monitor.diagnose(fab, lasers, on_wafer.value());
  EXPECT_EQ(d1.health, CircuitHealth::kDegraded);
  EXPECT_EQ(d1.dead_lasers, 2u);

  FaultSet cut;
  const auto link = fab.fiber_link_of(cross.value());
  ASSERT_TRUE(link.has_value());
  cut.add({.kind = FaultKind::kFiberCut, .fiber_link = *link});
  const auto d2 = monitor.diagnose(fab, cut, cross.value());
  EXPECT_EQ(d2.health, CircuitHealth::kDown);
  EXPECT_TRUE(d2.hard_down);

  FaultSet death;
  death.add({.kind = FaultKind::kChipDeath, .tile = {1, 4}});
  const auto d3 = monitor.diagnose(fab, death, cross.value());
  EXPECT_EQ(d3.health, CircuitHealth::kDown);
  EXPECT_TRUE(d3.dst_dead);
  EXPECT_FALSE(d3.src_dead);
}

// The 0.5 dB (min_margin) threshold is closed on the healthy side: margin ==
// min_margin is acceptable, only strictly below degrades.  Pin that at both
// the helper and the diagnosis level, bit-exactly, by re-using the monitor's
// own computed margin as the threshold.
TEST(Health, MarginExactlyAtThresholdIsHealthy) {
  constexpr HealthMonitorParams params;
  static_assert(params.margin_acceptable(Decibel::db(0.5)),
                "the boundary itself is acceptable");
  static_assert(params.margin_acceptable(Decibel::db(0.6)));
  static_assert(!params.margin_acceptable(Decibel::db(0.4999999)));

  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);
  ASSERT_TRUE(id.ok());
  FaultSet fs;
  fs.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 0},
          .direction = Direction::kEast, .excess_loss = Decibel::db(0.2)});
  const auto baseline = HealthMonitor{}.diagnose(fab, fs, id.value());
  ASSERT_TRUE(baseline.budget.closes);
  const Decibel faulted_margin = baseline.budget.margin;

  // Threshold exactly equal to the observed margin: still healthy.
  const HealthMonitor at{HealthMonitorParams{.min_margin = faulted_margin}};
  const auto d_at = at.diagnose(fab, fs, id.value());
  EXPECT_EQ(d_at.health, CircuitHealth::kHealthy)
      << "margin == min_margin must classify healthy on every platform";
  EXPECT_FALSE(d_at.budget_failed);

  // The next representable dB above the margin: degraded.
  const HealthMonitor above{HealthMonitorParams{
      .min_margin = Decibel::db(std::nextafter(
          faulted_margin.value(), std::numeric_limits<double>::infinity()))}};
  const auto d_above = above.diagnose(fab, fs, id.value());
  EXPECT_EQ(d_above.health, CircuitHealth::kDegraded);
  EXPECT_TRUE(d_above.budget_failed);
}

// Property: for any sampled fault set, apply_to() followed by revert() is an
// exact no-op on the fabric's resource ledger — even while a multi-hop ring
// schedule is in flight (established circuits pin lanes, wavelengths, and
// fibers that the overlay must not disturb).
TEST(FaultSet, ApplyRevertRoundTripsDuringInFlightSchedule) {
  Fabric fab = two_wafer_fabric();
  // An in-flight ring phase: a closed loop of circuits across both wafers,
  // like the runtime layer's collective mid-iteration.
  const std::vector<GlobalTile> ring = {{0, 0}, {0, 3}, {0, 11}, {0, 7},
                                        {1, 0}, {1, 9},  {1, 2}};
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ASSERT_TRUE(fab.connect(ring[i], ring[(i + 1) % ring.size()], 2).ok())
        << "ring edge " << i;
  }

  struct Snapshot {
    std::vector<std::uint32_t> lanes;  // per (wafer, tile, direction) free lanes
    std::vector<std::uint32_t> endpoints;  // per tile tx_used / rx_used
    std::vector<std::uint32_t> fiber_used;
    std::vector<bool> fiber_down;
    std::vector<fabric::CircuitId> circuits;
  };
  const auto snapshot = [](const Fabric& f) {
    Snapshot s;
    for (fabric::WaferId wid = 0; wid < f.wafer_count(); ++wid) {
      const auto& w = f.wafer(wid);
      for (fabric::TileId t = 0; t < w.tile_count(); ++t) {
        for (const Direction d : {Direction::kNorth, Direction::kEast,
                                  Direction::kSouth, Direction::kWest}) {
          if (w.neighbor(t, d)) s.lanes.push_back(w.lanes_free(t, d));
        }
        s.endpoints.push_back(w.tile(t).tx_used());
        s.endpoints.push_back(w.tile(t).rx_used());
      }
    }
    for (const auto& link : f.fiber_links()) {
      s.fiber_used.push_back(link.used);
      s.fiber_down.push_back(link.down);
    }
    s.circuits = f.circuit_ids();
    return s;
  };

  const Snapshot before = snapshot(fab);
  const FaultInjector injector{fab, {}, 0xab5e};
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    FaultSet fs;
    fs.add_all(injector.sample_trial(trial));
    fs.apply_to(fab);
    fs.revert(fab);
    const Snapshot after = snapshot(fab);
    ASSERT_EQ(after.lanes, before.lanes) << "trial " << trial;
    ASSERT_EQ(after.endpoints, before.endpoints) << "trial " << trial;
    ASSERT_EQ(after.fiber_used, before.fiber_used) << "trial " << trial;
    ASSERT_EQ(after.fiber_down, before.fiber_down) << "trial " << trial;
    ASSERT_EQ(after.circuits, before.circuits) << "trial " << trial;
  }
}

TEST(Health, ScanReportsAscendingIds) {
  Fabric fab = two_wafer_fabric();
  std::vector<fabric::CircuitId> ids;
  for (TileId t = 0; t < 4; ++t) {
    const auto id = fab.connect({0, t}, {0, t + 8}, 1);  // straight south
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  FaultSet fs;
  for (TileId t = 0; t < 4; ++t) {
    fs.add({.kind = FaultKind::kMziStuck, .tile = {0, t}, .direction = Direction::kSouth});
  }
  const auto diagnoses = HealthMonitor{}.scan(fab, fs);
  ASSERT_EQ(diagnoses.size(), ids.size());
  EXPECT_TRUE(std::is_sorted(diagnoses.begin(), diagnoses.end(),
                             [](const auto& a, const auto& b) { return a.id < b.id; }));
}

// End-to-end: fault -> diagnosis -> ladder with a fault-aware validator.
// The quarantined edge forces the reroute onto healthy hardware, and the
// validator confirms the replacement diagnoses clean.
TEST(Ladder, FaultAwareRerouteProducesAHealthyReplacement) {
  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);
  ASSERT_TRUE(id.ok());
  FaultSet fs;
  fs.add({.kind = FaultKind::kMziStuck, .tile = {0, 1}, .direction = Direction::kEast,
          .stuck_port = phys::MziPort::kBar});
  fs.apply_to(fab);

  const HealthMonitor monitor;
  const auto diagnoses = monitor.scan(fab, fs);
  ASSERT_EQ(diagnoses.size(), 1u);

  routing::EscalationOptions opts;
  opts.validate = [&](const Fabric& f, fabric::CircuitId cid) {
    return monitor.diagnose(f, fs, cid).health == CircuitHealth::kHealthy;
  };
  const auto out = routing::escalate_repair(fab, to_degraded(diagnoses.front()), opts);
  EXPECT_TRUE(out.recovered);
  EXPECT_EQ(out.rung, routing::RepairRung::kReroute);
  ASSERT_EQ(out.circuits.size(), 1u);
  EXPECT_EQ(monitor.diagnose(fab, fs, out.circuits.front()).health,
            CircuitHealth::kHealthy);
  fs.revert(fab);
}

core::ComponentStudyParams quick_component_params() {
  core::ComponentStudyParams p;
  p.component_mtbf_hours = 2000.0;  // high fault rate for test speed
  p.horizon_hours = 24.0 * 7.0;
  p.fleet_chips = 1024;
  return p;
}

TEST(ComponentStudy, DeterministicUnderSeed) {
  const auto a = core::run_component_fault_study(quick_component_params());
  const auto b = core::run_component_fault_study(quick_component_params());
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.recovered_by, b.recovered_by);
  EXPECT_EQ(a.chip_hours_lost, b.chip_hours_lost);
}

// The acceptance criterion: the fault Monte-Carlo is bit-identical at any
// thread count.
TEST(ComponentStudy, ReportIdenticalAtAnyThreadCount) {
  auto serial = quick_component_params();
  serial.threads = 1;
  auto wide = quick_component_params();
  wide.threads = std::max(4u, std::thread::hardware_concurrency());
  const auto a = core::run_component_fault_study(serial);
  const auto b = core::run_component_fault_study(wide);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.degraded_circuits, b.degraded_circuits);
  EXPECT_EQ(a.hard_down_circuits, b.hard_down_circuits);
  EXPECT_EQ(a.recovered_by, b.recovered_by);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.unrecovered, b.unrecovered);
  EXPECT_EQ(a.chip_hours_lost, b.chip_hours_lost) << "must be bit-identical";
  EXPECT_EQ(a.recovery_seconds_total, b.recovery_seconds_total);
  EXPECT_EQ(a.availability, b.availability);
}

// Settle failures draw from a per-victim oracle stream, so the oracle's key
// must not depend on which worker's template ran the trial.
TEST(ComponentStudy, SettleFailuresIdenticalAtAnyThreadCount) {
  auto params = quick_component_params();
  params.settle_failure_probability = 0.3;
  params.threads = 1;
  const auto serial = core::run_component_fault_study(params);
  ASSERT_GT(serial.transient_repair_failures, 0u) << "the settle path must run";
  for (const unsigned threads : {2u, 8u}) {
    params.threads = threads;
    const auto wide = core::run_component_fault_study(params);
    EXPECT_EQ(wide.transient_repair_failures, serial.transient_repair_failures) << threads;
    EXPECT_EQ(wide.unrecovered, serial.unrecovered) << threads;
    EXPECT_EQ(wide.unrecovered_transient, serial.unrecovered_transient) << threads;
    EXPECT_EQ(wide.recovered_by, serial.recovered_by) << threads;
    EXPECT_EQ(wide.attempts, serial.attempts) << threads;
    EXPECT_EQ(wide.chip_hours_lost, serial.chip_hours_lost) << threads;
    EXPECT_EQ(wide.recovery_seconds_total, serial.recovery_seconds_total) << threads;
    EXPECT_EQ(wide.availability, serial.availability) << threads;
  }
}

TEST(ComponentStudy, LadderAccountingIsConsistent) {
  const auto report = core::run_component_fault_study(quick_component_params());
  EXPECT_GT(report.fault_events, 0u);
  EXPECT_GE(report.faults_injected, report.fault_events);
  EXPECT_GT(report.degraded_circuits, 0u);

  std::uint64_t recovered = 0;
  for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
    recovered += report.recovered_by[k];
    EXPECT_GE(report.attempts[k], report.recovered_by[k]) << "rung " << k;
  }
  EXPECT_EQ(recovered + report.unrecovered, report.degraded_circuits);
  EXPECT_GE(report.availability, 0.0);
  EXPECT_LE(report.availability, 1.0);

  // With hundreds of trials every optical rung sees recoveries.
  EXPECT_GT(report.recovered_by[routing::rung_index(routing::RepairRung::kRetune)], 0u);
  EXPECT_GT(report.recovered_by[routing::rung_index(routing::RepairRung::kReroute)], 0u);
  EXPECT_GT(report.recovered_by[routing::rung_index(routing::RepairRung::kRespare)], 0u);
}

TEST(ComponentStudy, BurstsRaiseTheDegradedCount) {
  auto calm = quick_component_params();
  calm.model.burst_probability = 0.0;
  auto bursty = quick_component_params();
  bursty.model.burst_probability = 1.0;
  const auto a = core::run_component_fault_study(calm);
  const auto b = core::run_component_fault_study(bursty);
  EXPECT_EQ(a.bursts, 0u);
  EXPECT_EQ(b.bursts, b.fault_events);
  EXPECT_GT(b.faults_injected, a.faults_injected);
}

// --- Gray failures: flap traces, the settle oracle, and the damper --------

TEST(Gray, FlapTraceIsAPureFunctionOfItsStreamAndWellFormed) {
  const Fabric fab = two_wafer_fabric();
  const FaultInjector injector{fab, {}, 42};
  const GrayModelParams params;
  for (std::uint64_t episode = 0; episode < 32; ++episode) {
    Rng a{util::task_seed(0xf1a9, episode)};
    Rng b{util::task_seed(0xf1a9, episode)};
    const GrayEpisode e1 = injector.sample_gray_at(a, params, {0, 1}, Direction::kEast);
    const GrayEpisode e2 = injector.sample_gray_at(b, params, {0, 1}, Direction::kEast);
    EXPECT_EQ(e1.trace.toggles(), e2.trace.toggles())
        << "episode " << episode << ": a trace must be a pure function of its stream";
    EXPECT_EQ(e1.ber_burst, e2.ber_burst);
    EXPECT_EQ(e1.ber_seconds, e2.ber_seconds);

    const auto& tg = e1.trace.toggles();
    ASSERT_FALSE(tg.empty());
    ASSERT_EQ(tg.size() % 2, 0u) << "every episode ends re-locked";
    EXPECT_EQ(tg.front(), 0.0) << "an episode begins with the link dropping";
    for (std::size_t i = 0; i + 1 < tg.size(); ++i) {
      EXPECT_LT(tg[i], tg[i + 1]) << "toggle times strictly increase";
    }
    EXPECT_GE(e1.trace.dips(), 1u);
    EXPECT_LE(e1.trace.dips(), params.max_dips);
    double down_total = 0.0;
    for (std::size_t k = 0; k < e1.trace.dips(); ++k) {
      EXPECT_TRUE(e1.trace.down_at(e1.trace.dip_start(k)));
      EXPECT_FALSE(e1.trace.down_at(tg[2 * k + 1]))
          << "down intervals are half-open: up exactly at the re-lock";
      down_total += e1.trace.dip_seconds(k);
    }
    EXPECT_DOUBLE_EQ(e1.trace.down_seconds(), down_total);
    EXPECT_FALSE(e1.trace.down_at(e1.trace.duration_seconds()));
  }
}

TEST(Gray, SampleGrayTrialIsSeededRegression) {
  const Fabric fab = two_wafer_fabric();
  const FaultInjector injector{fab, {}, 42};
  const GrayModelParams params;
  const GrayEpisode a = injector.sample_gray_trial(5, params);
  const GrayEpisode b = injector.sample_gray_trial(5, params);
  EXPECT_EQ(a.trace.toggles(), b.trace.toggles());
  EXPECT_TRUE(a.tile == b.tile);
  EXPECT_EQ(a.direction, b.direction);
  const GrayEpisode c = injector.sample_gray_trial(6, params);
  EXPECT_NE(a.trace.toggles(), c.trace.toggles())
      << "distinct trials must draw distinct traces";
  // Same component on both draws implies the damper key agrees too.
  EXPECT_EQ(gray_component_key(a.tile, a.direction),
            gray_component_key(b.tile, b.direction));
}

TEST(Gray, SettleTransientOracleIsDeterministic) {
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    EXPECT_FALSE(settle_transient_failure(9, attempt, 0.0));
    EXPECT_TRUE(settle_transient_failure(9, attempt, 1.0));
    EXPECT_EQ(settle_transient_failure(9, attempt, 0.5),
              settle_transient_failure(9, attempt, 0.5))
        << "the oracle is a pure function of (seed, attempt)";
  }
  int hits = 0;
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    hits += settle_transient_failure(1234, attempt, 0.5) ? 1 : 0;
  }
  EXPECT_GT(hits, 64);
  EXPECT_LT(hits, 192);
}

TEST(Gray, BerBurstExcessStaysUnderTheHealthMargin) {
  Fabric fab = two_wafer_fabric();
  const auto id = fab.connect({0, 0}, {0, 3}, 2);
  ASSERT_TRUE(id.ok());
  const HealthMonitor monitor;
  const GrayModelParams params;
  ASSERT_LT(params.ber_excess.value(), monitor.params().min_margin.value())
      << "the model keeps BER-burst excess under the degradation threshold";
  FaultSet fs;
  fs.add({.kind = FaultKind::kWaveguideLoss, .tile = {0, 0},
          .direction = Direction::kEast, .excess_loss = params.ber_excess});
  const auto d = monitor.diagnose(fab, fs, id.value());
  EXPECT_EQ(d.health, CircuitHealth::kHealthy)
      << "the fabric lies: a BER burst passes the health check";
  EXPECT_DOUBLE_EQ(d.fault_excess.value(), params.ber_excess.value());
}

TEST(Damper, ThresholdAndHoldBoundariesArePinned) {
  FlapDamper d;  // penalty 1.0, suspect 1.5, quarantine 3.0, holds 30 s / 15 s
  const std::uint64_t k = 7;
  EXPECT_EQ(d.state(k, Duration::zero()), LinkState::kHealthy);
  EXPECT_EQ(d.record_flap(k, Duration::zero()), LinkState::kHealthy);  // score 1.0
  EXPECT_EQ(d.record_flap(k, Duration::zero()), LinkState::kSuspect);  // 2.0 >= 1.5
  EXPECT_TRUE(d.ride_out(k, Duration::zero()))
      << "score == quarantine_threshold escalates (closed boundary), and the "
         "tripping flap itself is ridden out";
  EXPECT_EQ(d.state(k, Duration::zero()), LinkState::kQuarantined);
  EXPECT_EQ(d.stats().quarantines, 1u);
  EXPECT_EQ(d.stats().suppressed_repairs, 0u)
      << "the tripping flap counts as a quarantine, not a suppressed repair";

  // Hold expiries are closed on the exit side: at exactly quarantine_hold
  // the link has advanced to probation, at exactly +probation_hold it is
  // healthy again, and the clean probation wiped the flap history.
  EXPECT_EQ(d.state(k, Duration::seconds(29.999)), LinkState::kQuarantined);
  EXPECT_EQ(d.state(k, Duration::seconds(30.0)), LinkState::kProbation);
  EXPECT_EQ(d.state(k, Duration::seconds(44.999)), LinkState::kProbation);
  EXPECT_EQ(d.state(k, Duration::seconds(45.0)), LinkState::kHealthy);
  EXPECT_EQ(d.stats().probations, 1u);
  EXPECT_EQ(d.score(k, Duration::seconds(45.0)), 0.0);
  EXPECT_FALSE(d.ride_out(k, Duration::seconds(45.0)))
      << "one fresh flap after the holds expire scores from zero and climbs";
  EXPECT_EQ(d.state(k, Duration::seconds(45.0)), LinkState::kHealthy);

  // A flap at exactly quarantine_hold lands in probation: the relapse is
  // ridden out too.
  const std::uint64_t k3 = 9;
  for (int i = 0; i < 3; ++i) d.record_flap(k3, Duration::zero());
  EXPECT_TRUE(d.ride_out(k3, Duration::seconds(30.0)));
  EXPECT_EQ(d.stats().relapses, 1u);
  EXPECT_EQ(d.stats().suppressed_repairs, 0u);

  // A suspect link whose score decays back under the threshold is demoted
  // without any hold: three half-lives take 2.0 down to 0.25.
  const std::uint64_t k2 = 8;
  d.record_flap(k2, Duration::zero());
  EXPECT_EQ(d.record_flap(k2, Duration::zero()), LinkState::kSuspect);
  EXPECT_EQ(d.state(k2, Duration::seconds(90.0)), LinkState::kHealthy);
}

TEST(Damper, FlapDuringProbationRelapsesToQuarantine) {
  FlapDamper d;
  const std::uint64_t k = 1;
  d.record_flap(k, Duration::zero());
  d.record_flap(k, Duration::zero());
  ASSERT_EQ(d.record_flap(k, Duration::zero()), LinkState::kQuarantined);
  ASSERT_EQ(d.state(k, Duration::seconds(35.0)), LinkState::kProbation);
  EXPECT_EQ(d.record_flap(k, Duration::seconds(35.0)), LinkState::kQuarantined)
      << "probation forgives nothing";
  EXPECT_EQ(d.stats().relapses, 1u);
  EXPECT_EQ(d.stats().quarantines, 2u);
  // The relapse restarted the full hold from the relapse instant.
  EXPECT_EQ(d.state(k, Duration::seconds(64.999)), LinkState::kQuarantined);
  EXPECT_EQ(d.state(k, Duration::seconds(65.0)), LinkState::kProbation);
}

// Property: across a whole storm, a consumer applying the ride-out rule
// never climbs the ladder for a flap on a quarantined link, the damper's
// suppressed count matches the consumer's observation, and every flap is
// exactly one of: a climb, a suppressed repair, a quarantine entry.
TEST(Damper, StormNeverInvokesTheLadderWhileQuarantined) {
  FlapDamper d;
  const std::uint64_t key = gray_component_key({0, 3}, Direction::kEast);
  Rng rng{0x57a6};
  double t = 0.0;
  std::uint64_t climbs = 0;
  std::uint64_t suppressed = 0;
  for (int i = 0; i < 300; ++i) {
    t += rng.uniform(0.0, 4.0);
    const Duration now = Duration::seconds(t);
    const bool quarantined = d.state(key, now) == LinkState::kQuarantined;
    if (quarantined) ++suppressed;
    if (!d.ride_out(key, now)) {
      EXPECT_FALSE(quarantined) << "flap " << i;
      ++climbs;  // the consumer climbs the repair ladder here
    }
  }
  EXPECT_GT(climbs, 0u);
  EXPECT_GT(suppressed, 0u) << "a 300-flap storm must hit quarantine";
  EXPECT_EQ(d.stats().flaps, 300u);
  EXPECT_EQ(d.stats().suppressed_repairs, suppressed)
      << "the damper's own count must match the consumer's observation";
  EXPECT_EQ(climbs + d.stats().suppressed_repairs + d.stats().quarantines, 300u);
}

}  // namespace
}  // namespace lp::fault
