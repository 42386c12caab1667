// Tests of the runtime layer: the bounded-timeout recovery driver and the
// event-driven training-run simulator (fault timeline -> detection ->
// recovery -> rollback -> goodput accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "collective/schedule.hpp"
#include "core/training_sim.hpp"
#include "fault/fault.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/repair.hpp"
#include "runtime/fault_plane.hpp"
#include "runtime/recovery.hpp"
#include "runtime/training_run.hpp"
#include "util/parallel.hpp"

namespace lp::runtime {
namespace {

using fabric::Fabric;
using fabric::GlobalTile;

// --- drive_recovery --------------------------------------------------------

TEST(DriveRecovery, RetuneRecoversOnTheFirstClimb) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{});
  EXPECT_TRUE(res.recovered);
  EXPECT_FALSE(res.fell_through);
  EXPECT_FALSE(res.plan_failure);
  EXPECT_EQ(res.rung, routing::RepairRung::kRetune);
  EXPECT_EQ(res.climbs, 1u);
  EXPECT_EQ(res.backoff_latency, Duration::zero());
  ASSERT_EQ(res.circuits.size(), 1u);
  EXPECT_EQ(res.circuits.front(), id.value());
}

TEST(DriveRecovery, UnknownVictimIsAPlanFailure) {
  Fabric fab;
  routing::DegradedCircuit victim;
  victim.id = 9999;
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{});
  EXPECT_TRUE(res.plan_failure);
  EXPECT_FALSE(res.recovered);
  EXPECT_FALSE(res.fell_through);
  EXPECT_EQ(res.climbs, 1u) << "a plan failure is diagnosed on the first climb";
}

// drive_recovery is strictly optical: when every optical rung is out of
// ideas the ladder lands on rung 5, which is reported as fell_through (the
// caller degrades elastically) and charged nothing for migration.
TEST(DriveRecovery, OpticalExhaustionFallsThroughWithoutMigrationCharge) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dst_dead = true;  // retune/reroute cannot help, no spares offered
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{});
  EXPECT_FALSE(res.recovered);
  EXPECT_TRUE(res.fell_through);
  EXPECT_EQ(res.rung, routing::RepairRung::kRackMigration);
  EXPECT_EQ(fab.circuit(id.value()), nullptr) << "the dead edge is torn down";
  EXPECT_LT(res.total(), Duration::seconds(1.0))
      << "rung 5 is a free sentinel here, not a 600 s migration";
}

TEST(DriveRecovery, BudgetExhaustionBacksOffExponentially) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  routing::EscalationOptions base;
  base.validate = [](const Fabric&, fabric::CircuitId) { return false; };
  RecoveryPolicy policy;
  policy.initial_budget = Duration::micros(0.001);  // below one probe's cost
  policy.backoff_base = Duration::micros(10.0);
  policy.backoff_factor = 2.0;
  policy.max_attempts = 2;
  const RecoveryResult res = drive_recovery(fab, victim, policy, base);
  EXPECT_EQ(res.climbs, 3u) << "two bounded climbs, then the unbounded one";
  EXPECT_TRUE(res.fell_through) << "validator rejects everything";
  EXPECT_DOUBLE_EQ(res.backoff_latency.to_seconds(), 30e-6)
      << "10 us + 20 us of exponential backoff";
  EXPECT_GT(res.repair_latency, Duration::zero());
}

// --- RecoveryPolicy::detected_at: the shared heartbeat model ---------------

TEST(DetectedAt, StrikeOnATickIsNoticedAtThatTick) {
  const RecoveryPolicy policy;
  const Duration hb = policy.heartbeat_interval;
  EXPECT_EQ(policy.detected_at(hb * 2.0), hb * 2.0 + policy.detection_latency);
}

TEST(DetectedAt, StrikeJustAfterATickWaitsForTheNext) {
  const RecoveryPolicy policy;
  const Duration hb = policy.heartbeat_interval;
  EXPECT_EQ(policy.detected_at(hb * 2.0 + Duration::nanos(1.0)),
            Duration::seconds(3.0 * hb.to_seconds()) + policy.detection_latency);
}

TEST(DetectedAt, StrikeAtZeroIsNoticedAtZero) {
  RecoveryPolicy policy;
  policy.detection_latency = Duration::micros(250.0);
  EXPECT_EQ(policy.detected_at(Duration::zero()), Duration::micros(250.0));
}

// --- FaultPlane: the fault-facing state training and serving share ---------

TEST(FaultPlane, StrikeThenRevertAllRestoresTheLedger) {
  Fabric fab;
  ASSERT_TRUE(fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2).ok());
  FaultPlane plane{fab, {}, {}, /*hysteresis=*/true};
  const std::uint64_t digest = fab.ledger_digest();
  plane.strike({{.kind = fault::FaultKind::kWaveguideLoss, .tile = {0, 9},
                 .direction = fabric::Direction::kSouth, .excess_loss = Decibel::db(5.0)}},
               Decibel::db(3.0));
  plane.strike({{.kind = fault::FaultKind::kChipDeath, .tile = {0, 20}}}, Decibel::db(3.0));
  EXPECT_NE(fab.ledger_digest(), digest) << "quarantined lanes and parked endpoints";
  EXPECT_EQ(plane.active().faults().size(), 2u);
  EXPECT_TRUE(plane.active().chip_dead({0, 20}));

  plane.revert_all();
  EXPECT_EQ(fab.ledger_digest(), digest);
  EXPECT_TRUE(plane.active().empty());
}

TEST(FaultPlane, RepairOptionsValidateRejectsAnUnhealthyReplacement) {
  Fabric fab;
  const auto hurt = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);  // east along row 0
  const auto fine = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);  // row 1
  ASSERT_TRUE(hurt.ok());
  ASSERT_TRUE(fine.ok());
  FaultPlane plane{fab, {}, {}, /*hysteresis=*/false};
  plane.strike({{.kind = fault::FaultKind::kMziStuck, .tile = {0, 1},
                 .direction = fabric::Direction::kEast, .stuck_port = phys::MziPort::kCross}},
               Decibel::db(3.0));
  ASSERT_EQ(plane.diagnose(hurt.value()).health, fault::CircuitHealth::kDown);

  const routing::EscalationOptions opts = plane.repair_options(2);
  EXPECT_EQ(opts.wavelengths, 2u);
  EXPECT_NE(opts.cache, nullptr);
  ASSERT_TRUE(opts.validate);
  EXPECT_FALSE(opts.validate(fab, hurt.value())) << "a replacement through the stuck switch";
  EXPECT_TRUE(opts.validate(fab, fine.value()));
}

TEST(FaultPlane, NaiveFlapClimbsEveryFlap) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  FaultPlane plane{fab, {}, {}, /*hysteresis=*/false};
  const std::uint64_t key = fault::gray_component_key({0, 0}, fabric::Direction::kEast);
  for (int i = 0; i < 5; ++i) {
    const Duration t = Duration::millis(static_cast<double>(i));
    const std::optional<RecoveryResult> res = plane.flap(key, t, id.value(), {}, 2);
    ASSERT_TRUE(res.has_value()) << "flap " << i;
    EXPECT_FALSE(res->recovered);
    EXPECT_GT(res->transient_failures, 0u) << "every attempt inside the dip settles out";
    EXPECT_EQ(plane.now(), t);
  }
  EXPECT_EQ(plane.damper_stats().flaps, 0u) << "the naive controller keeps no score";
  EXPECT_NE(fab.circuit(id.value()), nullptr) << "thrash commits nothing";
}

TEST(FaultPlane, HysteresisRidesOutFromTheTrippingFlapAndQuarantinesCachedRoutes) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);
  ASSERT_TRUE(id.ok());
  FaultPlane plane{fab, {}, {}, /*hysteresis=*/true};
  const std::uint64_t key = fault::gray_component_key({0, 0}, fabric::Direction::kEast);

  // Scores 1.0 and 2.0 stay under the quarantine threshold: both climb.
  EXPECT_TRUE(plane.flap(key, Duration::zero(), id.value(), {}, 2).has_value());
  EXPECT_TRUE(plane.flap(key, Duration::zero(), id.value(), {}, 2).has_value());

  // Warm a route through the flapping port.
  routing::PlanCache& cache = *plane.repair_options(1).cache;
  const routing::Demand d{{0, 0}, {0, 3}, 1};
  const auto hops = cache.route_for(d);
  ASSERT_TRUE(hops.has_value());
  ASSERT_EQ(hops->front(), fabric::Direction::kEast);
  const std::uint64_t epoch = fab.epoch();
  const std::uint64_t rejections = cache.stats().quarantine_rejections;

  // The tripping flap and every later one are ridden out.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(plane.flap(key, Duration::seconds(static_cast<double>(i)), id.value(), {}, 2)
                     .has_value())
        << "flap " << i + 3;
  }
  EXPECT_EQ(plane.damper_stats().quarantines, 1u);
  EXPECT_EQ(plane.damper_stats().suppressed_repairs, 2u);

  EXPECT_FALSE(cache.route_for(d).has_value()) << "the memo crosses a quarantined port";
  EXPECT_GT(cache.stats().quarantine_rejections, rejections);
  EXPECT_EQ(fab.epoch(), epoch) << "quarantine is a view, not an invalidation";
}

void fold_recovery(std::uint64_t& h, const RecoveryResult& r) {
  const auto fold = [&h](std::uint64_t v) { h = fabric::hash_mix(h, v); };
  fold(std::uint64_t{r.recovered} | std::uint64_t{r.fell_through} << 1 |
       std::uint64_t{r.plan_failure} << 2 | std::uint64_t{r.transient_failed} << 3);
  fold(r.transient_failures);
  fold(static_cast<std::uint64_t>(r.rung));
  fold(r.circuits.size());
  for (const fabric::CircuitId id : r.circuits) fold(id);
  fold(r.climbs);
  for (const std::uint32_t n : r.rung_attempts) fold(n);
  fold(std::bit_cast<std::uint64_t>(r.repair_latency.to_seconds()));
  fold(std::bit_cast<std::uint64_t>(r.backoff_latency.to_seconds()));
}

// One scripted flap sequence on a two-wafer fabric whose one fiber bundle
// has four fibers.  Each round flaps a cross-wafer circuit twice, a
// same-wafer one twice and the cross-wafer one twice more, at advancing
// times.  Between rounds one input of a flap moves, and each move changes
// what the cross-wafer climb can do:
//   - a 40 dB loss on its route, struck below the quarantine threshold,
//     moves only the epoch, and the validate hook rejects the replacement;
//   - revert_all moves only the epoch back to a clean overlay;
//   - a second cross-wafer circuit moves only the ledger key and leaves one
//     fiber, too few for a two-lambda replacement;
//   - a terser policy climbs less;
//   - one lambda per circuit fits the last fiber.
// Folds every flap's result and the ledger key after it, then the damper's
// stats.
std::uint64_t flap_sequence_digest(bool hysteresis) {
  fabric::FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  fab.add_fiber_link({0, 7}, {1, 0}, 4);
  const auto same = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);  // east on row 1
  const auto cross = fab.connect(GlobalTile{0, 0}, GlobalTile{1, 3}, 2);  // east on row 0
  EXPECT_TRUE(same.ok() && cross.ok());
  FaultPlane plane{fab, {}, {}, hysteresis};

  RecoveryPolicy gray;  // the gray-failure bench's controller
  gray.rung_backoff.base = Duration::micros(50.0);
  gray.rung_backoff.jitter_fraction = 0.5;
  RecoveryPolicy terse = gray;
  terse.max_attempts = 1;
  terse.retries_per_rung = 1;
  terse.rung_backoff.seed = 7;

  std::uint64_t h = 0;
  double t_s = 0.0;
  const auto flap = [&](fabric::CircuitId id, GlobalTile tile, const RecoveryPolicy& policy,
                        std::uint32_t lambdas) {
    t_s += 7.0;
    const std::uint64_t key = fault::gray_component_key(tile, fabric::Direction::kEast);
    const std::optional<RecoveryResult> res =
        plane.flap(key, Duration::seconds(t_s), id, policy, lambdas);
    h = fabric::hash_mix(h, res.has_value() ? 1u : 0u);
    if (res) fold_recovery(h, *res);
    h = fabric::hash_mix(h, fab.ledger_key());
  };
  const auto round = [&](const RecoveryPolicy& policy, std::uint32_t lambdas) {
    for (int k = 0; k < 2; ++k) flap(cross.value(), {0, 0}, policy, lambdas);
    for (int k = 0; k < 2; ++k) flap(same.value(), {0, 8}, policy, lambdas);
    for (int k = 0; k < 2; ++k) flap(cross.value(), {0, 0}, policy, lambdas);
  };
  round(gray, 2);
  plane.strike({{.kind = fault::FaultKind::kWaveguideLoss, .tile = {0, 2},
                 .direction = fabric::Direction::kEast, .excess_loss = Decibel::db(40.0)}},
               Decibel::db(100.0));
  round(gray, 2);
  plane.revert_all();
  round(gray, 2);
  EXPECT_TRUE(fab.connect(GlobalTile{0, 16}, GlobalTile{1, 9}, 1).ok());
  round(gray, 2);
  t_s += 60.0;  // past a quarantine hold
  round(terse, 2);
  round(terse, 1);
  round(gray, 1);

  const fault::FlapDamperStats& s = plane.damper_stats();
  for (const std::uint64_t v :
       {s.flaps, s.quarantines, s.probations, s.relapses, s.suppressed_repairs}) {
    h = fabric::hash_mix(h, v);
  }
  return h;
}

// Recorded before a naive plane replayed a repeated flap.
TEST(FaultPlane, FlapSequenceMatchesPinnedResults) {
  const std::uint64_t naive = flap_sequence_digest(/*hysteresis=*/false);
  const std::uint64_t damped = flap_sequence_digest(/*hysteresis=*/true);
  EXPECT_EQ(naive, 0xd51a678455f721ceu) << std::hex << "0x" << naive;
  EXPECT_EQ(damped, 0x016e030887b1c25cu) << std::hex << "0x" << damped;
}

void expect_same_recovery(const RecoveryResult& a, const RecoveryResult& b,
                          const char* what) {
  EXPECT_EQ(a.recovered, b.recovered) << what;
  EXPECT_EQ(a.fell_through, b.fell_through) << what;
  EXPECT_EQ(a.plan_failure, b.plan_failure) << what;
  EXPECT_EQ(a.transient_failed, b.transient_failed) << what;
  EXPECT_EQ(a.transient_failures, b.transient_failures) << what;
  EXPECT_EQ(a.rung, b.rung) << what;
  EXPECT_EQ(a.circuits, b.circuits) << what;
  EXPECT_EQ(a.climbs, b.climbs) << what;
  EXPECT_EQ(a.rung_attempts, b.rung_attempts) << what;
  EXPECT_EQ(a.repair_latency, b.repair_latency) << what;
  EXPECT_EQ(a.backoff_latency, b.backoff_latency) << what;
}

// A naive plane replays a repeated flap without climbing, and climbs live
// again as soon as any one of the replay's inputs moves.  A live climb
// here programs ReconfigController batches (each replacement it places is
// connected and rolled back); a replay programs none.
TEST(FaultPlane, FlapReplaysOnlyWhileItsInputsHold) {
  fabric::FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  fab.add_fiber_link({0, 7}, {1, 0}, 4);
  const auto same = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);
  const auto cross = fab.connect(GlobalTile{0, 0}, GlobalTile{1, 3}, 2);
  ASSERT_TRUE(same.ok() && cross.ok());
  FaultPlane plane{fab, {}, {}, /*hysteresis=*/false};
  RecoveryPolicy policy;
  policy.rung_backoff.base = Duration::micros(50.0);
  policy.rung_backoff.jitter_fraction = 0.5;

  double t_s = 0.0;
  const auto flap = [&](FaultPlane& p, fabric::CircuitId id, const RecoveryPolicy& pol,
                        std::uint32_t lambdas, bool& live) {
    const std::uint64_t batches = fab.reconfig().batches();
    t_s += 1.0;
    const std::optional<RecoveryResult> res =
        p.flap(/*key=*/0, Duration::seconds(t_s), id, pol, lambdas);
    EXPECT_TRUE(res.has_value());
    EXPECT_EQ(p.now(), Duration::seconds(t_s)) << "a replay still moves the view clock";
    live = fab.reconfig().batches() != batches;
    return res.value_or(RecoveryResult{});
  };
  // The next flap climbs live and returns what a fresh plane's climb does;
  // the flap after it replays that result.
  const auto expect_live_then_replayed = [&](const char* what, fabric::CircuitId id,
                                             const RecoveryPolicy& pol,
                                             std::uint32_t lambdas) {
    bool live = false;
    const RecoveryResult first = flap(plane, id, pol, lambdas, live);
    EXPECT_TRUE(live) << what << ": the flap after the move climbs";
    FaultPlane fresh{fab, {}, {}, /*hysteresis=*/false};
    bool fresh_live = false;
    expect_same_recovery(first, flap(fresh, id, pol, lambdas, fresh_live), what);
    const std::uint64_t key = fab.ledger_key();
    const RecoveryResult again = flap(plane, id, pol, lambdas, live);
    EXPECT_FALSE(live) << what << ": a repeat replays";
    expect_same_recovery(first, again, what);
    EXPECT_EQ(fab.ledger_key(), key) << what;
  };

  expect_live_then_replayed("first flap", same.value(), policy, 2);
  expect_live_then_replayed("another circuit", cross.value(), policy, 2);
  expect_live_then_replayed("back to the first circuit", same.value(), policy, 2);
  ASSERT_TRUE(fab.connect(GlobalTile{0, 24}, GlobalTile{0, 27}, 2).ok());  // row 3
  expect_live_then_replayed("ledger key moved", same.value(), policy, 2);
  fab.bump_epoch();
  expect_live_then_replayed("epoch moved", same.value(), policy, 2);
  RecoveryPolicy terse = policy;
  terse.max_attempts = 1;
  expect_live_then_replayed("policy changed", same.value(), terse, 2);
  expect_live_then_replayed("wavelengths changed", same.value(), terse, 1);
}

// With hysteresis on, the plane's quarantine view asks the damper at the
// view clock, so no climb is replayed: flaps far enough apart never trip
// the damper, and each one programs batches.
TEST(FaultPlane, HysteresisFlapsAlwaysClimb) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);
  ASSERT_TRUE(id.ok());
  FaultPlane plane{fab, {}, {}, /*hysteresis=*/true};
  const std::uint64_t key = fault::gray_component_key({0, 8}, fabric::Direction::kEast);
  std::optional<RecoveryResult> first;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t batches = fab.reconfig().batches();
    const std::optional<RecoveryResult> res =
        plane.flap(key, Duration::seconds(300.0 * i), id.value(), {}, 2);
    ASSERT_TRUE(res.has_value()) << "flap " << i << " is not ridden out";
    EXPECT_GT(fab.reconfig().batches(), batches) << "flap " << i << " climbs";
    if (!first) first = res;
    expect_same_recovery(*first, *res, "hysteresis flap");
  }
  EXPECT_EQ(plane.damper_stats().flaps, 4u);
  EXPECT_EQ(plane.damper_stats().quarantines, 0u);
}

// --- TrainingRun -----------------------------------------------------------

TEST(TrainingRun, HealthyRunDeliversFullGoodput) {
  RunConfig config;
  config.iterations = 40;
  config.mtbf_hours = 1.0e12;  // effectively no faults
  TrainingRun run{config};
  const RunReport report = run.run();
  EXPECT_EQ(report.iterations_completed, config.iterations);
  EXPECT_EQ(report.fault_events, 0u);
  EXPECT_EQ(report.ring_size_final, report.ring_size_initial);
  EXPECT_NEAR(report.goodput(), 1.0, 1e-12);
  EXPECT_EQ(report.lost.total(), Duration::zero());
}

TEST(TrainingRun, ReportIsAPureFunctionOfTheConfig) {
  RunConfig config;
  config.iterations = 30;
  config.mtbf_hours = 0.02;  // several faults inside the run
  TrainingRun a{config};
  TrainingRun b{config};
  const RunReport ra = a.run();
  const RunReport rb = b.run();
  EXPECT_EQ(ra.iterations_completed, rb.iterations_completed);
  EXPECT_EQ(ra.fault_events, rb.fault_events);
  EXPECT_EQ(ra.faults_injected, rb.faults_injected);
  EXPECT_EQ(ra.detections, rb.detections);
  EXPECT_EQ(ra.rollbacks, rb.rollbacks);
  EXPECT_EQ(ra.elastic_shrinks, rb.elastic_shrinks);
  EXPECT_EQ(ra.recovered_by, rb.recovered_by);
  EXPECT_EQ(ra.ring_size_final, rb.ring_size_final);
  EXPECT_EQ(ra.wall_clock.to_seconds(), rb.wall_clock.to_seconds())
      << "must be bit-identical";
  EXPECT_EQ(ra.recover_seconds, rb.recover_seconds);
}

TEST(TrainingRun, HeartbeatDetectionChargesTickPlusLatency) {
  RunConfig config;
  config.iterations = 5;
  // One scripted chip death at t=10.5 ms, during bucket compute (the first
  // collective starts at 25 ms), with spares available for respare.
  config.script = {{Duration::millis(10.5),
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  TrainingRun run{config};
  const RunReport report = run.run();
  ASSERT_EQ(report.detections, 1u);
  EXPECT_EQ(report.mid_collective_faults, 0u) << "struck during compute";
  // Heartbeats every 5 ms: the 10.5 ms strike is noticed at 15 ms, diagnosed
  // 100 us later -> 4.6 ms of detection lag.
  EXPECT_NEAR(report.lost.detection.to_seconds(), 4.6e-3, 1e-9);
}

TEST(TrainingRun, ChipDeathWithSparesResparesBothRingEdges) {
  RunConfig config;
  config.iterations = 5;
  config.script = {{Duration::millis(10.5),
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  TrainingRun run{config};
  const RunReport report = run.run();
  EXPECT_EQ(report.iterations_completed, config.iterations);
  EXPECT_EQ(report.ring_size_final, report.ring_size_initial)
      << "a spare replaced the dead member";
  EXPECT_EQ(report.recovered_by[routing::rung_index(routing::RepairRung::kRespare)],
            2u)
      << "in-edge and out-edge of the dead member";
  EXPECT_EQ(report.elastic_shrinks, 0u);
  EXPECT_EQ(report.rollbacks, 1u) << "the dead member's state is gone";
  const auto& members = run.ring_members();
  EXPECT_EQ(std::count(members.begin(), members.end(), GlobalTile{0, 5}), 0)
      << "the dead chip left the ring";
}

// The acceptance scenario: a chip dies mid-collective with the spare pool
// exhausted.  The run must take the elastic-shrink path — ring shrinks by
// one, the schedule is rebuilt without the dead chip, and the job completes
// degraded instead of migrating.
TEST(TrainingRun, MidCollectiveDeathWithoutSparesShrinksElastically) {
  RunConfig config;
  config.iterations = 10;
  config.ring_tiles_per_wafer = 32;  // every tile enrolled: no spare pool
  // Bucket 0's collective starts at compute_per_bucket (25 ms); strike
  // exactly then, inside the first comm window.
  config.script = {{config.iteration.compute_per_bucket,
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 0}}}}};
  TrainingRun run{config};
  const RunReport report = run.run();
  EXPECT_EQ(report.mid_collective_faults, 1u);
  EXPECT_GE(report.elastic_shrinks, 1u);
  EXPECT_EQ(report.migrations, 0u) << "photonic policy never migrates";
  EXPECT_EQ(report.ring_size_final, report.ring_size_initial - 1);
  EXPECT_EQ(report.iterations_completed, config.iterations)
      << "the run completes degraded";
  EXPECT_GE(report.rollbacks, 1u);
  EXPECT_LT(report.goodput(), 1.0);

  // Regression: the rebuilt elastic schedule must not reference the dead
  // chip, and no surviving ring circuit may ride quarantined hardware.
  const auto tiles = run.fabric().wafer(0).tile_count();
  const auto dead_id = static_cast<topo::TpuId>(0 * tiles + 0);
  for (const coll::Phase& phase : run.schedule().phases) {
    for (const coll::Transfer& t : phase.transfers) {
      EXPECT_NE(t.src, dead_id);
      EXPECT_NE(t.dst, dead_id);
    }
  }
  const fault::HealthMonitor monitor{config.health};
  for (const fabric::CircuitId id : run.ring_circuits()) {
    EXPECT_EQ(monitor.diagnose(run.fabric(), run.active_faults(), id).health,
              fault::CircuitHealth::kHealthy)
        << "circuit " << id;
  }
  const auto& members = run.ring_members();
  EXPECT_EQ(std::count(members.begin(), members.end(), GlobalTile{0, 0}), 0);
}

// Pinned accounting: small runs whose reports fold every RunReport field.
// The digests were recorded from an implementation that built every bucket
// schedule, so they pin the accounting independently of the phase walk.
// Each run names the path it must take, so a config cannot silently drift
// off the bucket algorithm, shrink or controller it was chosen to pin.
struct PinnedRun {
  const char* name;
  RunConfig config;
  std::uint64_t digest;
  bool (*covers)(const TrainingRun&, const RunReport&);
};

std::uint64_t report_digest(const RunReport& r) {
  std::uint64_t h = 0;
  const auto mix = [&](std::uint64_t v) { h = fabric::hash_mix(h, v); };
  const auto mix_time = [&](Duration d) {
    mix(std::bit_cast<std::uint64_t>(d.to_seconds()));
  };
  mix(static_cast<std::uint64_t>(r.policy));
  for (const std::uint64_t v :
       {std::uint64_t{r.iterations_completed}, std::uint64_t{r.ring_size_initial},
        std::uint64_t{r.ring_size_final}, r.fault_events, r.faults_injected,
        r.mid_collective_faults, r.detections, r.rollbacks, r.elastic_shrinks,
        r.migrations}) {
    mix(v);
  }
  for (const std::uint64_t v : r.recovered_by) mix(v);
  mix_time(r.lost.redo);
  mix_time(r.lost.detection);
  mix_time(r.lost.recovery);
  for (const std::uint64_t v :
       {r.flap_episodes, r.flap_transitions, r.flap_repairs, r.suppressed_repairs,
        r.quarantines, r.probations, r.relapses, r.misclassifications,
        r.transient_repair_failures, r.ber_bursts}) {
    mix(v);
  }
  mix_time(r.flap_stall);
  mix_time(r.ber_slowdown);
  mix_time(r.ideal_time);
  mix_time(r.wall_clock);
  for (const double s : r.recover_seconds) mix(std::bit_cast<std::uint64_t>(s));
  return h;
}

bool odd_non_power_of_two(std::uint32_t m) { return m % 2 == 1 && !std::has_single_bit(m); }

std::vector<PinnedRun> pinned_training_runs() {
  using Run = const TrainingRun&;
  using R = const RunReport&;
  std::vector<PinnedRun> runs;
  const auto add = [&](const char* name, const RunConfig& c, std::uint64_t digest,
                       bool (*covers)(Run, R)) {
    runs.push_back(PinnedRun{name, c, digest, covers});
  };
  RunConfig faults;
  faults.iterations = 40;
  faults.mtbf_hours = 0.02;
  RunConfig small_buckets = faults;
  small_buckets.iteration.bucket_bytes = DataSize::kib(64.0);
  RunConfig no_spares = faults;
  no_spares.ring_tiles_per_wafer = 32;
  // Three scripted chip deaths, the first inside bucket 0's collective.
  // With no spare pool each one shrinks the ring: 64 -> 61 members.
  no_spares.script = {
      {no_spares.iteration.compute_per_bucket,
       {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 0}}}},
      {Duration::seconds(1.0), {{.kind = fault::FaultKind::kChipDeath, .tile = {1, 9}}}},
      {Duration::seconds(2.0), {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 17}}}}};
  RunConfig flaps;  // lpbench's train_gray controller at 400 flaps/chip-hour
  flaps.iterations = 60;
  flaps.mtbf_hours = 1e9;
  flaps.flap_rate_per_hour = 400.0;
  flaps.recovery.rung_backoff.base = Duration::micros(50.0);
  flaps.recovery.rung_backoff.jitter_fraction = 0.5;

  add("ring/faults", faults, 0x8f8bb695280d4a25, [](Run run, R r) {
    return run.bucket_algorithm() == coll::Algorithm::kRing && r.detections > 0;
  });
  add("halving-doubling/faults", small_buckets, 0x5e34bc471755222d, [](Run run, R r) {
    return run.bucket_algorithm() == coll::Algorithm::kHalvingDoubling && r.detections > 0;
  });
  add("ring/elastic-odd", no_spares, 0x136829cb42ae7710, [](Run run, R r) {
    return run.bucket_algorithm() == coll::Algorithm::kRing && r.elastic_shrinks > 0 &&
           odd_non_power_of_two(r.ring_size_final);
  });
  {
    RunConfig c = no_spares;
    c.iteration.bucket_bytes = DataSize::kib(64.0);
    add("halving-doubling/elastic-odd", c, 0x786c334b4a9e9ef2, [](Run run, R r) {
      return run.bucket_algorithm() == coll::Algorithm::kHalvingDoubling &&
             r.elastic_shrinks > 0 && odd_non_power_of_two(r.ring_size_final);
    });
  }
  {
    RunConfig c = faults;
    c.policy = RunPolicy::kElectricalMigration;
    add("electrical/faults", c, 0x8be05fcb040d5df9,
        [](Run, R r) { return r.migrations > 0; });
  }
  add("gray/hysteresis", flaps, 0x21eb0b11f9fde370,
      [](Run, R r) { return r.quarantines > 0 && r.suppressed_repairs > 0; });
  {
    RunConfig c = flaps;
    c.gray_hysteresis = false;
    add("gray/naive", c, 0x404572720b5f7dd0,
        [](Run, R r) { return r.misclassifications > 0; });
  }
  {
    // A live member whose lasers all die: retune finds no free Tx, a
    // laser-only fault is not rerouted, and pass 2 offers no spare, so the
    // edge falls through and the ring sheds its source member, 56 -> 55.
    // Recorded before the run re-derived its costs only when its ring or
    // the epoch moved.
    RunConfig c = faults;
    c.script = {{Duration::seconds(1.0),
                 {{.kind = fault::FaultKind::kLaserLoss, .tile = {0, 5},
                   .dead_lasers = 16}}}};
    add("ring/laser-loss-shrink", c, 0x347bca9dff9a8889, [](Run run, R r) {
      return run.bucket_algorithm() == coll::Algorithm::kRing && r.elastic_shrinks == 1 &&
             r.ring_size_final == 55 && r.detections == 1;
    });
  }
  {
    // The naive controller misclassifying flappers with no spare to take
    // their place: every misclassification shrinks a halving-doubling ring.
    RunConfig c = flaps;
    c.gray_hysteresis = false;
    c.ring_tiles_per_wafer = 32;
    c.iteration.bucket_bytes = DataSize::kib(64.0);
    add("gray/naive-halving-doubling-shrink", c, 0x28f093e04deef220, [](Run run, R r) {
      return run.bucket_algorithm() == coll::Algorithm::kHalvingDoubling &&
             r.misclassifications > 0 && r.elastic_shrinks > 0;
    });
  }
  return runs;
}

TEST(TrainingRunDigests, AccountingMatchesPinnedValues) {
  for (const PinnedRun& pinned : pinned_training_runs()) {
    TrainingRun run{pinned.config};
    const RunReport r = run.run();
    EXPECT_EQ(report_digest(r), pinned.digest)
        << pinned.name << ": digest " << std::hex << report_digest(r) << std::dec;
    EXPECT_EQ(r.iterations_completed, pinned.config.iterations) << pinned.name;
    EXPECT_TRUE(pinned.covers(run, r)) << pinned.name << ": off its cost path";
  }
}

// A misclassification respares the flapper onto a spare at the ring's
// width, so the member count and the slowest circuit hold: the bucket pick
// and costs are derived once, at construction, and every later rebuild
// returns early (one tuner miss, no hit).
TEST(TrainingRunCosts, NaiveResparesDeriveTheCostsOnce) {
  RunConfig c;  // lpbench's train_gray controller at 400 flaps/chip-hour
  c.iterations = 200;
  c.seed = 1;
  c.mtbf_hours = 1e9;
  c.flap_rate_per_hour = 400.0;
  c.recovery.rung_backoff.base = Duration::micros(50.0);
  c.recovery.rung_backoff.jitter_fraction = 0.5;
  c.gray_hysteresis = false;
  TrainingRun run{c};
  const RunReport r = run.run();
  EXPECT_EQ(r.misclassifications, 155u);
  EXPECT_EQ(r.elastic_shrinks, 0u);
  EXPECT_EQ(r.ring_size_final, r.ring_size_initial);
  EXPECT_EQ(run.tuner().misses(), 1u);
  EXPECT_EQ(run.tuner().hits(), 0u);
}

TEST(TrainingRun, PhotonicRecoveryBeatsElectricalMigration) {
  RunConfig config;
  config.iterations = 20;
  config.script = {{Duration::millis(10.5),
                    {{.kind = fault::FaultKind::kChipDeath, .tile = {0, 5}}}}};
  RunConfig electrical = config;
  electrical.policy = RunPolicy::kElectricalMigration;
  const RunReport photonic = TrainingRun{config}.run();
  const RunReport migrated = TrainingRun{electrical}.run();
  EXPECT_EQ(migrated.migrations, 1u);
  EXPECT_GT(photonic.goodput(), migrated.goodput())
      << "us-scale respare vs a 600 s rack migration";
}

// --- run_resilience_sweep --------------------------------------------------

ResilienceSweepConfig quick_sweep() {
  ResilienceSweepConfig config;
  config.base.iterations = 10;
  config.mtbf_points = {0.01, 0.05};
  config.trials = 2;
  return config;
}

void expect_identical(const ResilienceSweepReport& a, const ResilienceSweepReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const MtbfPointReport& pa = a.points[i];
    const MtbfPointReport& pb = b.points[i];
    EXPECT_EQ(pa.mtbf_hours, pb.mtbf_hours) << i;
    EXPECT_EQ(pa.policy, pb.policy) << i;
    EXPECT_EQ(pa.goodput_mean, pb.goodput_mean) << "point " << i << " must be bit-identical";
    EXPECT_EQ(pa.goodput_min, pb.goodput_min) << i;
    EXPECT_EQ(pa.goodput_max, pb.goodput_max) << i;
    EXPECT_EQ(pa.lost_redo_seconds, pb.lost_redo_seconds) << i;
    EXPECT_EQ(pa.lost_detection_seconds, pb.lost_detection_seconds) << i;
    EXPECT_EQ(pa.lost_recovery_seconds, pb.lost_recovery_seconds) << i;
    EXPECT_EQ(pa.recover_p50_seconds, pb.recover_p50_seconds) << i;
    EXPECT_EQ(pa.recover_p99_seconds, pb.recover_p99_seconds) << i;
    EXPECT_EQ(pa.fault_events, pb.fault_events) << i;
    EXPECT_EQ(pa.detections, pb.detections) << i;
    EXPECT_EQ(pa.rollbacks, pb.rollbacks) << i;
    EXPECT_EQ(pa.elastic_shrinks, pb.elastic_shrinks) << i;
    EXPECT_EQ(pa.migrations, pb.migrations) << i;
    EXPECT_EQ(pa.recovered_by, pb.recovered_by) << i;
  }
}

TEST(ResilienceSweep, ReportIdenticalAtAnyThreadCount) {
  auto serial = quick_sweep();
  serial.threads = 1;
  auto wide = quick_sweep();
  wide.threads = 8;
  expect_identical(run_resilience_sweep(serial), run_resilience_sweep(wide));
}

// The acceptance criterion as stated: LIGHTPATH_THREADS=1 and =8 produce a
// bit-identical report when the sweep is left to consult the environment.
TEST(ResilienceSweep, ReportIdenticalUnderLightpathThreadsEnv) {
  const auto env_sweep = [](const char* threads) {
    ASSERT_EQ(setenv("LIGHTPATH_THREADS", threads, 1), 0);
    EXPECT_EQ(util::env_threads(), std::strtoul(threads, nullptr, 10));
  };
  auto config = quick_sweep();
  config.threads = 0;
  env_sweep("1");
  const auto narrow = run_resilience_sweep(config);
  env_sweep("8");
  const auto wide = run_resilience_sweep(config);
  ASSERT_EQ(unsetenv("LIGHTPATH_THREADS"), 0);
  expect_identical(narrow, wide);
}

TEST(ResilienceSweep, PairsPoliciesPerPointPhotonicFirst) {
  const auto report = run_resilience_sweep(quick_sweep());
  ASSERT_EQ(report.points.size(), 4u);
  for (std::size_t i = 0; i < report.points.size(); i += 2) {
    EXPECT_EQ(report.points[i].policy, RunPolicy::kPhotonicRepair);
    EXPECT_EQ(report.points[i + 1].policy, RunPolicy::kElectricalMigration);
    EXPECT_EQ(report.points[i].mtbf_hours, report.points[i + 1].mtbf_hours);
  }
}

// --- Gray failures: transient retries across climbs, the sweep -------------

TEST(DriveRecovery, TransientFailuresAreRetriedAcrossClimbs) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  // The first four programming attempts (anywhere on the ladder) settle
  // out; the fifth locks.  Climb 1 burns retune + rung-5 retries and ends
  // transient; climb 2 retunes on its first attempt.
  auto calls = std::make_shared<std::uint32_t>(0);
  routing::EscalationOptions base;
  base.transient_failure = [calls](routing::RepairRung, std::uint32_t) {
    return ++*calls <= 4;
  };
  RecoveryPolicy policy;
  policy.initial_budget = Duration::zero();  // unbounded climbs: isolate transients
  const RecoveryResult res = drive_recovery(fab, victim, policy, base);
  EXPECT_TRUE(res.recovered);
  EXPECT_EQ(res.rung, routing::RepairRung::kRetune);
  EXPECT_EQ(res.climbs, 2u) << "one all-transient climb, then the recovery";
  EXPECT_EQ(res.transient_failures, 4u);
  EXPECT_FALSE(res.transient_failed);
  EXPECT_GT(res.backoff_latency, Duration::zero())
      << "a transient climb backs off before the next, like budget exhaustion";
}

TEST(DriveRecovery, AllTransientClimbsLeaveTheVictimEstablished) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  routing::DegradedCircuit victim;
  victim.id = id.value();
  victim.dead_lasers = 2;

  routing::EscalationOptions base;
  base.transient_failure = [](routing::RepairRung, std::uint32_t) { return true; };
  const RecoveryResult res = drive_recovery(fab, victim, RecoveryPolicy{}, base);
  EXPECT_FALSE(res.recovered);
  EXPECT_FALSE(res.fell_through);
  EXPECT_FALSE(res.plan_failure);
  EXPECT_TRUE(res.transient_failed)
      << "even the final unbounded climb ended in settle timeouts";
  EXPECT_GT(res.transient_failures, 0u);
  EXPECT_NE(fab.circuit(id.value()), nullptr)
      << "nothing committed: the victim stays up for a later climb";
}

// Every observable of drive_recovery under transient oracles, folded per
// (victim, oracle) cell over budgets, rung backoff jitter and validate
// hooks.  A climb that fails leaves the ledger as it found it, so later
// climbs re-probe the same rung-2 strategies; these pins hold what those
// re-probes decide fixed, whatever the ladder remembers between them.
enum class Oracle { kAlways, kFirstThree, kOddOrdinals, kNever };

std::uint64_t transient_recovery_digest(bool cross_wafer, bool hard_down, Oracle oracle) {
  std::uint64_t h = 0;
  const auto fold = [&h](std::uint64_t v) { h = fabric::hash_mix(h, v); };
  for (const Duration budget :
       {Duration::zero(), Duration::micros(5.0), RecoveryPolicy{}.initial_budget}) {
    for (const double jitter : {0.0, 0.5}) {
      for (const int validate : {0, 1, 2}) {  // none, reject all, FaultPlane diagnosis
        fabric::FabricConfig config;
        config.wafer_count = 2;  // default wafers; the second carries the cross-wafer victim
        Fabric fab{config};
        fab.add_fiber_link({0, 7}, {1, 0}, 16);
        const GlobalTile dst = cross_wafer ? GlobalTile{1, 3} : GlobalTile{0, 3};
        const auto id = fab.connect(GlobalTile{0, 0}, dst, 2);
        EXPECT_TRUE(id.ok());
        routing::DegradedCircuit victim;
        victim.id = id.value();
        victim.hard_down = hard_down;
        victim.budget_failed = !hard_down;

        FaultPlane plane{fab, {}, {}, /*hysteresis=*/false};
        routing::EscalationOptions base;
        if (validate == 1) {
          base.validate = [](const Fabric&, fabric::CircuitId) { return false; };
        } else if (validate == 2) {
          // Loss past the quarantine threshold on the direct route's second
          // hop: the router detours, the XY strategy finds the edge full.
          plane.strike({{.kind = fault::FaultKind::kWaveguideLoss, .tile = {0, 1},
                         .direction = fabric::Direction::kEast,
                         .excess_loss = Decibel::db(5.0)}},
                       Decibel::db(3.0));
          base = plane.repair_options(2);
        }
        auto calls = std::make_shared<std::uint32_t>(0);
        base.transient_failure = [oracle, calls](routing::RepairRung, std::uint32_t ordinal) {
          ++*calls;
          switch (oracle) {
            case Oracle::kAlways: return true;
            case Oracle::kFirstThree: return *calls <= 3;
            case Oracle::kOddOrdinals: return ordinal % 2 == 1;
            case Oracle::kNever: return false;
          }
          return false;
        };
        RecoveryPolicy policy;
        policy.initial_budget = budget;
        policy.rung_backoff.base = Duration::micros(10.0);
        policy.rung_backoff.jitter_fraction = jitter;
        policy.rung_backoff.seed = 11;
        const RecoveryResult res = drive_recovery(fab, victim, policy, base);

        fold(res.climbs);
        fold(static_cast<std::uint64_t>(res.rung));
        fold(std::uint64_t{res.recovered} | std::uint64_t{res.fell_through} << 1 |
             std::uint64_t{res.plan_failure} << 2 | std::uint64_t{res.transient_failed} << 3);
        fold(res.transient_failures);
        for (const std::uint32_t n : res.rung_attempts) fold(n);
        fold(std::bit_cast<std::uint64_t>(res.repair_latency.to_seconds()));
        fold(std::bit_cast<std::uint64_t>(res.backoff_latency.to_seconds()));
        fold(*calls);
        fold(fab.ledger_key());
      }
    }
  }
  return h;
}

TEST(DriveRecovery, TransientClimbsMatchPinnedResults) {
  struct Pin {
    bool cross_wafer;
    bool hard_down;
    Oracle oracle;
    std::uint64_t digest;
  };
  // Recorded before the ladder replayed rung-2 probes across retries and
  // climbs.
  const Pin pins[] = {
      {false, true, Oracle::kAlways, 0x5efa0e667f9ec365},
      {false, true, Oracle::kFirstThree, 0x42223299f487e725},
      {false, true, Oracle::kOddOrdinals, 0x512445bf95e6346f},
      {false, true, Oracle::kNever, 0x512445bf95e6346f},
      {false, false, Oracle::kAlways, 0x5efa0e667f9ec365},
      {false, false, Oracle::kFirstThree, 0x42223299f487e725},
      {false, false, Oracle::kOddOrdinals, 0x512445bf95e6346f},
      {false, false, Oracle::kNever, 0x512445bf95e6346f},
      {true, true, Oracle::kAlways, 0x08b48dc0ca6172f5},
      {true, true, Oracle::kFirstThree, 0x6848408d0c81d849},
      {true, true, Oracle::kOddOrdinals, 0x3c1052b93349be62},
      {true, true, Oracle::kNever, 0x95594c2a1b1fe73a},
      {true, false, Oracle::kAlways, 0x08b48dc0ca6172f5},
      {true, false, Oracle::kFirstThree, 0x6848408d0c81d849},
      {true, false, Oracle::kOddOrdinals, 0x3c1052b93349be62},
      {true, false, Oracle::kNever, 0x95594c2a1b1fe73a},
  };
  for (const Pin& pin : pins) {
    const std::uint64_t got = transient_recovery_digest(pin.cross_wafer, pin.hard_down, pin.oracle);
    EXPECT_EQ(got, pin.digest) << std::hex << "0x" << got << std::dec
                               << " cross_wafer=" << pin.cross_wafer
                               << " hard_down=" << pin.hard_down
                               << " oracle=" << static_cast<int>(pin.oracle);
  }
}

GraySweepConfig small_gray_config() {
  GraySweepConfig config;
  config.base.iterations = 300;
  config.base.mtbf_hours = 1e9;  // flaps only: isolate the gray layer
  config.base.recovery.rung_backoff.base = Duration::micros(50.0);
  config.base.recovery.rung_backoff.jitter_fraction = 0.5;
  config.flap_rates_per_hour = {8.0, 16.0};
  config.trials = 2;
  return config;
}

TEST(GraySweep, HysteresisBeatsNaiveAtEveryRate) {
  const auto report = run_gray_sweep(small_gray_config());
  ASSERT_EQ(report.points.size(), 4u) << "two rates x two arms";
  for (std::size_t i = 0; i + 1 < report.points.size(); i += 2) {
    const GrayPointReport& hyst = report.points[i];
    const GrayPointReport& naive = report.points[i + 1];
    ASSERT_TRUE(hyst.hysteresis);
    ASSERT_FALSE(naive.hysteresis);
    ASSERT_EQ(hyst.flap_rate_per_hour, naive.flap_rate_per_hour);
    EXPECT_GT(hyst.goodput_mean, naive.goodput_mean)
        << "hysteresis+backoff must win at " << hyst.flap_rate_per_hour << "/h";
    EXPECT_GT(hyst.suppressed_repairs, 0u) << "the damper must actually engage";
    EXPECT_EQ(naive.suppressed_repairs, 0u) << "the naive arm never suppresses";
    EXPECT_EQ(hyst.misclassifications, 0u)
        << "hysteresis never declares a flapping chip dead";
    EXPECT_GT(naive.misclassifications, 0u)
        << "naive eventually prices the gray failure as fail-stop; that is "
           "the thrash the sweep measures";
  }
}

TEST(GraySweep, ReportIdenticalAtAnyThreadCount) {
  auto config = small_gray_config();
  config.threads = 1;
  const auto serial = run_gray_sweep(config);
  for (const unsigned threads : {2u, 8u}) {
    config.threads = threads;
    const auto parallel = run_gray_sweep(config);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    EXPECT_EQ(parallel.digest(), serial.digest()) << threads << " threads";
  }
}

// The digest folds probations and relapses, which lpbench's train_gray
// digest leaves out.
TEST(GraySweep, DigestMatchesPinnedValue) {
  const std::uint64_t digest = run_gray_sweep(small_gray_config()).digest();
  EXPECT_EQ(digest, 0xf6421e0e436f422cu) << std::hex << "0x" << digest;
}

// The shared ride-out rule (FlapDamper::ride_out): on the hysteresis arm
// every observed dip is exactly one of a thrash climb, a suppressed repair,
// or a quarantine entry; the naive arm climbs on every dip it observes.
TEST(GraySweep, EveryFlapIsAClimbASuppressionOrAQuarantine) {
  const auto report = run_gray_sweep(small_gray_config());
  for (const GrayPointReport& pt : report.points) {
    if (pt.hysteresis) {
      EXPECT_GT(pt.quarantines, 0u) << pt.flap_rate_per_hour;
      EXPECT_EQ(pt.flap_transitions, pt.flap_repairs + pt.suppressed_repairs + pt.quarantines)
          << pt.flap_rate_per_hour;
    } else {
      EXPECT_EQ(pt.flap_transitions, pt.flap_repairs) << pt.flap_rate_per_hour;
    }
  }
}

}  // namespace
}  // namespace lp::runtime
