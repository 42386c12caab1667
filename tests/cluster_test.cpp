// Tests of the cluster-scale multi-tenant scheduler: admission and
// completion accounting, the recovery escalation's decision boundaries
// (respare vs morph vs shrink vs requeue), exact rollback of aborted
// morphs, and sweep determinism across thread counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/scheduler.hpp"
#include "topo/torus.hpp"

namespace lp::cluster {
namespace {

using topo::Shape;

ClusterParams small_cluster(std::int32_t racks) {
  ClusterParams p;
  p.cluster.racks = racks;
  p.horizon = Duration::seconds(30.0);
  p.drain = Duration::seconds(120.0);
  p.arrival_rate_per_s = 1.0;
  p.service_mean = Duration::seconds(15.0);
  p.service_min = Duration::seconds(2.0);
  p.fabric_wafers = 2;
  return p;
}

// The scripted decision-boundary world: job A fills rack 0 (no spare chips
// left there), job B takes a corner of rack 1, and a server tray of job A
// dies mid-run.  Respare is impossible; what happens next is the knob under
// test.
ClusterParams boundary_params() {
  ClusterParams p;
  p.cluster.racks = 2;
  p.horizon = Duration::seconds(5.0);
  p.drain = Duration::seconds(600.0);
  p.fabric_wafers = 2;
  p.job_script = {
      {Duration::seconds(0.1), Shape{{4, 4, 4}}, Duration::seconds(20.0)},
      {Duration::seconds(0.2), Shape{{2, 2, 1}}, Duration::seconds(5.0)},
  };
  p.script = {
      {Duration::seconds(1.0), FaultDomain::kServer, 0,
       fault::FaultKind::kChipDeath, 1},
  };
  return p;
}

TEST(ClusterScheduler, FaultFreeRunCompletesEverythingItAdmits) {
  ClusterParams p = small_cluster(4);
  p.mtbf_hours = 0.0;  // no fault timeline at all
  ClusterScheduler s{p};
  const ClusterReport r = s.run();

  EXPECT_GT(r.offered, 0u);
  EXPECT_EQ(r.offered, r.completed + r.unserved + r.aborted);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(r.fault_events, 0u);
  EXPECT_EQ(r.requeues, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GE(r.accepted_load(), 0.0);
  EXPECT_LE(r.accepted_load(), 1.0);
  EXPECT_GE(r.utilization_avg, 0.0);
  EXPECT_LE(r.utilization_avg, 1.0);
  EXPECT_EQ(s.ocs().ports_used(), 0u) << "completed jobs release OCS ports";
}

TEST(ClusterScheduler, ReportIsAPureFunctionOfParams) {
  const ClusterParams p = small_cluster(4);
  const ClusterReport a = run_cluster(p);
  const ClusterReport b = run_cluster(p);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.morphs, b.morphs);
  EXPECT_EQ(a.requeues, b.requeues);
  EXPECT_DOUBLE_EQ(a.offered_work_chip_seconds, b.offered_work_chip_seconds);
  EXPECT_DOUBLE_EQ(a.completed_work_chip_seconds, b.completed_work_chip_seconds);

  ClusterParams q = p;
  q.seed ^= 0xdead;
  EXPECT_NE(run_cluster(q).digest, a.digest) << "seed must matter";
}

// Spares available in the victim's rack -> respare wins; nothing morphs.
TEST(ClusterScheduler, RespareIsPreferredWhenTheRackHasSpares) {
  ClusterParams p = boundary_params();
  p.job_script[0].shape = Shape{{4, 4, 2}};  // half the rack stays free
  ClusterScheduler s{p};
  const ClusterReport r = s.run();

  EXPECT_EQ(r.fatal_chip_failures, 4u);
  EXPECT_EQ(r.respares, 1u);
  EXPECT_EQ(r.morphs, 0u);
  EXPECT_EQ(r.elastic_shrinks, 0u);
  EXPECT_EQ(r.completed, 2u);
}

// Spares exhausted mid-job: the scheduler must morph — re-stitch the slice
// across rack 1's healthy chips — rather than degrade to an elastic shrink.
TEST(ClusterScheduler, MorphIsPreferredOverShrinkWhenSparesExhaust) {
  const ClusterParams p = boundary_params();
  ClusterScheduler s{p};
  const ClusterReport r = s.run();

  EXPECT_EQ(r.fatal_chip_failures, 4u);
  EXPECT_EQ(r.respares, 0u) << "rack 0 has no free chip to respare onto";
  EXPECT_EQ(r.morphs, 1u);
  EXPECT_EQ(r.morph_aborts, 0u);
  EXPECT_EQ(r.elastic_shrinks, 0u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(s.ocs().ports_used(), 0u)
      << "the morphed job's stitch ports are released on completion";
  EXPECT_EQ(s.fabric().ledger_digest(), fabric::Fabric{s.fabric().config()}.ledger_digest())
      << "stitch circuits are torn down on completion";
}

// With morphing disabled the same timeline degrades to an elastic shrink.
TEST(ClusterScheduler, ShrinkTakesOverWhenMorphingIsDisabled) {
  ClusterParams p = boundary_params();
  p.morph_enabled = false;
  const ClusterReport r = run_cluster(p);

  EXPECT_EQ(r.morphs, 0u);
  EXPECT_EQ(r.elastic_shrinks, 1u);
  EXPECT_EQ(r.completed, 2u);
}

// An aborted morph (here: no OCS ports to reserve) must roll back exactly —
// the run's outcome digest matches a run where morphing was never tried,
// because the abort leaves no trace beyond its diagnostic counter.
TEST(ClusterScheduler, AbortedMorphRollsBackExactly) {
  ClusterParams aborting = boundary_params();
  aborting.ocs_switches = 0;  // reserve() can never succeed
  const ClusterReport a = run_cluster(aborting);

  ClusterParams never = boundary_params();
  never.ocs_switches = 0;
  never.morph_enabled = false;
  const ClusterReport n = run_cluster(never);

  EXPECT_GE(a.morph_aborts, 1u);
  EXPECT_EQ(n.morph_aborts, 0u);
  EXPECT_EQ(a.elastic_shrinks, 1u) << "the abort falls through to shrink";
  EXPECT_EQ(a.digest, n.digest)
      << "an exactly-rolled-back morph attempt must not perturb the outcome";
}

// Same rollback contract when the shrink floor forces a requeue instead.
TEST(ClusterScheduler, AbortedMorphFallsThroughToRequeueUnderStrictFloor) {
  ClusterParams aborting = boundary_params();
  aborting.ocs_switches = 0;
  aborting.shrink_min_fraction = 1.01;  // any chip loss is below the floor
  const ClusterReport a = run_cluster(aborting);

  ClusterParams never = aborting;
  never.morph_enabled = false;
  const ClusterReport n = run_cluster(never);

  EXPECT_GE(a.morph_aborts, 1u);
  EXPECT_GE(a.requeues, 1u);
  EXPECT_EQ(a.elastic_shrinks, 0u);
  EXPECT_EQ(a.digest, n.digest);
}

// The electrical baseline drains a job for ANY fault that touches it —
// component faults included (the §4.2 blast-radius point) — and pays the
// rack-granularity migration charge.
TEST(ClusterScheduler, ElectricalBaselineMigratesOnComponentFaults) {
  ClusterParams p = boundary_params();
  p.policy = SchedulerPolicy::kElectricalOnly;
  p.script = {
      {Duration::seconds(1.0), FaultDomain::kChip, 0,
       fault::FaultKind::kMziDrift, 1},
  };
  const ClusterReport r = run_cluster(p);

  EXPECT_EQ(r.component_events, 1u);
  EXPECT_EQ(r.fatal_chip_failures, 0u);
  EXPECT_EQ(r.migrations + r.migration_failures, 1u)
      << "a non-fatal component fault still drains the electrical job";
  EXPECT_EQ(r.morphs, 0u);
  EXPECT_EQ(r.inplace_repairs, 0u);

  ClusterParams q = p;
  q.policy = SchedulerPolicy::kPhotonicMorph;
  const ClusterReport opt = run_cluster(q);
  EXPECT_EQ(opt.inplace_repairs, 1u)
      << "the photonic policy repairs the same fault in place";
  EXPECT_EQ(opt.migrations, 0u);
  EXPECT_LE(opt.lost.total().to_seconds(), r.lost.total().to_seconds());
}

TEST(ClusterSweep, BitIdenticalAt1_2_8Threads) {
  ClusterSweepConfig config;
  config.base = small_cluster(2);
  config.base.horizon = Duration::seconds(15.0);
  config.base.drain = Duration::seconds(60.0);
  config.mtbf_points = {0.5, 4.0};
  config.trials = 1;

  std::vector<std::uint64_t> digests;
  std::vector<ClusterSweepReport> reports;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ClusterSweepConfig c = config;
    c.threads = threads;
    ClusterSweepReport r = run_cluster_sweep(c);
    digests.push_back(r.digest);
    reports.push_back(std::move(r));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
  ASSERT_EQ(reports[0].points.size(), 4u) << "2 mtbf points x 2 policies";
  for (std::size_t i = 0; i < reports[0].points.size(); ++i) {
    EXPECT_DOUBLE_EQ(reports[1].points[i].accepted_load_mean,
                     reports[0].points[i].accepted_load_mean);
    EXPECT_DOUBLE_EQ(reports[2].points[i].goodput_mean,
                     reports[0].points[i].goodput_mean);
  }
  // Photonic first within each point, mtbf ascending.
  EXPECT_EQ(reports[0].points[0].policy, SchedulerPolicy::kPhotonicMorph);
  EXPECT_EQ(reports[0].points[1].policy, SchedulerPolicy::kElectricalOnly);
  EXPECT_DOUBLE_EQ(reports[0].points[0].mtbf_hours, 0.5);
  EXPECT_DOUBLE_EQ(reports[0].points[2].mtbf_hours, 4.0);
}

// Every flap lands on chip 0, held by one rack-sized job that outlives the
// run: under the shared ride-out rule each flap is exactly one of a repair
// stall, a suppressed repair, or a quarantine entry — the flap that trips
// quarantine is ridden out, not climbed.
TEST(ClusterScheduler, EveryFlapOnARunningJobIsAClimbASuppressionOrAQuarantine) {
  for (const auto policy : {SchedulerPolicy::kPhotonicMorph, SchedulerPolicy::kElectricalOnly}) {
    ClusterParams p = small_cluster(1);
    p.policy = policy;
    p.horizon = Duration::seconds(240.0);
    p.drain = Duration::zero();
    p.mtbf_hours = 0.0;
    p.flappy_chips = 1;
    p.flap_rate_per_hour = 720.0;  // a flap every ~5 s on chip 0
    p.job_script = {{Duration::zero(), Shape{{4, 4, 4}}, Duration::seconds(1e6)}};
    const ClusterReport r = run_cluster(p);
    ASSERT_GT(r.flap_events, 10u) << to_string(policy);
    EXPECT_GT(r.flap_repairs, 0u) << to_string(policy);
    EXPECT_GT(r.chip_quarantines, 0u) << to_string(policy);
    EXPECT_GT(r.suppressed_repairs, 0u) << to_string(policy);
    EXPECT_EQ(r.flap_events, r.flap_repairs + r.suppressed_repairs + r.chip_quarantines)
        << to_string(policy);
  }
}

// Admission-order pins: small runs over both policies whose digests were
// recorded before admission moved onto cluster::AdmissionQueue.  The digest
// folds every completion (job id and time) and the final chip states, so
// any change in which job starts when, or on which chips, moves it.  Each
// config names the admission path it leans on, and `covers` keeps it from
// silently drifting off that path.
//
// The digest deliberately excludes attempt diagnostics, so each run also
// pins them, as recorded before harvest became a dry run over the free
// masks (photonic/flaps-dense, digest included, was recorded then too): a
// harvest that queried the flap damper about other chips, or counted a
// deferral twice, would keep every digest.
struct Attempts {
  std::uint64_t morph_deferrals;
  std::uint64_t morph_aborts;
  std::uint64_t migration_failures;
};

struct PinnedRun {
  const char* name;
  ClusterParams params;
  std::uint64_t digest;
  Attempts attempts;
  bool (*covers)(const ClusterReport&);
};

std::vector<PinnedRun> pinned_runs() {
  std::vector<PinnedRun> runs;
  const auto add = [&](const char* name, ClusterParams p, std::uint64_t digest,
                       Attempts attempts, bool (*covers)(const ClusterReport&)) {
    runs.push_back(PinnedRun{name, std::move(p), digest, attempts, covers});
  };
  const auto overload = [](std::int32_t racks) {
    ClusterParams p = small_cluster(racks);
    p.arrival_rate_per_s = 6.0;
    p.service_mean = Duration::seconds(20.0);
    p.mtbf_hours = 0.5;
    return p;
  };
  const auto electrical = [](ClusterParams p) {
    p.policy = SchedulerPolicy::kElectricalOnly;
    return p;
  };
  using R = const ClusterReport&;
  constexpr Attempts kNone{0, 0, 0};

  {
    ClusterParams p = small_cluster(2);
    p.arrival_rate_per_s = 2.0;
    p.mtbf_hours = 0.5;
    add("photonic/base", p, 0x20bbde819f8bca22, kNone,
        [](R r) { return r.placed_morphed > 0; });
    add("electrical/base", electrical(p), 0x7fd03785d52e7eb8, kNone,
        [](R r) { return r.migrations > 0; });
  }
  add("photonic/overload", overload(3), 0x96c65b8e1ef4f023, kNone,
      [](R r) { return r.placed_morphed > 0; });
  add("electrical/overload", electrical(overload(3)), 0x85d8b1ce53b0d753, kNone,
      [](R r) { return r.migrations > 0; });
  {
    ClusterParams p = overload(3);
    p.morph_enabled = false;
    add("photonic/morph-off", p, 0x31f8d83182b0dbe5, kNone,
        [](R r) { return r.placed_morphed == 0; });
  }
  {
    // Requeue-heavy: frequent fatal faults and no shrink, so recovery
    // requeues (and aborts past max_requeues) keep re-pushing old ids.
    ClusterParams p = overload(2);
    p.mtbf_hours = 0.01;
    p.shrink_min_fraction = 1.01;
    p.max_requeues = 1;
    add("photonic/requeue-heavy", p, 0xb3f8a2f90dd87551, kNone,
        [](R r) { return r.requeues > 10 && r.morphs > 0; });
    p.max_requeues = 0;
    add("electrical/requeue-heavy", electrical(p), 0x744674af342c4235, {0, 0, 18},
        [](R r) { return r.requeues > 10 && r.aborted > 10; });
  }
  {
    // Morph-abort-heavy: two fragments at most and two OCS ports, so
    // admission morphs keep failing (harvest or port reservation), the
    // failed-volume rule does the work, and recovery morphs abort.
    ClusterParams p = overload(4);
    p.max_fragments = 2;
    p.ocs_switches = 1;
    p.ocs.ports = 2;
    p.mtbf_hours = 0.01;
    add("photonic/morph-abort-heavy", p, 0x05027ac5c5803a8a, {0, 28, 0},
        [](R r) { return r.morph_aborts > 10 && r.placed_morphed > 0; });
  }
  {
    // Flaps: with hysteresis, harvest and respare defer off quarantined
    // chips; the naive arm pays a repair stall for every flap.
    ClusterParams p = overload(4);
    p.flap_rate_per_hour = 720.0;
    p.flappy_chips = 32;
    add("photonic/flaps-hysteresis", p, 0x4384b9bd25e379fc, {401, 0, 0},
        [](R r) { return r.morph_deferrals > 0 && r.placed_morphed > 0; });
    add("electrical/flaps-hysteresis", electrical(p), 0xe461dfc8c6cea8c3, kNone,
        [](R r) { return r.flap_repairs > 0 && r.migrations > 0; });
    p.gray_hysteresis = false;
    add("photonic/flaps-naive", p, 0x9258cdb4bdddcf4c, kNone,
        [](R r) { return r.flap_repairs > 0 && r.morph_deferrals == 0; });
  }
  {
    // Dense flaps: every other chip flaps, so a harvest that covers its
    // volume mid-rack usually has quarantined chips after its last pick.
    // A dry run that queried the damper past the cover point would count
    // them; the digest cannot see that, the deferral count can.
    ClusterParams p = overload(4);
    p.flap_rate_per_hour = 720.0;
    p.flappy_chips = 128;
    add("photonic/flaps-dense", p, 0xc725dabc302dcbfe, {1253, 0, 0},
        [](R r) { return r.morph_deferrals > 0 && r.placed_morphed > 0; });
  }
  {
    // Two shapes of one volume (4x2x1 and 2x4x1) plus single chips and a
    // rack-sized job: a failed morph volume must rule out both shapes.
    ClusterParams p = overload(3);
    p.mix = {{Shape{{4, 2, 1}}, 2.0}, {Shape{{2, 4, 1}}, 2.0}, {Shape{{1, 1, 1}}, 1.0},
             {Shape{{2, 2, 2}}, 1.0}, {Shape{{4, 4, 4}}, 0.3}};
    add("photonic/shared-volume-mix", p, 0x58944eb6b80ddc0b, kNone,
        [](R r) { return r.placed_morphed > 0; });
    add("electrical/shared-volume-mix", electrical(p), 0x609ce4958aa4c587, kNone,
        [](R r) { return r.migrations > 0; });
  }
  return runs;
}

TEST(ClusterScheduler, AdmissionOrderMatchesPinnedDigests) {
  const std::vector<PinnedRun> runs = pinned_runs();
  ASSERT_EQ(runs.size(), 14u);
  for (const PinnedRun& run : runs) {
    const ClusterReport r = run_cluster(run.params);
    EXPECT_EQ(r.digest, run.digest)
        << run.name << ": digest " << std::hex << r.digest << std::dec;
    EXPECT_EQ(r.morph_deferrals, run.attempts.morph_deferrals) << run.name;
    EXPECT_EQ(r.morph_aborts, run.attempts.morph_aborts) << run.name;
    EXPECT_EQ(r.migration_failures, run.attempts.migration_failures) << run.name;
    EXPECT_GT(r.queue_delay_p99_s, 0.0) << run.name << ": no queue ever formed";
    EXPECT_TRUE(run.covers(r)) << run.name << ": off its admission path";
  }
}

// Admission passes that stage two or more morphs at once, with stitch
// demands, and with rings that fail to place and roll back.  A pass plans
// its staged rings in stage order, one job at a time; a ring that does not
// fully place releases what it placed and its job stays queued.  The values
// below were recorded while such passes still planned through a separate
// concurrent batch planner.  Passes staging two or more morphs / jobs in
// them / jobs rolled back / stitch demands in them, as counted then:
//   wafers1-w16              4 /     9 /     1 /     4
//   wafers2-w8               3 /     6 /     1 /     6
//   wafers4-w16-mtbf0.5     16 /    38 /     4 /    28
//   wafers2-w16-flaps       11 /    24 /     6 /    31
//   wafers1-w8-mtbf0.5     295 / 2,763 / 2,627 / 8,844
struct MorphCounts {
  std::uint64_t offered;
  std::uint64_t admitted;
  std::uint64_t completed;
  std::uint64_t placed_morphed;
  std::uint64_t morphs;
  std::uint64_t morph_aborts;
  std::uint64_t requeues;
};

/// Bit patterns of the report's queue-delay quantiles and time averages.
struct MorphBits {
  std::uint64_t queue_p50;
  std::uint64_t queue_p99;
  std::uint64_t stranding;
  std::uint64_t utilization;
};

struct PinnedMorphRun {
  const char* name;
  ClusterParams params;
  std::uint64_t digest;
  MorphCounts counts;
  MorphBits bits;
};

std::vector<PinnedMorphRun> pinned_morph_runs() {
  // Photonic policy, default mix and 64 racks throughout.
  const auto config = [](std::uint32_t wafers, std::uint32_t wavelengths,
                         double jobs_per_s, double mtbf_hours, std::uint64_t seed) {
    ClusterParams p;
    p.horizon = Duration::seconds(120.0);
    p.drain = Duration::seconds(120.0);
    p.fabric_wafers = wafers;
    p.morph_wavelengths = wavelengths;
    p.arrival_rate_per_s = jobs_per_s;
    p.mtbf_hours = mtbf_hours;
    p.seed = seed;
    return p;
  };
  ClusterParams flaps = config(2, 16, 64.0, 0.5, 7);
  flaps.flap_rate_per_hour = 240.0;
  return {
      {"wafers1-w16", config(1, 16, 16.0, 2.0, 1), 0x296e607ad2eb29ea,
       {1909, 1175, 833, 46, 2, 2, 0},
       {0x404a49d9130c5c90, 0x40648e79242a0e2e, 0x3f5dbf49d71eab36, 0x3fee747f64fd30fa}},
      {"wafers2-w8", config(2, 8, 16.0, 2.0, 1), 0x65639543417254fa,
       {1909, 1164, 825, 40, 5, 0, 3},
       {0x404a78cf0d927212, 0x4064946a797419fd, 0x3f82f7b71e6c408c, 0x3fee3d2fe0fde323}},
      {"wafers4-w16-mtbf0.5", config(4, 16, 16.0, 0.5, 1), 0xc5763dcc7d14b66c,
       {1909, 1103, 773, 124, 22, 0, 13},
       {0x40485689167c74fc, 0x406517eb37723e96, 0x3f98623594193d5b, 0x3fecc8d946f1475f}},
      {"wafers2-w16-flaps", flaps, 0xa5fa82fe60f7dd63,
       {7696, 1282, 905, 67, 6, 6, 10},
       {0x40513e374fae827e, 0x406b20bda162c79e, 0x3fa0a8ca89a61676, 0x3fee4249a65a3774}},
      {"wafers1-w8-mtbf0.5", config(1, 8, 16.0, 0.5, 1), 0x6f2dbc4b14de030f,
       {1909, 954, 706, 175, 15, 5, 8},
       {0x403c9ad590c3bc58, 0x4066223b7ae94844, 0x3fc6732a9d73ccbe, 0x3fec58311a3ceb37}},
  };
}

TEST(ClusterScheduler, MorphBatchesMatchPinnedDigests) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const PinnedMorphRun& run : pinned_morph_runs()) {
    const ClusterReport r = run_cluster(run.params);
    EXPECT_EQ(r.digest, run.digest)
        << run.name << ": digest " << std::hex << r.digest << std::dec;
    EXPECT_EQ(r.offered, run.counts.offered) << run.name;
    EXPECT_EQ(r.admitted, run.counts.admitted) << run.name;
    EXPECT_EQ(r.completed, run.counts.completed) << run.name;
    EXPECT_EQ(r.placed_morphed, run.counts.placed_morphed) << run.name;
    EXPECT_EQ(r.morphs, run.counts.morphs) << run.name;
    EXPECT_EQ(r.morph_aborts, run.counts.morph_aborts) << run.name;
    EXPECT_EQ(r.requeues, run.counts.requeues) << run.name;
    EXPECT_EQ(bits(r.queue_delay_p50_s), run.bits.queue_p50) << run.name;
    EXPECT_EQ(bits(r.queue_delay_p99_s), run.bits.queue_p99) << run.name;
    EXPECT_EQ(bits(r.frag_stranding_avg), run.bits.stranding) << run.name;
    EXPECT_EQ(bits(r.utilization_avg), run.bits.utilization) << run.name;
  }
}

}  // namespace
}  // namespace lp::cluster
