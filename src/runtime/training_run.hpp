// Event-driven multi-iteration training-run simulator.
//
// core/training_sim prices one iteration; fault/ injects faults and
// routing/repair fixes circuits — but nothing connects them in time.  A
// TrainingRun does: it advances the bucket-overlap iteration model through
// a deterministic fault timeline drawn from fault::FaultInjector, so faults
// strike at arbitrary points inside an iteration's compute/communication
// overlap, and plays out the full job-level response:
//
//   fault -> heartbeat detection (next tick + detection latency)
//         -> recovery (policy-dependent, wall clock charged)
//         -> rollback accounting when state was lost
//         -> resume, possibly degraded.
//
// Two recovery policies give the paper's §4.2 comparison at job level:
//
//   * kPhotonicRepair — each degraded ring circuit climbs the repair ladder
//     under runtime::drive_recovery's bounded-timeout/backoff schedule.
//     Retune/reroute are pure stalls; respare replaces the dead member with
//     a spare chip (state restore = rollback).  When the optical rungs are
//     exhausted the run does NOT migrate: the ring shrinks elastically to
//     the survivors, the bucket AllReduce is re-picked over them, and the
//     run continues at reduced bandwidth.
//   * kElectricalMigration — the [60] baseline: any fault that degrades a
//     ring circuit rolls back to the checkpoint and migrates the job at
//     rack granularity, paying migration_latency per event.
//
// Determinism contract: a single run is serial and every draw comes from
// Rng{task_seed(config.seed, stream)} — the report is a pure function of
// the config.  run_resilience_sweep() parallelizes (mtbf x policy x trial)
// tasks with per-task seeds and folds results in ascending task order, so
// the sweep report is bit-identical at any thread count (LIGHTPATH_THREADS
// included).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "collective/autotuner.hpp"
#include "collective/cost_model.hpp"
#include "collective/schedule.hpp"
#include "core/training_sim.hpp"
#include "fault/fault.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/repair.hpp"
#include "runtime/fault_plane.hpp"
#include "runtime/recovery.hpp"
#include "util/units.hpp"

namespace lp::runtime {

enum class RunPolicy : std::uint8_t {
  kPhotonicRepair = 0,
  kElectricalMigration = 1,
};

[[nodiscard]] constexpr const char* to_string(RunPolicy p) {
  switch (p) {
    case RunPolicy::kPhotonicRepair: return "photonic repair";
    case RunPolicy::kElectricalMigration: return "electrical migration";
  }
  return "?";
}

/// A fault injected at a scripted wall-clock offset instead of drawn from
/// the Poisson process — the deterministic probe tests and demos use (e.g.
/// "kill this chip mid-collective of iteration 3").
struct ScriptedFault {
  Duration at{Duration::zero()};
  std::vector<fault::Fault> faults;
};

struct RunConfig {
  RunPolicy policy{RunPolicy::kPhotonicRepair};
  core::TrainingConfig iteration{
      /*buckets=*/8, /*bucket_bytes=*/DataSize::mib(64),
      /*compute_per_bucket=*/Duration::millis(25.0)};
  std::uint32_t iterations{2000};
  /// Checkpoints are taken (free of charge) at the first iteration boundary
  /// once this much wall clock has passed since the previous one; rollback
  /// replays from there.
  Duration checkpoint_interval{Duration::seconds(30.0)};
  /// Per-chip component MTBF, *accelerated* so a minutes-long simulated run
  /// sees faults at all (real MTBFs are ~1e4 hours against runs of ~0.1
  /// simulated hours; the photonic/electrical goodput ratio is the metric,
  /// not absolute availability).
  double mtbf_hours{1.0};
  std::uint64_t seed{0x5eed};
  /// Ring members per wafer (two wafers; tiles beyond the ring are the
  /// spare pool respare draws from).
  std::uint32_t ring_tiles_per_wafer{28};
  /// Wavelengths per ring circuit.
  std::uint32_t wavelengths{2};
  fault::FaultModelParams model{};
  fault::HealthMonitorParams health{};
  RecoveryPolicy recovery{};
  coll::CostParams cost{};
  /// Rack-granularity job migration charge (kElectricalMigration only).
  Duration migration_latency{Duration::seconds(600.0)};
  /// Non-empty replaces the Poisson fault timeline entirely (entries fire
  /// in order; an entry scheduled in the past fires immediately).
  std::vector<ScriptedFault> script;

  // -- Gray-failure layer (fault/gray.hpp). ---------------------------------
  /// Expected gray (flap) episodes per chip-hour, Poisson over the ring
  /// members exactly like mtbf_hours.  Zero disables the layer entirely:
  /// the pre-gray timeline and report are bit-identical.
  double flap_rate_per_hour{0.0};
  fault::GrayModelParams gray{};
  /// true: flaps feed a FlapDamper; a flap that leaves its component
  /// quarantined is ridden out (FlapDamper::ride_out; the plan-cache
  /// quarantine view routes around it) and nothing is ever misclassified.
  /// false: the naive baseline — every observed down-transition climbs the
  /// repair ladder, and after naive_misclassify_after dips the controller
  /// declares the chip dead and respares it (state loss), pricing the gray
  /// failure as fail-stop.
  bool gray_hysteresis{true};
  fault::FlapDamperParams damper{};
  /// Dips the naive controller tolerates on one component before
  /// misclassifying it as chip death.
  std::uint32_t naive_misclassify_after{3};
};

/// Where the goodput went.  Lost work per fault = work replayed since the
/// checkpoint (redo) + time to notice (detection) + time to fix (recovery);
/// the residual gap to ideal is degraded-bandwidth slowdown after elastic
/// shrink.
struct LostWork {
  Duration redo{Duration::zero()};
  Duration detection{Duration::zero()};
  Duration recovery{Duration::zero()};

  [[nodiscard]] Duration total() const { return redo + detection + recovery; }
};

struct RunReport {
  RunPolicy policy{RunPolicy::kPhotonicRepair};
  std::uint32_t iterations_completed{0};
  std::uint32_t ring_size_initial{0};
  std::uint32_t ring_size_final{0};
  std::uint64_t fault_events{0};
  std::uint64_t faults_injected{0};
  /// Events whose strike time fell inside an in-flight collective window of
  /// the interrupted iteration.
  std::uint64_t mid_collective_faults{0};
  /// Events that degraded at least one ring circuit (the rest are latent).
  std::uint64_t detections{0};
  std::uint64_t rollbacks{0};
  std::uint64_t elastic_shrinks{0};
  std::uint64_t migrations{0};
  /// Optical recoveries by ladder rung (recovery-path histogram; shrinks
  /// and migrations are counted separately above).
  std::array<std::uint64_t, routing::kRepairRungCount> recovered_by{};
  LostWork lost{};
  // -- Gray-failure accounting (all zero when flap_rate_per_hour == 0). -----
  std::uint64_t flap_episodes{0};
  /// Observed down-transitions (dips) across all episodes.
  std::uint64_t flap_transitions{0};
  /// Repair-ladder climbs triggered by flaps (each one thrashes: every
  /// attempt inside a dip fails transiently).
  std::uint64_t flap_repairs{0};
  /// Flap-triggered climbs the damper suppressed while quarantined.
  std::uint64_t suppressed_repairs{0};
  std::uint64_t quarantines{0};
  std::uint64_t probations{0};
  std::uint64_t relapses{0};
  /// Naive baseline only: flapping components respared as dead chips.
  std::uint64_t misclassifications{0};
  /// Transiently failed ladder attempts across all flap-triggered climbs.
  std::uint64_t transient_repair_failures{0};
  std::uint64_t ber_bursts{0};
  /// Wall clock the ring spent dark inside dips.
  Duration flap_stall{Duration::zero()};
  /// Extra wall clock charged by BER bursts (goodput runs at
  /// ber_goodput_factor while the burst is active, invisible to the 0.5 dB
  /// health check).
  Duration ber_slowdown{Duration::zero()};
  /// iterations x the policy's own healthy iteration time.
  Duration ideal_time{Duration::zero()};
  Duration wall_clock{Duration::zero()};
  /// Per-detected-event time from fault strike to resumed training
  /// (detection + recovery + redo), seconds, in event order.
  std::vector<double> recover_seconds;

  /// Fraction of ideal progress the wall clock actually delivered.
  [[nodiscard]] double goodput() const {
    return wall_clock <= Duration::zero()
               ? 1.0
               : ideal_time.to_seconds() / wall_clock.to_seconds();
  }
};

/// Per-bucket collective durations of a bucket AllReduce.  Every phase runs
/// its transfers simultaneously on dedicated circuits, so it lasts its
/// pre-delay plus one transfer.  The ring circuits persist across buckets,
/// so only the leading phase's pre-delay amortizes away after the first
/// bucket (mirroring training_sim's static-split accounting); mid-schedule
/// reconfigurations, every phase of a tree or halving-doubling schedule,
/// recur in steady state too.
struct BucketCosts {
  Duration first{Duration::zero()};
  Duration steady{Duration::zero()};
};

/// Folds the lowered AllReduce phases of `algo` on `m` members (coll::lower)
/// at `rate`, phase by phase in schedule order: what a TrainingRun charges
/// per bucket.  Equal, bit for bit, to the same fold over the built
/// schedule's transfers; zero for an algorithm no AllReduce row lowers.
/// Allocates nothing.
[[nodiscard]] BucketCosts all_reduce_bucket_costs(coll::Algorithm algo, std::size_t m,
                                                  DataSize n, Bandwidth rate,
                                                  Duration reconfig);

/// One simulated training run.  Construct, run() once; the accessors expose
/// the final world for tests (surviving ring, live schedule, fabric).
class TrainingRun {
 public:
  explicit TrainingRun(const RunConfig& config = {});

  [[nodiscard]] RunReport run();

  [[nodiscard]] const RunConfig& config() const { return config_; }
  [[nodiscard]] const fabric::Fabric& fabric() const { return fab_; }
  [[nodiscard]] const std::vector<fabric::GlobalTile>& ring_members() const {
    return members_;
  }
  [[nodiscard]] const std::vector<fabric::CircuitId>& ring_circuits() const {
    return circuits_;
  }
  /// The live bucket AllReduce schedule, built on demand over the surviving
  /// members (the run itself charges all_reduce_bucket_costs and never
  /// builds one).
  [[nodiscard]] coll::Schedule schedule() const;
  /// Algorithm the autotuner picked for the live bucket AllReduce.
  [[nodiscard]] coll::Algorithm bucket_algorithm() const { return bucket_algo_; }
  /// The collective autotuner (decision cache keyed on the fabric epoch).
  [[nodiscard]] const coll::Autotuner& tuner() const { return tuner_; }
  /// Faults accumulated over the run (query overlay; never applied).
  [[nodiscard]] const fault::FaultSet& active_faults() const { return plane_.active(); }

 private:
  struct EventOutcome {
    Duration recovery{Duration::zero()};
    bool state_loss{false};
  };

  /// What the bucket pick, its costs and the timeline read of the live
  /// ring besides the config: the member count, the ring rate (its slowest
  /// circuit under kPhotonicRepair) and the reconfiguration delay.
  struct BucketCollective {
    std::size_t members{0};
    Bandwidth rate;
    Duration reconfig{Duration::zero()};

    /// Equal inputs, the rate and the delay compared bit for bit.
    [[nodiscard]] bool same_as(const BucketCollective& o) const;
  };

  void establish_ring();
  [[nodiscard]] BucketCollective bucket_collective() const;
  /// The live members as collective ids (wafer-major tile numbering).
  [[nodiscard]] std::vector<topo::TpuId> member_ids() const;
  /// Re-picks the bucket AllReduce and re-derives its costs and the
  /// iteration timeline from the live ring, unless its inputs equal the
  /// last derivation's.
  void rebuild_costs();
  EventOutcome recover_photonic(RunReport& report);
  /// `assume_dead` forces the dead-endpoint flags onto the victim edges even
  /// though the diagnosis is healthy — the naive controller misclassifying a
  /// flapping member as chip death (the member genuinely leaves the ring).
  [[nodiscard]] Duration recover_dead_member(std::size_t i, RunReport& report,
                                             bool& removed, bool assume_dead = false);
  [[nodiscard]] Duration shrink_ring(std::size_t i, RunReport& report);
  /// Plays one gray episode arriving at `t0` to completion: dip stalls,
  /// per-dip controller response (thrash or dampening), misclassification,
  /// and the BER-burst rider.
  EventOutcome play_gray_episode(Duration t0, Rng& gray_stream, RunReport& report);

  RunConfig config_;
  fabric::Fabric fab_;
  fault::FaultInjector injector_;
  /// Fault overlays, diagnosis, the repair cache and the flap damper.
  FaultPlane plane_;
  /// members_[e] -> members_[(e+1) % n] is circuits_[e].
  std::vector<fabric::GlobalTile> members_;
  std::vector<fabric::CircuitId> circuits_;
  /// Picks the bucket-AllReduce schedule whenever the derivation inputs
  /// move: ring vs tree vs halving-doubling, re-decided as the member count
  /// and the ring rate degrade (the fabric epoch keys its decision cache).
  coll::Autotuner tuner_;
  coll::Algorithm bucket_algo_{coll::Algorithm::kRing};
  BucketCosts bucket_costs_;
  /// One iteration at bucket_costs_.
  core::IterationTimeline timeline_;
  /// The inputs of the last derivation; empty before the first.
  std::optional<BucketCollective> costs_inputs_;
  /// The fabric epoch of the last rebuild_costs, and whether the run has
  /// rewritten its ring since: run() checks the inputs only when one moved.
  /// The inputs read the members and each ring circuit's bandwidth, which
  /// move only with the ring or with a commit, and every commit moves the
  /// epoch (DESIGN §7).
  std::uint64_t costs_epoch_{0};
  bool ring_changed_{false};
  /// Spare candidates for a dead member's in-edge respare, refilled per
  /// recovery (routing::free_tiles); the ladder reads them in place.
  std::vector<fabric::GlobalTile> spares_;
  /// Naive mode: dips observed per component, driving misclassification.
  std::map<std::uint64_t, std::uint32_t> dips_seen_;
};

/// MTBF sweep: photonic vs electrical goodput, aggregated over trials.
struct ResilienceSweepConfig {
  RunConfig base{};
  std::vector<double> mtbf_points{0.25, 0.5, 1.0, 2.0, 4.0};
  std::uint32_t trials{8};
  /// 0 consults LIGHTPATH_THREADS (util::env_threads), then falls back to
  /// the shared pool.  The report is bit-identical for every value.
  unsigned threads{0};
};

struct MtbfPointReport {
  double mtbf_hours{0.0};
  RunPolicy policy{RunPolicy::kPhotonicRepair};
  std::uint32_t trials{0};
  double goodput_mean{0.0};
  double goodput_min{1.0};
  double goodput_max{0.0};
  double lost_redo_seconds{0.0};       ///< mean per trial
  double lost_detection_seconds{0.0};  ///< mean per trial
  double lost_recovery_seconds{0.0};   ///< mean per trial
  double recover_p50_seconds{0.0};
  double recover_p99_seconds{0.0};
  std::uint64_t fault_events{0};
  std::uint64_t detections{0};
  std::uint64_t rollbacks{0};
  std::uint64_t elastic_shrinks{0};
  std::uint64_t migrations{0};
  /// Gray-failure counters (zero unless base.flap_rate_per_hour > 0): kept
  /// in the artifact so flap behavior is tracked over time alongside the
  /// fail-stop columns instead of conflated into "unrecovered".
  std::uint64_t transient_repair_failures{0};
  std::uint64_t suppressed_repairs{0};
  std::uint64_t quarantines{0};
  std::array<std::uint64_t, routing::kRepairRungCount> recovered_by{};
};

struct ResilienceSweepReport {
  /// One entry per (mtbf point x policy), photonic first within each point.
  std::vector<MtbfPointReport> points;
};

/// Deterministic parallel sweep over (mtbf x policy x trial).  Trial
/// (p, policy, t) runs with seed task_seed(base.seed, flat index), results
/// fold in ascending flat-index order: bit-identical at any thread count.
[[nodiscard]] ResilienceSweepReport run_resilience_sweep(
    const ResilienceSweepConfig& config = {});

// ---------------------------------------------------------------------------
// Gray-failure sweep: hysteresis+backoff vs naive repair-on-every-transition.
// ---------------------------------------------------------------------------

struct GraySweepConfig {
  /// Policy is forced to kPhotonicRepair; flap_rate_per_hour and
  /// gray_hysteresis are overwritten per point/arm.
  RunConfig base{};
  std::vector<double> flap_rates_per_hour{1.0, 2.0, 4.0, 8.0, 16.0};
  std::uint32_t trials{4};
  /// 0 consults LIGHTPATH_THREADS (util::env_threads), then falls back to
  /// the shared pool.  The report is bit-identical for every value.
  unsigned threads{0};
};

struct GrayPointReport {
  double flap_rate_per_hour{0.0};
  bool hysteresis{false};
  std::uint32_t trials{0};
  double goodput_mean{0.0};
  double goodput_min{1.0};
  double goodput_max{0.0};
  /// Counters summed over trials.
  std::uint64_t flap_episodes{0};
  std::uint64_t flap_transitions{0};
  std::uint64_t flap_repairs{0};
  std::uint64_t suppressed_repairs{0};
  std::uint64_t quarantines{0};
  std::uint64_t probations{0};
  std::uint64_t relapses{0};
  std::uint64_t misclassifications{0};
  std::uint64_t rollbacks{0};
  std::uint64_t transient_repair_failures{0};
  std::uint64_t ber_bursts{0};
  double flap_stall_seconds{0.0};
  double ber_slowdown_seconds{0.0};
};

struct GraySweepReport {
  /// One entry per (flap rate x arm), hysteresis first within each rate.
  std::vector<GrayPointReport> points;

  /// Order-sensitive fold of every field — the bit-identity witness for the
  /// 1/2/8-thread determinism check.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Deterministic parallel sweep over (flap rate x arm x trial).  Both arms
/// of a (rate, trial) pair share seed task_seed(base.seed, p * trials +
/// trial), so hysteresis and naive face the identical episode timeline — a
/// paired comparison.  Results fold in ascending flat-index order:
/// bit-identical at any thread count.
[[nodiscard]] GraySweepReport run_gray_sweep(const GraySweepConfig& config = {});

}  // namespace lp::runtime
