// Cluster-scale multi-tenant scheduler with photonic slice morphing.
//
// PR 5's TrainingRun plays the §4.2 blast-radius argument for ONE job on
// one server pair.  This module lifts it to the full TpuCluster (§4.1's 64
// racks x 4x4x4 tori): an online, event-driven scheduler admits a Poisson
// stream of heterogeneous slice jobs while components fail continuously
// underneath, with correlated failure domains (chip, server, rack-power
// burst — fault::BurstDomain).  Each in-flight job climbs a cluster-level
// recovery escalation that composes the existing rungs, in blast-radius
// order:
//
//   1. in-place optical repair   runtime::drive_recovery prices the repair
//                                ladder (retune/reroute/respare) against a
//                                pricing fabric; component faults cost
//                                microseconds and lose no state;
//   2. spare-pool respare        a dead chip is replaced by a free chip of
//                                the same rack; the slice becomes a chip
//                                set (checkpoint rollback);
//   3. photonic slice morphing   Morphlux: the logical torus is re-stitched
//                                across non-contiguous healthy chips
//                                harvested anywhere in the cluster, spliced
//                                into a ring by optical circuits planned
//                                through the PlanCache'd planner and OCS
//                                port pairs; an aborted morph rolls back
//                                exactly (chips, ports, circuits);
//   4. elastic shrink            survivors >= shrink_min_fraction continue
//                                at reduced rate;
//   5. requeue                   checkpoint rollback; > max_requeues
//                                aborts the job.
//
// The electrical-only baseline (§4.2's [60]-style fabric) is limited to
// rack-granularity migration: ANY fault that touches a job — component
// faults included, the blast-radius point — drains it and restarts on a
// fresh contiguous slice (migration_latency + redo), or requeues when no
// rack fits.  It cannot place non-contiguous jobs at all, so fragmentation
// rejects work the photonic policy morphs in.
//
// Determinism contract: one run is serial on sim::EventEngine and every
// draw comes from Rng{task_seed(seed, stream)} — the report is a pure
// function of the params.  run_cluster_sweep parallelizes (mtbf x policy x
// trial) with per-task seeds (both policies of a pair share one seed, a
// paired comparison) and folds ascending: bit-identical at any thread
// count, LIGHTPATH_THREADS included.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "cluster/admission.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/repair.hpp"
#include "runtime/recovery.hpp"
#include "runtime/training_run.hpp"
#include "sim/event_engine.hpp"
#include "topo/cluster.hpp"
#include "topo/ocs.hpp"
#include "topo/slice.hpp"
#include "util/units.hpp"

namespace lp::cluster {

enum class SchedulerPolicy : std::uint8_t {
  kPhotonicMorph = 0,
  kElectricalOnly = 1,
};

[[nodiscard]] constexpr const char* to_string(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::kPhotonicMorph: return "photonic morph";
    case SchedulerPolicy::kElectricalOnly: return "electrical only";
  }
  return "?";
}

/// Correlated failure domain of one cluster fault event (the cluster-side
/// image of fault::BurstDomain).
enum class FaultDomain : std::uint8_t {
  kChip = 0,       ///< one chip (or one component on it)
  kServer = 1,     ///< a whole 4-chip server tray
  kRackPower = 2,  ///< consecutive servers of one rack lose power
};

[[nodiscard]] constexpr const char* to_string(FaultDomain d) {
  switch (d) {
    case FaultDomain::kChip: return "chip";
    case FaultDomain::kServer: return "server";
    case FaultDomain::kRackPower: return "rack-power";
  }
  return "?";
}

/// One entry of the tenant mix: a slice shape and its draw weight.
struct ShapeMix {
  topo::Shape shape{};
  double weight{1.0};
};

/// A job injected at a scripted time instead of drawn from the Poisson
/// stream — the decision-boundary tests script exact workloads.
struct ScriptedJob {
  Duration at{Duration::zero()};
  topo::Shape shape{{2, 2, 1}};
  Duration service{Duration::seconds(60.0)};
};

/// A fault injected at a scripted time instead of drawn from the Poisson
/// process — the morph-vs-shrink boundary tests script exact timelines.
struct ScriptedClusterFault {
  Duration at{Duration::zero()};
  FaultDomain domain{FaultDomain::kChip};
  /// Anchor chip: the victim for kChip, a chip of the victim server for
  /// kServer, a chip of the first victim server for kRackPower.
  topo::TpuId anchor{0};
  /// Component kind; kChipDeath makes a kChip event fatal (server and
  /// rack-power events are always fatal for every covered chip).
  fault::FaultKind kind{fault::FaultKind::kChipDeath};
  /// Victim servers for kRackPower (consecutive from the anchor's server).
  std::int32_t servers{2};
};

struct ClusterParams {
  SchedulerPolicy policy{SchedulerPolicy::kPhotonicMorph};
  topo::ClusterConfig cluster{};
  /// Poisson job arrival rate; arrivals stop at `horizon`.
  double arrival_rate_per_s{2.0};
  /// Tenant mix; empty uses the default (2x2x1 w4, 4x2x1 w3, 4x4x1 w2,
  /// 4x4x2 w1, 4x4x4 w0.5 — small slices common, rack-scale rare).
  std::vector<ShapeMix> mix{};
  /// Service demand: max(service_min, Exp(mean = service_mean)).
  Duration service_mean{Duration::seconds(90.0)};
  Duration service_min{Duration::seconds(10.0)};
  Duration horizon{Duration::seconds(240.0)};
  /// Extra time after `horizon` for in-flight jobs to finish (no new
  /// arrivals or faults); the run ends at horizon + drain.
  Duration drain{Duration::seconds(360.0)};
  /// Checkpoints every this much *work progress*; rollback replays from the
  /// last one.
  Duration checkpoint_interval{Duration::seconds(30.0)};
  std::uint32_t max_requeues{3};
  /// Per-chip component MTBF (accelerated, as in runtime::RunConfig).
  double mtbf_hours{2.0};
  fault::FaultModelParams fault_model{};
  runtime::RecoveryPolicy recovery{};
  /// Gray (flap) events per chip-hour: a chip's optical backbone dips
  /// without dying (0 disables the layer; the pre-gray report is
  /// bit-identical).  Naive treats every flap as a component fault and pays
  /// a detection + in-place-repair stall; with gray_hysteresis the
  /// FlapDamper quarantines repeat flappers — a flap that leaves its chip
  /// quarantined is ridden out (FlapDamper::ride_out), and harvest/respare
  /// defer morphing onto chips still in quarantine or probation until the
  /// probation hold completes cleanly.
  double flap_rate_per_hour{0.0};
  /// Gray events concentrate on this many chips (evenly strided across the
  /// cluster): empirically a small fixed population of marginal components
  /// produces most flaps.  flap_rate_per_hour is per *flapping* chip.
  /// 0 spreads flaps uniformly over every chip instead.
  std::uint32_t flappy_chips{8};
  bool gray_hysteresis{true};
  fault::FlapDamperParams damper{};
  /// Rack-granularity migration charge (electrical baseline).
  Duration migration_latency{Duration::seconds(600.0)};
  /// Elastic shrink floor: survivors below this fraction of the original
  /// volume requeue instead of shrinking.
  double shrink_min_fraction{0.5};
  bool morph_enabled{true};
  /// Per-morph bandwidth penalty: a job's progress rate is multiplied by
  /// this for every morph it absorbs (stitched rings run slower than the
  /// native torus).
  double morph_bandwidth_factor{0.85};
  std::uint32_t morph_wavelengths{1};
  /// Harvest cap: a morph spanning more fragments than this fails (each
  /// fragment costs an OCS port pair and a stitch circuit).
  std::uint32_t max_fragments{8};
  topo::OcsParams ocs{};
  std::uint32_t ocs_switches{16};
  /// Wafers of the pricing fabric morph/repair circuits are planned on.
  std::uint32_t fabric_wafers{4};
  std::uint64_t seed{0xc105};
  /// Non-empty replaces the Poisson fault timeline entirely.
  std::vector<ScriptedClusterFault> script{};
  /// Non-empty replaces the Poisson arrival stream entirely.
  std::vector<ScriptedJob> job_script{};
};

struct ClusterReport {
  SchedulerPolicy policy{SchedulerPolicy::kPhotonicMorph};
  // --- job flow ---
  std::uint64_t offered{0};    ///< arrivals
  std::uint64_t admitted{0};   ///< first placements
  std::uint64_t completed{0};
  std::uint64_t unserved{0};   ///< still queued/running at the end
  std::uint64_t aborted{0};    ///< exceeded max_requeues
  std::uint64_t requeues{0};
  std::uint64_t placed_contiguous{0};
  std::uint64_t placed_morphed{0};
  // --- fault flow ---
  std::uint64_t fault_events{0};
  std::uint64_t fatal_chip_failures{0};
  std::uint64_t component_events{0};
  std::uint64_t detections{0};  ///< events that touched a running job
  // --- gray-failure flow (all zero when flap_rate_per_hour == 0) ---
  std::uint64_t flap_events{0};
  /// Flaps answered with a component-repair stall (the naive arm's cost,
  /// and the dampened arm's pre-quarantine thrash).
  std::uint64_t flap_repairs{0};
  /// Flaps ridden out on an already-quarantined chip (damper-suppressed);
  /// the flap that trips quarantine is counted in chip_quarantines.
  std::uint64_t suppressed_repairs{0};
  std::uint64_t chip_quarantines{0};
  std::uint64_t chip_probations{0};
  /// Free chips harvest/respare skipped because the damper still held them
  /// in quarantine or probation — morphs deferred off flapping hardware.
  std::uint64_t morph_deferrals{0};
  // --- recovery escalation histogram ---
  std::uint64_t inplace_repairs{0};
  std::uint64_t respares{0};
  std::uint64_t morphs{0};
  std::uint64_t morph_aborts{0};
  std::uint64_t elastic_shrinks{0};
  std::uint64_t migrations{0};
  std::uint64_t migration_failures{0};
  std::array<std::uint64_t, routing::kRepairRungCount> recovered_by{};
  // --- work accounting ---
  double offered_work_chip_seconds{0.0};
  double completed_work_chip_seconds{0.0};
  runtime::LostWork lost{};
  // --- queueing / fragmentation ---
  double queue_delay_mean_s{0.0};
  double queue_delay_p50_s{0.0};
  double queue_delay_p99_s{0.0};
  /// Time-averaged FragmentationReport::stranding().
  double frag_stranding_avg{0.0};
  /// Time-averaged allocated-chip fraction.
  double utilization_avg{0.0};
  std::uint32_t peak_running{0};
  Duration makespan{Duration::zero()};
  /// Outcome digest: completion stream, final chip states, fabric ledger,
  /// OCS occupancy, work totals.  Deliberately EXCLUDES attempt/abort
  /// diagnostics (morph_aborts, migration_failures), so an exactly
  /// rolled-back attempt leaves it unchanged — the rollback tests compare
  /// digests across runs that differ only in aborted attempts.
  std::uint64_t digest{0};

  /// Fraction of offered work (chip-seconds) the cluster completed.
  [[nodiscard]] double accepted_load() const {
    return offered_work_chip_seconds <= 0.0
               ? 1.0
               : completed_work_chip_seconds / offered_work_chip_seconds;
  }
  /// Useful work delivered per chip-second of capacity over the makespan.
  [[nodiscard]] double goodput(std::int32_t chip_count) const {
    const double cap = static_cast<double>(chip_count) * makespan.to_seconds();
    return cap <= 0.0 ? 0.0 : completed_work_chip_seconds / cap;
  }
};

/// One simulated cluster run.  Construct, run() once; accessors expose the
/// final world for tests.
class ClusterScheduler {
 public:
  explicit ClusterScheduler(const ClusterParams& params = {});

  [[nodiscard]] ClusterReport run();

  [[nodiscard]] const ClusterParams& params() const { return params_; }
  [[nodiscard]] const topo::TpuCluster& cluster() const { return cluster_; }
  [[nodiscard]] const topo::SliceAllocator& allocator() const { return alloc_; }
  [[nodiscard]] const topo::OcsBank& ocs() const { return ocs_; }
  [[nodiscard]] const fabric::Fabric& fabric() const { return fab_; }

 private:
  struct Job {
    std::uint64_t id{0};
    topo::Shape shape{};
    Duration service{Duration::zero()};
    TimePoint arrival{};
    TimePoint started{};        ///< last (re)start of progress
    Duration progress{Duration::zero()};
    Duration checkpointed{Duration::zero()};
    double rate{1.0};
    std::uint32_t generation{0};
    std::uint32_t requeues{0};
    std::uint32_t morphs{0};
    bool running{false};
    bool ever_placed{false};
    bool morphed{false};        ///< chip-set placement (no slice)
    topo::SliceId slice{-1};
    std::vector<topo::TpuId> chips;
    std::vector<fabric::CircuitId> stitch_circuits;
    std::uint32_t ocs_ports{0};
    std::int32_t original_volume{0};
  };

  /// One harvested fragment of a morph: free chips taken from one rack.
  struct Fragment {
    topo::RackId rack{0};
    std::vector<topo::TpuId> chips;
  };

  struct FaultEvent {
    FaultDomain domain{FaultDomain::kChip};
    fault::FaultKind kind{fault::FaultKind::kChipDeath};
    bool fatal{false};
    std::vector<topo::TpuId> victims;  ///< ascending, unique
  };

  // --- event handlers ---
  void on_arrival();
  void on_scripted_arrival(std::size_t index);
  void admit_new_job(topo::Shape shape, Duration service);
  void on_fault(const ScriptedClusterFault& s);
  void on_gray();
  void on_completion(std::uint64_t id, std::uint32_t generation);

  // --- placement / admission ---
  void try_admit();
  [[nodiscard]] bool place_contiguous(Job& job);
  [[nodiscard]] std::vector<Fragment> harvest(std::int32_t volume);
  void unharvest(const std::vector<Fragment>& fragments);
  [[nodiscard]] std::vector<routing::Demand> stitch_demands(
      const std::vector<Fragment>& fragments);
  void take_chips(Job& job, const std::vector<Fragment>& fragments);
  void release_placement(Job& job);
  void start_job(Job& job, TimePoint at);

  // --- fault response ---
  /// Draws one Poisson fault in scripted form: the sampled burst domain,
  /// a uniform anchor chip, and the rack-power span in servers.
  [[nodiscard]] ScriptedClusterFault draw_fault();
  /// Expands a fault to its victim chips (ascending, unique).
  [[nodiscard]] FaultEvent fault_event(const ScriptedClusterFault& s) const;
  void apply_fault(const FaultEvent& ev);
  void recover_photonic(Job& job, const FaultEvent& ev,
                        const std::vector<topo::TpuId>& dead, Duration detect);
  void recover_electrical(Job& job, const std::vector<topo::TpuId>& dead,
                          Duration detect);
  [[nodiscard]] bool respare(Job& job, const std::vector<topo::TpuId>& dead);
  [[nodiscard]] bool morph(Job& job, const std::vector<topo::TpuId>& dead);
  void shrink(Job& job, const std::vector<topo::TpuId>& dead);
  void requeue(Job& job);
  /// Prices one optical recovery on the pricing fabric via a probe circuit
  /// + drive_recovery; returns the wall clock charged (and updates
  /// recovered_by).  `flags_kind` selects the synthetic degradation.
  [[nodiscard]] Duration price_recovery(fault::FaultKind flags_kind, bool fatal);

  // --- bookkeeping ---
  /// The job's chips that are not in `dead` (ascending, like both inputs).
  [[nodiscard]] static std::vector<topo::TpuId> survivors_of(
      const Job& job, const std::vector<topo::TpuId>& dead);
  /// Progress rate after morphs/shrinks: morph_bandwidth_factor per morph,
  /// scaled by the surviving fraction of the original volume.
  void set_degraded_rate(Job& job) const;
  /// Banks the progress made since job.started (capped at the service
  /// demand) and moves the checkpoint to the last interval boundary below.
  void bank_progress(Job& job, TimePoint at) const;
  void stall_and_resume(Job& job, Duration stall, bool state_loss, TimePoint at);
  void accumulate_metrics(TimePoint to);
  void mark_rack_dirty(topo::RackId rack);
  void refresh_racks();
  /// Whether harvest/respare may take this chip now: false while the flap
  /// damper holds it in quarantine or probation (gray layer on only).
  [[nodiscard]] bool chip_usable(topo::TpuId chip);
  /// Chips gray events land on (flappy_chips, or every chip when 0).
  [[nodiscard]] std::uint64_t flapping_population() const;
  [[nodiscard]] fabric::GlobalTile cursor_tile(fabric::WaferId wafer);
  void fold_digest(std::uint64_t v);

  ClusterParams params_;
  topo::TpuCluster cluster_;
  topo::SliceAllocator alloc_;
  topo::OcsBank ocs_;
  fabric::Fabric fab_;
  fault::FaultInjector injector_;
  routing::PlanCache cache_;
  sim::EventEngine engine_;

  // RNG streams (task_seed(seed, n)): 0 arrivals, 1 job attributes,
  // 2 fault clock, 3 fault bodies, 4 victim anchors, 5 gray clock,
  // 6 gray victims.
  Rng arrivals_;
  Rng attrs_;
  Rng fault_clock_;
  Rng fault_body_;
  Rng victims_;
  Rng gray_clock_;
  Rng gray_victims_;
  fault::FlapDamper damper_;

  /// Live jobs by id.  Nothing iterates it, so its order cannot reach a
  /// report.
  std::unordered_map<std::uint64_t, Job> jobs_;
  AdmissionQueue queue_;
  std::vector<std::int64_t> chip_owner_;  ///< -1 = none
  std::vector<topo::TpuId> picks_;        ///< harvest's dry-run picks
  std::uint64_t next_job_id_{0};
  std::uint32_t running_{0};

  // Per-rack largest-placeable cache for the stranding metric, recomputed
  // lazily for racks whose chips changed state (free counts are the
  // cluster's own).
  std::vector<std::int32_t> rack_largest_;
  std::set<topo::RackId> dirty_racks_;
  std::int32_t placeable_sum_{0};

  std::array<std::uint32_t, 64> tile_cursor_{};  ///< per-wafer stitch tiles
  TimePoint metrics_at_{};
  double frag_integral_{0.0};
  double util_integral_{0.0};
  std::vector<double> queue_delays_;
  ClusterReport report_;
};

/// Convenience wrapper: one run from params.
[[nodiscard]] ClusterReport run_cluster(const ClusterParams& params = {});

// ---------------------------------------------------------------------------
// MTBF sweep: photonic morph vs electrical-only accepted load.
// ---------------------------------------------------------------------------

struct ClusterSweepConfig {
  ClusterParams base{};
  std::vector<double> mtbf_points{0.5, 1.0, 2.0, 4.0, 8.0};
  std::uint32_t trials{2};
  /// 0 consults LIGHTPATH_THREADS (util::env_threads), then the shared
  /// pool.  The report is bit-identical for every value.
  unsigned threads{0};
};

struct ClusterPointReport {
  double mtbf_hours{0.0};
  SchedulerPolicy policy{SchedulerPolicy::kPhotonicMorph};
  std::uint32_t trials{0};
  double accepted_load_mean{0.0};
  double goodput_mean{0.0};
  double queue_delay_p50_s{0.0};  ///< mean of per-trial p50
  double queue_delay_p99_s{0.0};  ///< mean of per-trial p99
  double frag_stranding_avg{0.0};
  double utilization_avg{0.0};
  std::uint64_t completed{0};
  std::uint64_t offered{0};
  std::uint64_t requeues{0};
  std::uint64_t aborted{0};
  std::uint64_t morphs{0};
  std::uint64_t elastic_shrinks{0};
  std::uint64_t migrations{0};
  std::uint64_t fault_events{0};
};

struct ClusterSweepReport {
  /// One entry per (mtbf point x policy), photonic first within each point.
  std::vector<ClusterPointReport> points;
  /// Fold of every trial's ClusterReport digest in ascending task order:
  /// one comparison certifies bit-identity across thread counts.
  std::uint64_t digest{0};
};

/// Deterministic parallel sweep over (mtbf x policy x trial).  Both
/// policies of a (point, trial) pair share seed task_seed(base.seed,
/// p * trials + trial) — a paired comparison against the identical fault
/// and arrival streams.  Results fold in ascending flat-index order:
/// bit-identical at any thread count.
[[nodiscard]] ClusterSweepReport run_cluster_sweep(
    const ClusterSweepConfig& config = {});

}  // namespace lp::cluster
