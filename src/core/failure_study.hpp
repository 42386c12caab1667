// Monte-Carlo failure injection and availability accounting.
//
// Extends §4.2 from a single-failure argument to a fleet-level study: chips
// fail as a Poisson process (per-chip MTBF), each failure is handled by one
// of the recovery policies, and the cost is accounted as chip-hours lost —
// blast-radius chips idle for the recovery time.  The availability bench
// shows how the rack-migration policy's 64-chip x minutes blast radius
// compounds at scale while optical repair's 4-chip x microseconds cost
// vanishes.
//
// The study is a deterministic parallel sweep (util/parallel): failure
// times come from one serial stream seeded by `seed`, each trial draws its
// victim from `task_seed(seed, trial)`, and trials are evaluated in
// parallel against per-worker template racks that are reset between trials
// instead of reconstructed.  Results are identical at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/blast_radius.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "routing/repair.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lp::core {

struct FailureStudyParams {
  /// Per-chip mean time between failures.
  double mtbf_hours{50000.0};
  /// Simulated horizon.
  double horizon_hours{24.0 * 90.0};
  /// Chips in the fleet (64 racks x 64 chips by default).
  std::int32_t fleet_chips{4096};
  std::uint64_t seed{0xfa11};
  FailureImpactParams impact{};
  /// Worker threads for trial evaluation.  0 consults LIGHTPATH_THREADS
  /// (util::env_threads), then the shared pool.  The report is
  /// bit-identical for every value.
  unsigned threads{0};
};

struct AvailabilityReport {
  FailurePolicy policy{};
  std::uint64_t failures{0};
  /// Failures the policy could not handle in place (fell back to migration):
  /// the total, and its split by cause.
  std::uint64_t unrecovered{0};
  std::uint64_t unrecovered_spare_exhausted{0};
  std::uint64_t unrecovered_plan_failure{0};
  double chip_hours_lost{0.0};
  /// 1 - lost / (fleet_chips * horizon).
  double availability{1.0};
};

/// Builds the representative packed rack every failure study assesses
/// against (the Figure 5 packing with one free region): Slice-4 (4x4x2),
/// Slice-3 (4x4x1), Slice-1 (4x2x1) on rack 0, leaving the 4x2x1 region at
/// y in {2,3}, z=3 as the spare pool.
void pack_template_rack(topo::SliceAllocator& alloc, topo::RackId rack = 0);

/// Assesses one hypothetical failure per victim against the template rack,
/// in parallel (`threads` as in FailureStudyParams).  Each worker builds
/// the template cluster/allocation (and, for optical repair, the photonic
/// rack fabric) once and resets it between trials, so the per-trial cost is
/// the assessment itself.  Trials are independent; `impacts[i]` corresponds
/// to `victims[i]` regardless of scheduling.
[[nodiscard]] std::vector<FailureImpact> assess_failures_batch(
    FailurePolicy policy, const std::vector<topo::TpuId>& victims,
    const FailureImpactParams& params = {}, unsigned threads = 0);

/// Runs the study for one policy.  Each failure is assessed against a
/// fresh, representatively packed rack (the Figure 5 packing with one free
/// region), so failures are independent — a deliberate simplification that
/// isolates the per-failure cost difference between policies.
[[nodiscard]] AvailabilityReport run_failure_study(FailurePolicy policy,
                                                   const FailureStudyParams& params = {});

// ---------------------------------------------------------------------------
// Component-level fault Monte-Carlo (fault/ + the repair ladder).
//
// Where run_failure_study kills whole chips, this study injects typed
// component faults (stuck/drifted MZIs, waveguide loss drift, fiber cuts,
// dead lasers, chip deaths — including correlated per-wafer bursts) into a
// live two-wafer fabric carrying a baseline circuit load, detects degraded
// circuits with the health monitor, and recovers each one by climbing the
// repair ladder.  It reports per-rung recovery counts and the availability
// implied by each rung's blast radius and recovery latency.
// ---------------------------------------------------------------------------

struct ComponentStudyParams {
  /// Per-chip mean time between *component* faults (more frequent than the
  /// whole-chip MTBF of the chip-death study).
  double component_mtbf_hours{25000.0};
  double horizon_hours{24.0 * 90.0};
  std::int32_t fleet_chips{4096};
  std::uint64_t seed{0xc0fa};
  fault::FaultModelParams model{};
  fault::HealthMonitorParams health{};
  /// Probability that the electrical torus has a congestion-free detour
  /// when rung 4 is consulted (usually low, per Figure 6).
  double electrical_feasible_p{0.1};
  std::uint32_t retries_per_rung{2};
  /// Probability that one programming attempt fails transiently (MZI settle
  /// timeout — fault/gray.hpp) and is retried with backoff.  0 keeps the
  /// legacy fail-stop behavior bit-identical.
  double settle_failure_probability{0.0};
  /// Backoff between transient retries (seed is re-derived per trial).
  routing::RetryBackoff backoff{};
  /// Chips idled while each rung's recovery runs (index = rung): the
  /// optical rungs touch the failed chip's server, the electrical detour
  /// only the endpoints, migration the whole rack.
  std::array<std::int32_t, routing::kRepairRungCount> rung_blast_chips{
      {4, 4, 4, 2, 64}};
  /// Worker threads.  0 consults LIGHTPATH_THREADS (util::env_threads),
  /// then the shared pool.  The report is bit-identical for every value.
  unsigned threads{0};
};

struct ComponentAvailabilityReport {
  /// Poisson fault events over the horizon (= Monte-Carlo trials).
  std::uint64_t fault_events{0};
  /// Components faulted, counting correlated burst extras.
  std::uint64_t faults_injected{0};
  /// Trials whose event was a correlated multi-component burst.
  std::uint64_t bursts{0};
  /// Circuits the health monitor flagged (degraded or down).
  std::uint64_t degraded_circuits{0};
  /// Subset that were hard down (no light at the receiver).
  std::uint64_t hard_down_circuits{0};
  /// Recoveries by the rung that achieved them (index = rung).
  std::array<std::uint64_t, routing::kRepairRungCount> recovered_by{};
  /// Total attempts per rung, including successful ones.
  std::array<std::uint64_t, routing::kRepairRungCount> attempts{};
  std::uint64_t unrecovered{0};
  /// Subset of `unrecovered` that failed transiently (every retry hit a
  /// settle timeout): the circuit is still established and a later climb
  /// would likely succeed — a different cause than plan failure, and
  /// reported separately so artifacts do not conflate the two.
  std::uint64_t unrecovered_transient{0};
  /// Individual programming attempts that failed transiently and were
  /// retried with backoff.
  std::uint64_t transient_repair_failures{0};
  double chip_hours_lost{0.0};
  /// Total wall-clock recovery time across all repairs.
  double recovery_seconds_total{0.0};
  double availability{1.0};
};

/// Runs the component-fault study.  Deterministic parallel sweep: the
/// arrival count comes from one serial stream, trial i draws everything
/// (faults, electrical feasibility) from Rng{task_seed(seed, i)}, and
/// per-trial results fold in trial order — bit-identical at any `threads`.
[[nodiscard]] ComponentAvailabilityReport run_component_fault_study(
    const ComponentStudyParams& params = {});

}  // namespace lp::core
