// Bounded-timeout recovery driver for the repair ladder.
//
// The runtime layer cannot hand routing::escalate_repair an unlimited clock:
// a training run stalls while the controller climbs, so each climb gets a
// wall-clock budget and budget exhaustion triggers exponential backoff — a
// bigger budget on the next try — rather than an immediate fall-through to
// rack migration.  drive_recovery() owns that retry loop.  It is strictly
// optical: it forces the electrical-detour rung infeasible and treats a
// rung-5 landing as "the ladder is out of optical ideas" (fell_through),
// which the caller resolves with elastic degradation (training_run) instead
// of a migration charge.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "routing/repair.hpp"
#include "util/units.hpp"

namespace lp::runtime {

struct RecoveryPolicy {
  /// Liveness heartbeat period: a fault is noticed at the first heartbeat
  /// tick at or after it strikes.
  Duration heartbeat_interval{Duration::millis(5.0)};
  /// Controller time from the missed/alarming heartbeat to a diagnosis the
  /// ladder can act on.
  Duration detection_latency{Duration::micros(100.0)};
  /// Wall-clock budget of the first climb.
  Duration initial_budget{Duration::micros(50.0)};
  /// Budget (and backoff wait) multiplier between climbs.
  double backoff_factor{4.0};
  /// Idle wait charged between a budget-exhausted climb and the next one.
  Duration backoff_base{Duration::micros(25.0)};
  /// Bounded climbs before the final unbounded one.
  std::uint32_t max_attempts{3};
  /// Per-rung retry bound handed to the ladder.
  std::uint32_t retries_per_rung{2};
  /// Intra-rung retry wait schedule handed to the ladder.  Each climb gets
  /// its own deterministic jitter stream (seed salted with the climb index
  /// via util::task_seed), so retries de-synchronize across climbs without
  /// any nondeterminism.  Default: no intra-rung waits (pre-gray behavior).
  routing::RetryBackoff rung_backoff{};
  /// Per-rung wall-clock cap handed to the ladder; zero means none.
  Duration rung_timeout{Duration::zero()};

  /// The heartbeat model every simulator charges: a fault striking at
  /// `strike` is noticed at the first heartbeat tick at or after it and
  /// diagnosed detection_latency later.  Returns that absolute time,
  /// ceil(strike / hb) * hb + detection_latency.
  [[nodiscard]] Duration detected_at(Duration strike) const;

  friend bool operator==(const RecoveryPolicy&, const RecoveryPolicy&) = default;
};

struct RecoveryResult {
  /// The victim's traffic is back on optical circuits (rung 1-3).
  bool recovered{false};
  /// Every optical rung was exhausted (the ladder landed on rung 5, which
  /// drive_recovery charges nothing for); the victim circuit is gone and the
  /// caller must degrade or migrate.
  bool fell_through{false};
  /// escalate_repair could not even start (victim id names no circuit).
  bool plan_failure{false};
  /// Even the final unbounded climb ended in transient failures (gray
  /// faults; see EscalationOptions::transient_failure).  The victim circuit
  /// is still established — the caller should wait out the disturbance and
  /// drive recovery again rather than degrade.
  bool transient_failed{false};
  /// Transiently failed ladder attempts summed over all climbs.
  std::uint32_t transient_failures{0};
  routing::RepairRung rung{routing::RepairRung::kRackMigration};
  /// Circuits carrying the traffic after an optical recovery (see
  /// EscalationOutcome::circuits).
  std::vector<fabric::CircuitId> circuits;
  /// Climbs driven, including the successful/final one.
  std::uint32_t climbs{0};
  /// Ladder attempts per rung summed over all climbs.
  std::array<std::uint32_t, routing::kRepairRungCount> rung_attempts{};
  /// Wall clock spent inside the ladder (probes + programming + settles,
  /// intra-rung backoff waits included).
  Duration repair_latency{Duration::zero()};
  /// Wall clock spent waiting *between* climbs (the ladder's own intra-rung
  /// waits are inside repair_latency).
  Duration backoff_latency{Duration::zero()};

  [[nodiscard]] Duration total() const { return repair_latency + backoff_latency; }
};

/// Drives escalate_repair for one victim under the policy's bounded-timeout
/// schedule: climb with initial_budget, and on budget exhaustion wait
/// backoff, multiply both by backoff_factor, and climb again (the fabric is
/// untouched by an exhausted climb, so a retry meets the same rungs — one
/// RerouteMemo replays rung 2's probes across the climbs, and their wall
/// clock is charged as if re-probed).  After max_attempts bounded climbs one
/// unbounded climb settles the matter.  `base` carries the caller's route
/// options, spare candidates, and validate hook; the driver copies it once
/// and overwrites its budget, retries, backoff, and electrical/migration
/// knobs.  The spare list `base` views must outlive the call.
[[nodiscard]] RecoveryResult drive_recovery(fabric::Fabric& fab,
                                            const routing::DegradedCircuit& victim,
                                            const RecoveryPolicy& policy,
                                            const routing::EscalationOptions& base = {});

}  // namespace lp::runtime
