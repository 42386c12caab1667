// Optical fault repair (Figure 7).
//
// After a chip fails, its slice's rings are broken: the failed chip's ring
// neighbors have no one to exchange with.  The repair planner wires a spare
// chip into every broken ring with dedicated optical circuits — one per
// direction per neighbor — placed on non-overlapping waveguides (and, when
// the spare sits on another wafer, on separate fibers).  The result is a
// congestion-free repair whose blast radius is the failed chip's server,
// not the whole rack.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "lightpath/fabric.hpp"
#include "routing/planner.hpp"
#include "util/result.hpp"

namespace lp::routing {

class PlanCache;  // routing/plan_cache.hpp

struct RepairRequest {
  /// The spare chip's fabric tile.
  fabric::GlobalTile spare{};
  /// Tiles of the failed chip's ring neighbors that need reconnection.
  std::vector<fabric::GlobalTile> neighbors;
  /// Wavelengths per direction per neighbor (sets repaired-ring bandwidth).
  std::uint32_t wavelengths{1};
};

struct RepairPlan {
  /// Established circuits: neighbor->spare and spare->neighbor per neighbor.
  std::vector<fabric::CircuitId> circuits;
  /// Total time to program the repair (serial programming + settle).
  Duration reconfig_latency{Duration::zero()};
  /// Fibers consumed (0 when spare and neighbors share a wafer).
  std::uint32_t fibers_used{0};
  bool complete{false};
};

/// Plans and establishes the repair circuits on the fabric.  On partial
/// failure the already-established circuits are torn down and
/// complete=false is returned with reconfig_latency zero — nothing was
/// committed, so nothing is charged; the caller accounts its own probe
/// cost (escalate_repair charges one settle per failed optical attempt).
/// A spare or neighbor off the fabric gets the same incomplete plan before
/// anything is looked up or placed.
[[nodiscard]] RepairPlan repair_with_spare(fabric::Fabric& fab, const RepairRequest& req,
                                           const RouteOptions& options = {});

/// Fiber-minimizing spare selection (§5, "Minimizing fiber requirement for
/// fault tolerance"): among candidate spare tiles, pick the one whose
/// repair would consume the fewest fibers (same-wafer spares win), breaking
/// ties by total Manhattan distance to the neighbors (first candidate wins
/// an exact tie).  Candidates off the fabric are never picked.  Returns
/// the index into `candidates`, or an error if no candidate is on the
/// fabric.
[[nodiscard]] Result<std::size_t> choose_spare(
    const fabric::Fabric& fab, std::span<const fabric::GlobalTile> candidates,
    std::span<const fabric::GlobalTile> neighbors);

/// Refills `out` with every tile that has no endpoint wavelength in use,
/// wafer by wafer in tile order: the spare candidates of a fabric.  A dead
/// chip is never among them while an applied fault set parks its endpoint
/// wavelengths.  Reuses `out`'s capacity.
void free_tiles(const fabric::Fabric& fab, std::vector<fabric::GlobalTile>& out);

// ---------------------------------------------------------------------------
// Graceful-degradation repair ladder.
//
// Component faults (stuck MZIs, waveguide loss drift, fiber cuts, dead
// lasers, chip deaths — see src/fault/) degrade circuits piecewise instead
// of killing whole chips.  escalate_repair() recovers one degraded circuit
// by climbing rungs in order of blast radius, with bounded retries per rung
// and full rollback of partially established state on every failed attempt:
//
//   1. kRetune            re-lock the source onto healthy wavelengths
//   2. kReroute           make-before-break onto alternate waveguides/fibers
//   3. kRespare           re-plan against a different spare (choose_spare)
//   4. kElectricalDetour  fall back to the electrical torus
//   5. kRackMigration     drain the rack and restart elsewhere
//
// Rungs 1-3 stay in the optical domain (microseconds); 4-5 are the
// escalating electrical fallbacks (milliseconds / minutes).  The ladder
// always terminates: rung 5 cannot fail.
// ---------------------------------------------------------------------------

enum class RepairRung : std::uint8_t {
  kRetune = 0,
  kReroute = 1,
  kRespare = 2,
  kElectricalDetour = 3,
  kRackMigration = 4,
};

inline constexpr std::size_t kRepairRungCount = 5;

[[nodiscard]] constexpr const char* to_string(RepairRung r) {
  switch (r) {
    case RepairRung::kRetune: return "retune";
    case RepairRung::kReroute: return "reroute";
    case RepairRung::kRespare: return "respare";
    case RepairRung::kElectricalDetour: return "electrical detour";
    case RepairRung::kRackMigration: return "rack migration";
  }
  return "?";
}

[[nodiscard]] constexpr std::size_t rung_index(RepairRung r) {
  return static_cast<std::size_t>(r);
}

/// What the health monitor (src/fault/health.hpp) observed about a degraded
/// circuit.  The ladder only consumes these flags, so routing/ stays
/// independent of the fault model itself.
struct DegradedCircuit {
  fabric::CircuitId id{0};
  /// Light no longer reaches the receiver: stuck MZI on the path or a cut
  /// fiber.  Retune cannot help; reroute might.
  bool hard_down{false};
  /// Link budget no longer closes (loss drift past the margin threshold).
  bool budget_failed{false};
  /// Endpoint chip death (src and/or dst).
  bool src_dead{false};
  bool dst_dead{false};
  /// Source-tile lasers lost to a laser/wavelength fault; the circuit must
  /// re-lock onto healthy channels (rung 1) or move source (rung 3).
  std::uint32_t dead_lasers{0};
};

/// Deterministic exponential backoff-with-jitter wait schedule.  delay(k)
/// is the wait charged before retry k (k >= 1): base * factor^(k-1),
/// scaled by a jitter draw uniform in [1 - jitter_fraction,
/// 1 + jitter_fraction].  The jitter is a pure function of (seed, k) via
/// util::task_seed, so every climb, worker, and rerun charges the exact
/// same wait — randomized de-synchronization without nondeterminism.
struct RetryBackoff {
  /// Zero disables waits entirely (delay() returns zero).
  Duration base{Duration::zero()};
  double factor{2.0};
  /// Fractional +/- jitter; zero means no jitter draw at all.
  double jitter_fraction{0.0};
  std::uint64_t seed{0};

  [[nodiscard]] Duration delay(std::uint64_t retry) const;

  friend bool operator==(const RetryBackoff&, const RetryBackoff&) = default;
};

struct EscalationOptions {
  /// Max attempts per rung (distinct strategies/spares; never the same
  /// deterministic attempt twice).
  std::uint32_t retries_per_rung{2};
  /// Wall-clock budget for the whole climb; zero means unlimited.  The
  /// budget gates *starting* an attempt: once cumulative latency reaches it,
  /// no further rung is tried — not even rack migration — and the outcome
  /// reports budget_exhausted.  An attempt that has started is charged in
  /// full even if it overruns the budget.  On exhaustion the victim circuit
  /// is left established, so the caller can back off and climb again with a
  /// larger budget (runtime::drive_recovery does exactly that).
  Duration budget{Duration::zero()};
  /// Wavelengths for replacement circuits; 0 inherits the victim's count.
  std::uint32_t wavelengths{0};
  RouteOptions route{};
  /// Spare tiles rung 3 may re-plan onto (choose_spare order).  A view:
  /// like `cache` it is not owned, and the list must outlive every climb
  /// that reads it.  Rung 3 reads it in place and copies it only to
  /// exclude a spare.
  std::span<const fabric::GlobalTile> spare_candidates;
  /// Whether the electrical torus has a congestion-free detour available
  /// (rung 4); the caller decides, e.g. via attempt_electrical_repair.
  bool electrical_feasible{false};
  Duration electrical_detour_latency{Duration::millis(1.0)};
  Duration migration_latency{Duration::seconds(600.0)};
  /// Acceptance check for replacement circuits (e.g. a fault-aware health
  /// diagnosis).  A rejected replacement is torn down — full rollback — and
  /// the attempt counts as failed.  Null accepts everything.
  std::function<bool(const fabric::Fabric&, fabric::CircuitId)> validate;
  /// Optional plan cache: rung 2's same-wafer route search goes through
  /// PlanCache::route_for, so recoveries over an unchanged ledger (a flap
  /// thrash's successive flaps) skip the search; within one recovery the
  /// RerouteMemo already runs it at most once.  Null plans fresh.  Not
  /// owned.
  PlanCache* cache{nullptr};
  /// Wait schedule between failed attempts *within* a rung (retry k of a
  /// rung waits backoff.delay(k) first).  Waits are charged to latency and
  /// backoff_latency and are budget-gated like attempts: once the budget is
  /// reached no further wait (or attempt) starts.  Default: no waits,
  /// preserving the pre-gray cost model.
  RetryBackoff backoff{};
  /// Per-rung wall-clock cap: once the climb has spent this much inside the
  /// current rung (attempt charges + waits), the rung is abandoned and the
  /// climb escalates — a slow rung cannot starve the ones above it.  Zero
  /// means no per-rung cap (the overall budget still applies).
  Duration rung_timeout{Duration::zero()};
  /// Transient-failure oracle (gray failures; see fault/gray.hpp): called
  /// with the rung and a climb-wide attempt ordinal before an attempt
  /// commits.  True means the programming transiently failed — OCS port
  /// timeout, settle overrun, the link flapped back down under validation —
  /// so the attempt rolls back (one probe charged) and is counted in
  /// transient_failures.  A transient failure on rung 5 makes the whole
  /// climb return transient_failed with the victim left established (rack
  /// migration "cannot fail" only permanently).  Null means never.
  std::function<bool(RepairRung, std::uint32_t)> transient_failure;
};

struct EscalationOutcome {
  bool recovered{false};
  /// The climb stopped because options.budget ran out, not because the
  /// rungs were out of ideas.  Distinct from a plan failure (recovered ==
  /// false with budget to spare, which only happens when `victim.id` names
  /// no established circuit): a budget-exhausted victim is still repairable
  /// given more time.
  bool budget_exhausted{false};
  RepairRung rung{RepairRung::kRackMigration};
  /// Circuits carrying the traffic after recovery: the original id for
  /// retune, the replacement for reroute, the anchor<->spare pair for
  /// respare, empty for the electrical rungs.
  std::vector<fabric::CircuitId> circuits;
  /// Every rung that ran failed *transiently* at the end (rung 5's
  /// programming timed out): the victim is left established and a later
  /// climb may succeed outright.  Distinct from plan failure (recovered ==
  /// false, transient_failed == false, budget to spare) and from budget
  /// exhaustion.  Mutually exclusive with recovered and budget_exhausted.
  bool transient_failed{false};
  /// Attempts that failed transiently (oracle hits) across all rungs.
  std::uint32_t transient_failures{0};
  /// Wall-clock recovery latency (probe + programming + settle per optical
  /// attempt; backoff waits; detour/migration constants for the electrical
  /// rungs).
  Duration latency{Duration::zero()};
  /// Subset of latency spent in backoff waits between attempts.
  Duration backoff_latency{Duration::zero()};
  /// Attempts made per rung, including the successful one.  A rung gated
  /// off before it was entered (budget exhausted, spare selection empty,
  /// electrical detour infeasible) counts zero attempts.
  std::array<std::uint32_t, kRepairRungCount> attempts{};
};

/// What each rung-2 strategy did when it was last probed, for one victim's
/// recovery.  Until a commit ends the recovery, every rung-2 attempt starts
/// from the same ledger (a failed attempt tears its replacement down), and
/// over a fixed ledger a strategy places the same circuit and the validate
/// hook returns the same verdict.  So a later attempt of a strategy recorded
/// under the current Fabric::ledger_key() and epoch() replays the outcome
/// and leaves the fabric alone; if either moved, it probes live again
/// (DESIGN §6).  A memo serves one victim and one set of options (budget,
/// backoff and the transient oracle aside).
struct RerouteMemo {
  struct Probe {
    bool placed{false};
    bool accepted{false};
    std::uint64_t ledger_key{0};
    std::uint64_t epoch{0};
  };
  /// Indexed by strategy: the router family, then the XY/first-fit family.
  std::array<std::optional<Probe>, 2> probes{};
};

/// Climbs the repair ladder for one degraded circuit.  Every failed attempt
/// leaves the fabric exactly as it found it (make-before-break reroutes,
/// transactional respare via repair_with_spare, validation rejects tear the
/// replacement down).  Returns the first rung that recovered the traffic;
/// rung 5 (rack migration) always succeeds, so recovered is false only when
/// `victim.id` names no established circuit.  Rung 2 probes each strategy
/// once per memo: pass one memo to every climb of a recovery
/// (runtime::drive_recovery does); the first form keeps one for its own
/// retries.
[[nodiscard]] EscalationOutcome escalate_repair(fabric::Fabric& fab,
                                                const DegradedCircuit& victim,
                                                const EscalationOptions& options = {});
[[nodiscard]] EscalationOutcome escalate_repair(fabric::Fabric& fab,
                                                const DegradedCircuit& victim,
                                                const EscalationOptions& options,
                                                RerouteMemo& memo);

}  // namespace lp::routing
