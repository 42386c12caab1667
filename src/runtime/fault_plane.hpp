// The fault-facing half of a simulator's resilience control path.
//
// TrainingRun and ServingSim answer faults the same way: strike a fault
// overlay onto the live fabric, diagnose ring circuits against everything
// struck so far, climb the repair ladder through a route-memoizing
// PlanCache whose validate hook re-diagnoses each replacement, and feed
// link flaps to a FlapDamper whose quarantine the cache honours as a view.
// A FaultPlane owns that state once — the HealthMonitor, the PlanCache, the
// applied and cumulative FaultSets, the damper and the view clock — so each
// simulator keeps only its own event loop and accounting.
//
// The quarantine view is installed whenever hysteresis is on; with no flaps
// the damper is empty and the view rejects nothing.  The cache's predicate
// captures the plane, so a FaultPlane is neither copyable nor movable.
//
// With hysteresis off, a flap's climb commits nothing, and one over the
// same victim, ledger, epoch, policy and width returns the same result, so
// the plane replays the last such climb instead of running it again
// (DESIGN §6).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/repair.hpp"
#include "runtime/recovery.hpp"
#include "util/units.hpp"

namespace lp::runtime {

class FaultPlane {
 public:
  /// `hysteresis` selects the flap controller: true feeds flaps to the
  /// damper and rides quarantined ones out; false climbs on every flap.
  FaultPlane(fabric::Fabric& fab, const fault::HealthMonitorParams& health,
             const fault::FlapDamperParams& damper, bool hysteresis);

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Applies one fault event to the fabric ledger (lanes quarantined at
  /// `quarantine_threshold`) and adds it to the cumulative query overlay.
  void strike(const std::vector<fault::Fault>& faults, Decibel quarantine_threshold);
  /// Reverts every struck event, newest first, and clears the overlay —
  /// the fresh hardware of a migration.
  void revert_all();

  /// Diagnoses an established circuit against every fault struck so far.
  [[nodiscard]] fault::CircuitDiagnosis diagnose(fabric::CircuitId id) const;

  /// Ladder options for a repair of `wavelengths`-wide circuits: route
  /// searches through the plane's PlanCache, and a validate hook that
  /// accepts only replacements diagnosed healthy.
  [[nodiscard]] routing::EscalationOptions repair_options(std::uint32_t wavelengths);

  /// Simulation time the quarantine view evaluates damper state at.
  [[nodiscard]] Duration now() const { return now_; }
  void set_now(Duration t) { now_ = t; }

  /// Every fault struck so far (the overlay diagnoses read).
  [[nodiscard]] const fault::FaultSet& active() const { return cumulative_; }
  [[nodiscard]] const fault::FlapDamperStats& damper_stats() const {
    return damper_.stats();
  }

  /// Answers one flap of component `key` on `circuit` at `t` (which also
  /// becomes the view clock).  With hysteresis, a flap the damper rides out
  /// (FlapDamper::ride_out) returns nullopt.  Otherwise the controller
  /// repairs on the transition: the climb runs entirely inside the dip, so
  /// every programming attempt fails transiently, and the thrash is
  /// returned for the caller to charge.  Without hysteresis, a flap whose
  /// circuit, Fabric::ledger_key(), epoch(), policy and wavelengths all
  /// match the last climb's returns that climb's result and touches no
  /// fabric state: it consumes no circuit id, programs no
  /// ReconfigController batch and moves no PlanCache route stats.
  [[nodiscard]] std::optional<RecoveryResult> flap(std::uint64_t key, Duration t,
                                                   fabric::CircuitId circuit,
                                                   const RecoveryPolicy& policy,
                                                   std::uint32_t wavelengths);

 private:
  /// A naive flap's inputs and the result of the climb they gave.
  struct FlapReplay {
    fabric::CircuitId circuit{0};
    std::uint64_t ledger_key{0};
    std::uint64_t epoch{0};
    std::uint32_t wavelengths{0};
    RecoveryPolicy policy{};
    RecoveryResult result{};
  };

  /// The climb a flap that is not ridden out runs: the victim hard down,
  /// every attempt failing transiently.
  [[nodiscard]] RecoveryResult climb(fabric::CircuitId circuit,
                                     const RecoveryPolicy& policy,
                                     std::uint32_t wavelengths);

  fabric::Fabric& fab_;
  fault::HealthMonitor monitor_;
  /// Route memo for the repair ladder: a naive flap's recovery leaves the
  /// ledger exactly as found, so the next flap's search hits.
  routing::PlanCache cache_;
  /// Per-event applied overlays, in strike order (revert_all undoes them).
  std::vector<fault::FaultSet> applied_;
  /// Query overlay of every fault struck (never applied to the ledger).
  fault::FaultSet cumulative_;
  fault::FlapDamper damper_;
  bool hysteresis_;
  Duration now_{Duration::zero()};
  /// The last naive climb that left the ledger key and epoch as it found
  /// them.  One record is enough: an episode's dips flap one circuit back
  /// to back.  Never set with hysteresis on, where each climb's quarantine
  /// queries depend on now_ and advance the damper.
  std::optional<FlapReplay> last_flap_;
};

}  // namespace lp::runtime
