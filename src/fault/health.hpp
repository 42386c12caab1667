// Degraded-circuit detection.
//
// The HealthMonitor walks an established circuit's light path against the
// active FaultSet and recomputes its link budget (phys/link_budget) with the
// fault-induced excess losses folded in.  A circuit is:
//
//   * kDown     — light no longer reaches the receiver: a stuck MZI on the
//                 path, a cut fiber, or a dead endpoint chip;
//   * kDegraded — the light path works but the re-evaluated budget fails to
//                 close, the remaining margin dips under a configurable
//                 threshold, or source lasers died (the circuit must re-lock);
//   * kHealthy  — none of the above.
//
// scan() reports every unhealthy circuit in ascending id order so repair
// sweeps are deterministic; to_degraded() lowers a diagnosis to the
// observation flags the repair ladder (routing/repair) consumes.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault.hpp"
#include "lightpath/fabric.hpp"
#include "phys/link_budget.hpp"
#include "routing/repair.hpp"
#include "util/units.hpp"

namespace lp::fault {

enum class CircuitHealth : std::uint8_t { kHealthy = 0, kDegraded = 1, kDown = 2 };

[[nodiscard]] constexpr const char* to_string(CircuitHealth h) {
  switch (h) {
    case CircuitHealth::kHealthy: return "healthy";
    case CircuitHealth::kDegraded: return "degraded";
    case CircuitHealth::kDown: return "down";
  }
  return "?";
}

struct HealthMonitorParams {
  /// Minimum remaining link-budget margin before a circuit is declared
  /// degraded even though its pre-FEC BER still clears the FEC threshold
  /// (running at zero margin one drift away from an outage is not healthy).
  ///
  /// Boundary contract: the threshold is *closed on the healthy side*.  A
  /// margin exactly equal to min_margin is acceptable; only margin strictly
  /// below it degrades the circuit.  The comparison is a plain IEEE-754
  /// `<` on the dB values, so a circuit sitting exactly on the 0.5 dB line
  /// classifies the same way on every platform and run.
  Decibel min_margin{Decibel::db(0.5)};

  /// The single comparison every margin check in the monitor goes through,
  /// so the closed/open side cannot drift between call sites.
  [[nodiscard]] constexpr bool margin_acceptable(Decibel margin) const {
    return margin >= min_margin;
  }
};

struct CircuitDiagnosis {
  fabric::CircuitId id{0};
  CircuitHealth health{CircuitHealth::kHealthy};
  bool hard_down{false};      ///< stuck MZI on the path or cut fiber
  bool budget_failed{false};  ///< re-evaluated budget fails or margin < threshold
  bool src_dead{false};
  bool dst_dead{false};
  std::uint32_t dead_lasers{0};
  /// Fault-induced extra path loss (waveguide + MZI drift terms).
  Decibel fault_excess{Decibel::zero()};
  /// Budget re-evaluated at the faulted loss.
  phys::LinkBudgetReport budget{};
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorParams params = {});

  [[nodiscard]] const HealthMonitorParams& params() const { return params_; }

  /// Diagnoses one established circuit against the fault set.  An id that
  /// names no established circuit diagnoses as kDown with hard_down set.
  [[nodiscard]] CircuitDiagnosis diagnose(const fabric::Fabric& fab,
                                          const FaultSet& faults,
                                          fabric::CircuitId id) const;

  /// Every unhealthy circuit, ascending id.
  [[nodiscard]] std::vector<CircuitDiagnosis> scan(const fabric::Fabric& fab,
                                                   const FaultSet& faults) const;

 private:
  HealthMonitorParams params_;
};

/// Lowers a diagnosis to the ladder's input.
[[nodiscard]] routing::DegradedCircuit to_degraded(const CircuitDiagnosis& d);

// ---------------------------------------------------------------------------
// Flap dampening: per-link hysteresis against gray failures.
//
// A link that flaps (fault/gray.hpp) must not be re-repaired on every
// transition — the ladder thrash costs more than the dips.  The FlapDamper
// runs a BGP-style route-flap-dampening state machine per component key:
//
//   healthy --(score >= suspect)--> suspect --(score >= quarantine)-->
//   quarantined --(hold elapses)--> probation --(clean hold)--> healthy
//                                      '--(flap: relapse)--> quarantined
//
// Scoring is exponentially weighted: each observed down-transition adds
// flap_penalty to the link's score, and the score decays by half every
// half_life_seconds.  While quarantined, repairs are suppressed (the
// consumer rides out the dips and routes around the link — ride_out());
// probation re-admits the link but one more flap relapses straight back to
// quarantine.
//
// Boundary contract (pinned in fault_test): threshold comparisons are
// closed on the escalation side (score >= suspect_threshold suspects,
// score >= quarantine_threshold quarantines) and hold expiries are closed
// on the exit side (state(t) at exactly hold-end has already advanced).
// All transitions happen at deterministic absolute times, so the machine
// is a pure function of its (key, time)-stamped observation sequence.
// ---------------------------------------------------------------------------

enum class LinkState : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,
  kQuarantined = 2,
  kProbation = 3,
};

[[nodiscard]] constexpr const char* to_string(LinkState s) {
  switch (s) {
    case LinkState::kHealthy: return "healthy";
    case LinkState::kSuspect: return "suspect";
    case LinkState::kQuarantined: return "quarantined";
    case LinkState::kProbation: return "probation";
  }
  return "?";
}

struct FlapDamperParams {
  /// Score added per observed down-transition.
  double flap_penalty{1.0};
  /// Exponential decay half-life of the score.
  double half_life_seconds{30.0};
  /// score >= suspect_threshold marks the link suspect (closed boundary).
  double suspect_threshold{1.5};
  /// score >= quarantine_threshold quarantines (closed boundary).
  double quarantine_threshold{3.0};
  /// Time served in quarantine before probation begins.
  Duration quarantine_hold{Duration::seconds(30.0)};
  /// Clean probation time before the link is healthy again (a flap during
  /// probation relapses to a fresh quarantine instead).
  Duration probation_hold{Duration::seconds(15.0)};
};

struct FlapDamperStats {
  std::uint64_t flaps{0};
  std::uint64_t quarantines{0};  ///< entries into kQuarantined, relapses included
  std::uint64_t probations{0};
  std::uint64_t relapses{0};
  /// Flaps observed while quarantined: each one is a repair-ladder
  /// invocation the dampening suppressed.
  std::uint64_t suppressed_repairs{0};
};

/// Per-link dampening state, keyed by the caller's component key (e.g.
/// fault::gray_component_key).  Not thread-safe; one damper per simulation.
class FlapDamper {
 public:
  explicit FlapDamper(FlapDamperParams params = {});

  [[nodiscard]] const FlapDamperParams& params() const { return params_; }
  [[nodiscard]] const FlapDamperStats& stats() const { return stats_; }

  /// Records a down-transition observed at absolute time `t` and returns
  /// the state *after* the flap is scored.  `t` must be non-decreasing per
  /// key across all calls.
  LinkState record_flap(std::uint64_t key, Duration t);

  /// The link's state at time `t`, rolling hold expiries forward (a
  /// quarantine whose hold elapsed advances to probation, a clean probation
  /// to healthy).  Idempotent: observing more often never changes the
  /// trajectory, only when transitions are noticed.
  [[nodiscard]] LinkState state(std::uint64_t key, Duration t);

  /// Decayed flap score at `t` (untracked keys score zero).
  [[nodiscard]] double score(std::uint64_t key, Duration t);

  /// The ride-out rule every consumer applies to an observed flap: scores
  /// it (record_flap) and returns true when the link is quarantined
  /// afterwards — the tripping flap, a relapse from probation, or any flap
  /// while already quarantined.  The consumer rides such a flap out and
  /// climbs the repair ladder for every other one, so per link
  /// flaps == climbs + stats().suppressed_repairs + stats().quarantines.
  [[nodiscard]] bool ride_out(std::uint64_t key, Duration t) {
    return record_flap(key, t) == LinkState::kQuarantined;
  }

 private:
  struct Record {
    LinkState state{LinkState::kHealthy};
    double score{0.0};
    double last_s{0.0};       ///< time of the last score update
    double hold_until_s{0.0}; ///< quarantine/probation expiry
  };

  void advance(Record& r, double t_s);

  FlapDamperParams params_;
  std::map<std::uint64_t, Record> links_;
  FlapDamperStats stats_;
};

}  // namespace lp::fault
