#include "fault/health.hpp"

#include <algorithm>
#include <cmath>

#include "lightpath/circuit.hpp"

namespace lp::fault {

using fabric::Direction;
using fabric::GlobalTile;

HealthMonitor::HealthMonitor(HealthMonitorParams params) : params_{params} {}

CircuitDiagnosis HealthMonitor::diagnose(const fabric::Fabric& fab,
                                         const FaultSet& faults,
                                         fabric::CircuitId id) const {
  CircuitDiagnosis diag;
  diag.id = id;
  const fabric::Circuit* c = fab.circuit(id);
  if (c == nullptr) {
    // No such circuit carries light: hard down, for the ladder to replace.
    diag.health = CircuitHealth::kDown;
    diag.hard_down = true;
    return diag;
  }
  diag.src_dead = faults.chip_dead(c->src);
  diag.dst_dead = faults.chip_dead(c->dst);
  diag.dead_lasers = faults.dead_lasers(c->src);

  // Walk the light path: every hop traverses the exit switch of the tile it
  // leaves and the entry switch of the tile it reaches, and rides the
  // directed waveguide edge between them.  With no per-hop fault struck,
  // every hop's terms are false and zero: there is nothing to attribute.
  if (faults.has_hop_faults()) {
    for (const auto& seg : c->segments) {
      const fabric::Wafer& w = fab.wafer(seg.wafer);
      fabric::TileId at = seg.from;
      for (Direction d : seg.hops) {
        const GlobalTile here{seg.wafer, at};
        if (faults.mzi_stuck(here, d)) diag.hard_down = true;
        diag.fault_excess += faults.mzi_drift_excess(here, d);
        diag.fault_excess += faults.waveguide_excess(here, d);
        const auto n = w.neighbor(at, d);
        if (!n) break;  // malformed segment; nothing further to attribute
        const GlobalTile there{seg.wafer, *n};
        if (faults.mzi_stuck(there, opposite(d))) diag.hard_down = true;
        diag.fault_excess += faults.mzi_drift_excess(there, opposite(d));
        at = *n;
      }
    }
  }
  if (const auto link = fab.fiber_link_of(id); link && faults.fiber_cut(*link)) {
    diag.hard_down = true;
  }

  // Re-close the budget at the faulted loss.
  const phys::LinkBudget& budget = fab.link_budget();
  const phys::CircuitProfile profile = profile_of(*c, fab.config().wafer.tile);
  diag.budget = budget.evaluate_at_loss(budget.path_loss(profile) + diag.fault_excess,
                                        profile.mzi_traversals);
  diag.budget_failed =
      !diag.budget.closes || !params_.margin_acceptable(diag.budget.margin);

  if (diag.hard_down || diag.src_dead || diag.dst_dead) {
    diag.health = CircuitHealth::kDown;
  } else if (diag.budget_failed || diag.dead_lasers > 0) {
    diag.health = CircuitHealth::kDegraded;
  }
  return diag;
}

std::vector<CircuitDiagnosis> HealthMonitor::scan(const fabric::Fabric& fab,
                                                  const FaultSet& faults) const {
  std::vector<CircuitDiagnosis> unhealthy;
  for (fabric::CircuitId id : fab.circuit_ids()) {
    CircuitDiagnosis diag = diagnose(fab, faults, id);
    if (diag.health != CircuitHealth::kHealthy) unhealthy.push_back(diag);
  }
  return unhealthy;
}

FlapDamper::FlapDamper(FlapDamperParams params) : params_{params} {}

void FlapDamper::advance(Record& r, double t_s) {
  // Hold expiries fire at their fixed absolute times, not at observation
  // time: a quarantine that ended long before this query still enters (and
  // possibly completes) probation at the recorded instants, so the
  // trajectory is independent of how often the machine is observed.
  if (r.state == LinkState::kQuarantined && t_s >= r.hold_until_s) {
    r.state = LinkState::kProbation;
    r.hold_until_s += params_.probation_hold.to_seconds();
    ++stats_.probations;
  }
  if (r.state == LinkState::kProbation && t_s >= r.hold_until_s) {
    // A clean probation wipes the flap history.
    r.state = LinkState::kHealthy;
    r.score = 0.0;
  }
  if (t_s > r.last_s && r.score > 0.0) {
    const double half_life = std::max(params_.half_life_seconds, 1e-9);
    r.score *= std::exp2(-(t_s - r.last_s) / half_life);
  }
  r.last_s = std::max(r.last_s, t_s);
  if (r.state == LinkState::kSuspect && r.score < params_.suspect_threshold) {
    r.state = LinkState::kHealthy;
  }
}

LinkState FlapDamper::record_flap(std::uint64_t key, Duration t) {
  Record& r = links_[key];
  const double t_s = t.to_seconds();
  advance(r, t_s);
  ++stats_.flaps;
  r.score += params_.flap_penalty;
  if (r.state == LinkState::kQuarantined) {
    // Still flapping while quarantined: the repair the dampening suppressed,
    // and a fresh hold (the clock restarts until the link quiets down).
    ++stats_.suppressed_repairs;
    r.hold_until_s = t_s + params_.quarantine_hold.to_seconds();
    return r.state;
  }
  if (r.state == LinkState::kProbation) {
    // Relapse: probation forgives nothing — straight back to quarantine.
    r.state = LinkState::kQuarantined;
    r.hold_until_s = t_s + params_.quarantine_hold.to_seconds();
    ++stats_.relapses;
    ++stats_.quarantines;
    return r.state;
  }
  if (r.score >= params_.quarantine_threshold) {
    r.state = LinkState::kQuarantined;
    r.hold_until_s = t_s + params_.quarantine_hold.to_seconds();
    ++stats_.quarantines;
  } else if (r.score >= params_.suspect_threshold) {
    r.state = LinkState::kSuspect;
  }
  return r.state;
}

LinkState FlapDamper::state(std::uint64_t key, Duration t) {
  const auto it = links_.find(key);
  if (it == links_.end()) return LinkState::kHealthy;
  advance(it->second, t.to_seconds());
  return it->second.state;
}

double FlapDamper::score(std::uint64_t key, Duration t) {
  const auto it = links_.find(key);
  if (it == links_.end()) return 0.0;
  advance(it->second, t.to_seconds());
  return it->second.score;
}

routing::DegradedCircuit to_degraded(const CircuitDiagnosis& d) {
  routing::DegradedCircuit victim;
  victim.id = d.id;
  victim.hard_down = d.hard_down;
  victim.budget_failed = d.budget_failed;
  victim.src_dead = d.src_dead;
  victim.dst_dead = d.dst_dead;
  victim.dead_lasers = d.dead_lasers;
  return victim;
}

}  // namespace lp::fault
