#include "runtime/fault_plane.hpp"

#include "fault/gray.hpp"

namespace lp::runtime {

FaultPlane::FaultPlane(fabric::Fabric& fab, const fault::HealthMonitorParams& health,
                       const fault::FlapDamperParams& damper, bool hysteresis)
    : fab_{fab}, monitor_{health}, cache_{fab}, damper_{damper}, hysteresis_{hysteresis} {
  if (hysteresis_) {
    // Quarantined components are unusable for *new* routes without touching
    // the fabric epoch: memoized plans survive the quarantine and are warm
    // again the moment the hold lifts.
    cache_.set_quarantine([this](fabric::GlobalTile t, fabric::Direction d) {
      return damper_.state(fault::gray_component_key(t, d), now_) ==
             fault::LinkState::kQuarantined;
    });
  }
}

void FaultPlane::strike(const std::vector<fault::Fault>& faults,
                        Decibel quarantine_threshold) {
  fault::FaultSet ev;
  ev.add_all(faults);
  ev.apply_to(fab_, quarantine_threshold);
  applied_.push_back(std::move(ev));
  cumulative_.add_all(faults);
}

void FaultPlane::revert_all() {
  for (auto it = applied_.rbegin(); it != applied_.rend(); ++it) it->revert(fab_);
  applied_.clear();
  cumulative_ = fault::FaultSet{};
}

fault::CircuitDiagnosis FaultPlane::diagnose(fabric::CircuitId id) const {
  return monitor_.diagnose(fab_, cumulative_, id);
}

routing::EscalationOptions FaultPlane::repair_options(std::uint32_t wavelengths) {
  routing::EscalationOptions opts;
  opts.wavelengths = wavelengths;
  opts.cache = &cache_;
  opts.validate = [this](const fabric::Fabric& f, fabric::CircuitId id) {
    return monitor_.diagnose(f, cumulative_, id).health == fault::CircuitHealth::kHealthy;
  };
  return opts;
}

std::optional<RecoveryResult> FaultPlane::flap(std::uint64_t key, Duration t,
                                               fabric::CircuitId circuit,
                                               const RecoveryPolicy& policy,
                                               std::uint32_t wavelengths) {
  now_ = t;
  if (hysteresis_ && damper_.ride_out(key, t)) return std::nullopt;
  routing::DegradedCircuit victim;
  victim.id = circuit;
  victim.hard_down = true;
  routing::EscalationOptions opts = repair_options(wavelengths);
  opts.transient_failure = [](routing::RepairRung, std::uint32_t) { return true; };
  return drive_recovery(fab_, victim, policy, opts);
}

}  // namespace lp::runtime
