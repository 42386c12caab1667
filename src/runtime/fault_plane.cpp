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

RecoveryResult FaultPlane::climb(fabric::CircuitId circuit, const RecoveryPolicy& policy,
                                 std::uint32_t wavelengths) {
  routing::DegradedCircuit victim;
  victim.id = circuit;
  victim.hard_down = true;
  routing::EscalationOptions opts = repair_options(wavelengths);
  opts.transient_failure = [](routing::RepairRung, std::uint32_t) { return true; };
  return drive_recovery(fab_, victim, policy, opts);
}

std::optional<RecoveryResult> FaultPlane::flap(std::uint64_t key, Duration t,
                                               fabric::CircuitId circuit,
                                               const RecoveryPolicy& policy,
                                               std::uint32_t wavelengths) {
  now_ = t;
  if (hysteresis_) {
    // The climb's quarantine queries read now_ and advance the damper's
    // records, so every climb runs live.
    if (damper_.ride_out(key, t)) return std::nullopt;
    return climb(circuit, policy, wavelengths);
  }
  const std::uint64_t ledger_key = fab_.ledger_key();
  const std::uint64_t epoch = fab_.epoch();
  if (last_flap_ && last_flap_->circuit == circuit && last_flap_->ledger_key == ledger_key &&
      last_flap_->epoch == epoch && last_flap_->wavelengths == wavelengths &&
      last_flap_->policy == policy) {
    return last_flap_->result;
  }
  RecoveryResult res = climb(circuit, policy, wavelengths);
  if (fab_.epoch() == epoch && fab_.ledger_key() == ledger_key) {
    last_flap_ = FlapReplay{circuit, ledger_key, epoch, wavelengths, policy, res};
  } else {
    last_flap_.reset();
  }
  return res;
}

}  // namespace lp::runtime
