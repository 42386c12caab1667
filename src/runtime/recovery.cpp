#include "runtime/recovery.hpp"

#include <cmath>
#include <utility>

#include "util/parallel.hpp"

namespace lp::runtime {

Duration RecoveryPolicy::detected_at(Duration strike) const {
  const double hb = heartbeat_interval.to_seconds();
  return Duration::seconds(std::ceil(strike.to_seconds() / hb) * hb) + detection_latency;
}

RecoveryResult drive_recovery(fabric::Fabric& fab,
                              const routing::DegradedCircuit& victim,
                              const RecoveryPolicy& policy,
                              const routing::EscalationOptions& base) {
  RecoveryResult res;
  // One copy for every climb: each climb rewrites only its budget and
  // backoff below.
  routing::EscalationOptions opts = base;
  opts.retries_per_rung = policy.retries_per_rung;
  // Strictly optical: rung 4 never succeeds and rung 5 is a free sentinel —
  // landing there means "out of optical ideas", and the caller owns what
  // that costs (elastic shrink or a migration charge).
  opts.electrical_feasible = false;
  opts.migration_latency = Duration::zero();
  opts.rung_timeout = policy.rung_timeout;

  // Climbs that end unrecovered leave the ledger as they found it, so one
  // memo lets rung 2 probe each strategy once for the whole recovery.
  routing::RerouteMemo memo;
  Duration budget = policy.initial_budget;
  Duration backoff = policy.backoff_base;
  for (std::uint32_t attempt = 0; attempt <= policy.max_attempts; ++attempt) {
    // The last climb is unbounded so the loop always settles the victim.
    opts.budget = attempt == policy.max_attempts ? Duration::zero() : budget;
    opts.backoff = policy.rung_backoff;
    // Distinct jitter stream per climb: retries of climb N never reuse the
    // waits of climb N-1, yet every rerun charges the same waits.
    opts.backoff.seed = util::task_seed(policy.rung_backoff.seed, attempt);
    routing::EscalationOutcome out = routing::escalate_repair(fab, victim, opts, memo);
    ++res.climbs;
    for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
      res.rung_attempts[k] += out.attempts[k];
    }
    res.repair_latency += out.latency;
    res.transient_failures += out.transient_failures;
    if (out.recovered) {
      res.rung = out.rung;
      if (out.rung == routing::RepairRung::kRackMigration) {
        res.fell_through = true;
      } else {
        res.recovered = true;
        res.circuits = std::move(out.circuits);
      }
      return res;
    }
    if (out.transient_failed && attempt == policy.max_attempts) {
      // Even the unbounded climb ended transiently: the victim is still
      // established — report it so the caller can ride out the disturbance.
      res.transient_failed = true;
      return res;
    }
    if (!out.budget_exhausted && !out.transient_failed) {
      res.plan_failure = true;  // victim.id names no established circuit
      return res;
    }
    // Budget exhaustion and transient failure back off the same way: the
    // fabric is untouched, so a later climb with more budget (or past the
    // disturbance) can still succeed.
    res.backoff_latency += backoff;
    budget = budget * policy.backoff_factor;
    backoff = backoff * policy.backoff_factor;
  }
  return res;  // unreachable: the unbounded climb always returns above
}

}  // namespace lp::runtime
