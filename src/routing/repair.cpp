#include "routing/repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "routing/plan_cache.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::routing {

using fabric::Fabric;
using fabric::GlobalTile;

namespace {

/// The repair planner behind repair_with_spare and rung 3: wires `spare`
/// to every neighbor in both directions at `wavelengths`, transactionally.
RepairPlan plan_repair(Fabric& fab, GlobalTile spare, std::span<const GlobalTile> neighbors,
                       std::uint32_t wavelengths, const RouteOptions& options) {
  RepairPlan plan;
  const auto on_fabric = [&](GlobalTile t) { return fab.contains(t); };
  if (!on_fabric(spare) || !std::all_of(neighbors.begin(), neighbors.end(), on_fabric)) {
    return plan;  // incomplete, and nothing was touched
  }
  plan.circuits.reserve(2 * neighbors.size());
  unsigned mzis = 0;

  auto establish = [&](GlobalTile from, GlobalTile to) -> bool {
    Result<fabric::CircuitId> placed = Err("unattempted");
    if (from.wafer == to.wafer) {
      RouteOptions opts = options;
      opts.lanes = wavelengths;
      const auto hops = find_route(fab.wafer(from.wafer), from.tile, to.tile, opts);
      if (!hops) return false;
      placed = fab.connect_via(from, to, *hops, wavelengths);
    } else {
      placed = fab.connect(from, to, wavelengths);
    }
    if (!placed) return false;
    const fabric::Circuit* c = fab.circuit(placed.value());
    if (c != nullptr) {
      mzis += c->mzi_count;
      if (c->fiber_hops > 0) plan.fibers_used += wavelengths;
    }
    plan.circuits.push_back(placed.value());
    return true;
  };

  for (const GlobalTile& n : neighbors) {
    if (!establish(n, spare) || !establish(spare, n)) {
      for (fabric::CircuitId id : plan.circuits) fab.disconnect(id);
      plan.circuits.clear();
      plan.complete = false;
      return plan;
    }
  }
  plan.reconfig_latency = fab.reconfig().batch_latency(mzis);
  plan.complete = true;
  // A committed spare swap changes which routes are live: invalidate
  // memoized plans.
  fab.bump_epoch();
  return plan;
}

/// One settle per failed optical probe: the controller programmed the
/// attempt, observed it dark/degraded, and rolled it back.
Duration probe_cost(const Fabric& fab) { return fab.reconfig().settle_latency(); }

/// Replacement circuits must pass the caller's acceptance check before the
/// rung commits; a reject tears the replacement down (full rollback).
bool accept(const EscalationOptions& options, const Fabric& fab,
            fabric::CircuitId id) {
  return !options.validate || options.validate(fab, id);
}

}  // namespace

RepairPlan repair_with_spare(Fabric& fab, const RepairRequest& req,
                             const RouteOptions& options) {
  return plan_repair(fab, req.spare, req.neighbors, req.wavelengths, options);
}

Duration RetryBackoff::delay(std::uint64_t retry) const {
  if (base <= Duration::zero() || retry == 0) return Duration::zero();
  Duration d = base;
  for (std::uint64_t k = 1; k < retry; ++k) d = d * factor;
  if (jitter_fraction <= 0.0) return d;
  // Jitter is a pure function of (seed, retry): the same wait on every
  // worker, climb, and rerun.
  Rng rng{util::task_seed(seed, retry)};
  return d * rng.uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
}

EscalationOutcome escalate_repair(Fabric& fab, const DegradedCircuit& victim,
                                  const EscalationOptions& options) {
  RerouteMemo memo;
  return escalate_repair(fab, victim, options, memo);
}

EscalationOutcome escalate_repair(Fabric& fab, const DegradedCircuit& victim,
                                  const EscalationOptions& options, RerouteMemo& memo) {
  EscalationOutcome out;
  const fabric::Circuit* c = fab.circuit(victim.id);
  if (c == nullptr) return out;  // nothing to repair

  const GlobalTile src = c->src;
  const GlobalTile dst = c->dst;
  const std::uint32_t lambdas =
      options.wavelengths != 0 ? options.wavelengths : c->wavelengths;
  // The budget gates starting an attempt; a started attempt (its backoff
  // wait included) is charged in full.  On exhaustion the victim stays
  // established for a later climb.
  auto exhausted = [&] {
    if (options.budget <= Duration::zero()) return false;
    if (out.latency < options.budget) return false;
    out.budget_exhausted = true;
    return true;
  };
  // Climb-wide attempt ordinal: feeds the transient oracle so every attempt
  // of a climb has a distinct, deterministic identity.
  std::uint32_t ordinal = 0;
  auto attempt = [&](RepairRung r) {
    ++out.attempts[rung_index(r)];
    ++ordinal;
  };
  // Consulted at most once per attempt, after the deterministic checks: a
  // hit means the programming transiently failed and rolled back.
  auto transient = [&](RepairRung r) {
    const bool hit =
        options.transient_failure && options.transient_failure(r, ordinal - 1);
    if (hit) ++out.transient_failures;
    return hit;
  };
  // Wait before retry k of a rung (k >= 1), charged like attempt latency.
  auto wait_before_retry = [&](std::uint32_t k) {
    const Duration w = options.backoff.delay(k);
    out.latency += w;
    out.backoff_latency += w;
  };
  auto rung_expired = [&](Duration rung_start) {
    return options.rung_timeout > Duration::zero() &&
           out.latency - rung_start >= options.rung_timeout;
  };
  auto succeed = [&](RepairRung r, std::vector<fabric::CircuitId> circuits) {
    out.recovered = true;
    out.rung = r;
    out.circuits = std::move(circuits);
    // A committed rung rewires the fabric; memoized plans must not survive.
    fab.bump_epoch();
  };

  // Rung 1 — retune: only a laser/wavelength fault at the source, light path
  // itself still healthy.  Succeeds when the source tile has enough free
  // healthy lasers for the circuit to re-lock onto (the fault layer models
  // dead lasers by consuming that headroom; a shortfall leaves the tile
  // genuinely short and the rung fails).  Only a transient settle failure
  // earns a retry: a laser shortfall is deterministic and repeating the
  // identical attempt is forbidden.
  if (victim.dead_lasers > 0 && !victim.hard_down && !victim.src_dead &&
      !victim.dst_dead) {
    const Duration rung_start = out.latency;
    for (std::uint32_t r = 0; r < std::max(options.retries_per_rung, 1u); ++r) {
      if (exhausted()) return out;
      if (r > 0 && rung_expired(rung_start)) break;
      if (r > 0) wait_before_retry(r);
      attempt(RepairRung::kRetune);
      out.latency += probe_cost(fab);
      if (fab.wafer(src.wafer).tile(src.tile).tx_free() < victim.dead_lasers) break;
      if (transient(RepairRung::kRetune)) continue;
      succeed(RepairRung::kRetune, {victim.id});
      return out;
    }
  }

  // Rung 2 — reroute: make-before-break onto alternate waveguides / switch
  // paths / fibers.  The replacement is established first, so a failed
  // attempt changes nothing.  Laser deficits cannot be rerouted around (the
  // lasers sit at the source tile), so the rung is skipped for laser-only
  // degradation.
  const bool reroutable = !victim.src_dead && !victim.dst_dead &&
                          (victim.hard_down || victim.budget_failed);
  if (reroutable) {
    // Distinct strategies only: the router family first, then the fabric's
    // XY/first-fit family.  A deterministic failure advances the strategy
    // (identical attempts never repeat); a transient one retries the same
    // strategy, bounded by retries_per_rung total attempts.
    const bool same_wafer = src.wafer == dst.wafer;
    const std::uint32_t strategies = same_wafer ? 2 : 1;
    auto place = [&](std::uint32_t strategy) -> Result<fabric::CircuitId> {
      if (!same_wafer || strategy == 1) return fab.connect(src, dst, lambdas);
      // Route via the plan cache when one is wired in: repeated searches
      // over an unchanged ledger reuse the memoized route, read in place.
      if (options.cache != nullptr) {
        const auto hops = options.cache->route_for(Demand{src, dst, lambdas});
        if (!hops) return Err("no feasible route");
        return fab.connect_via(src, dst, *hops, lambdas);
      }
      RouteOptions ro = options.route;
      ro.lanes = lambdas;
      const auto hops = find_route(fab.wafer(src.wafer), src.tile, dst.tile, ro);
      if (!hops) return Err("no feasible route");
      return fab.connect_via(src, dst, *hops, lambdas);
    };
    const Duration rung_start = out.latency;
    std::uint32_t s = 0;
    for (std::uint32_t tries = 0; s < strategies && tries < options.retries_per_rung;
         ++tries) {
      if (exhausted()) return out;
      if (tries > 0 && rung_expired(rung_start)) break;
      if (tries > 0) wait_before_retry(tries);
      attempt(RepairRung::kReroute);
      // A strategy already probed over this ledger replays its outcome and
      // leaves the fabric alone: the same charges, and the oracle asked at
      // the same point.  An oracle miss still commits live.
      std::optional<RerouteMemo::Probe>& probe = memo.probes[s];
      const std::uint64_t key = fab.ledger_key();
      const std::uint64_t epoch = fab.epoch();
      const bool known = probe && probe->ledger_key == key && probe->epoch == epoch;
      if (known && !(probe->placed && probe->accepted)) {
        out.latency += probe_cost(fab);
        ++s;
        continue;
      }
      if (known && transient(RepairRung::kReroute)) {
        out.latency += probe_cost(fab);
        continue;
      }
      const Result<fabric::CircuitId> placed = place(s);
      const bool accepted = placed && accept(options, fab, placed.value());
      probe = RerouteMemo::Probe{placed.ok(), accepted, key, epoch};
      if (!accepted) {
        if (placed) fab.disconnect(placed.value());
        out.latency += probe_cost(fab);
        ++s;
        continue;
      }
      if (!known && transient(RepairRung::kReroute)) {
        // The replacement programmed but never validated up (the link
        // flapped back / the settle timed out): roll it back, same strategy
        // may be retried.
        fab.disconnect(placed.value());
        out.latency += probe_cost(fab);
        continue;
      }
      const unsigned mzis = fab.circuit(placed.value())->mzi_count;
      fab.disconnect(victim.id);  // break after make
      out.latency += fab.reconfig().batch_latency(mzis);
      succeed(RepairRung::kReroute, {placed.value()});
      return out;
    }
  }

  // Rung 3 — respare: replace the broken endpoint (dead chip, or the
  // laser-deficient source) with a spare via choose_spare, re-planning the
  // anchor<->spare pair through the transactional repair planner.  A
  // deterministic failure excludes the spare; a transient one may retry it.
  // The attempt counter increments only once a spare is actually chosen —
  // a rung that never starts (no viable candidate) counts zero attempts.
  if (!options.spare_candidates.empty() && !(victim.src_dead && victim.dst_dead)) {
    const bool replace_src = victim.src_dead || victim.dead_lasers > 0;
    const GlobalTile anchor = replace_src ? dst : src;
    const std::span<const GlobalTile> anchors{&anchor, 1};
    // The caller's list, read in place until a spare is excluded.  The
    // first exclusion copies it into `remaining`, which the loop then
    // reads; `remaining` is empty only before that copy or once every
    // spare is excluded, which ends the loop.
    std::span<const GlobalTile> candidates = options.spare_candidates;
    std::vector<GlobalTile> remaining;
    const Duration rung_start = out.latency;
    for (std::uint32_t r = 0; r < options.retries_per_rung && !candidates.empty();
         ++r) {
      if (exhausted()) return out;
      if (r > 0 && rung_expired(rung_start)) break;
      const auto choice = choose_spare(fab, candidates, anchors);
      if (!choice) break;
      if (r > 0) wait_before_retry(r);
      attempt(RepairRung::kRespare);
      RepairPlan plan =
          plan_repair(fab, candidates[choice.value()], anchors, lambdas, options.route);
      if (plan.complete) {
        bool ok = true;
        for (fabric::CircuitId id : plan.circuits) ok = ok && accept(options, fab, id);
        if (ok && !transient(RepairRung::kRespare)) {
          fab.disconnect(victim.id);
          out.latency += plan.reconfig_latency;
          succeed(RepairRung::kRespare, std::move(plan.circuits));
          return out;
        }
        for (fabric::CircuitId id : plan.circuits) fab.disconnect(id);
        if (ok) {
          // Transient settle failure: full rollback, the spare itself is
          // fine — it stays a candidate for the next try.
          out.latency += probe_cost(fab);
          continue;
        }
      }
      out.latency += probe_cost(fab);
      if (remaining.empty()) remaining.assign(candidates.begin(), candidates.end());
      remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(choice.value()));
      candidates = remaining;
    }
  }

  // Rung 4 — electrical torus detour: leave the optical domain, ride the
  // static electrical links around the fault.  Feasibility is the caller's
  // congestion analysis (usually false, per Figure 6); an infeasible detour
  // is a rung never entered — zero attempts, zero charge.
  if (options.electrical_feasible) {
    if (exhausted()) return out;
    attempt(RepairRung::kElectricalDetour);
    if (!transient(RepairRung::kElectricalDetour)) {
      fab.disconnect(victim.id);
      out.latency += options.electrical_detour_latency;
      succeed(RepairRung::kElectricalDetour, {});
      return out;
    }
    out.latency += probe_cost(fab);
  }

  // Rung 5 — rack migration: the [60] baseline.  Cannot fail permanently —
  // but a bounded climb may run out of budget before it is allowed to
  // start, and its programming can transiently time out, in which case the
  // whole climb reports transient_failed with the victim left established.
  {
    const Duration rung_start = out.latency;
    for (std::uint32_t r = 0; r < std::max(options.retries_per_rung, 1u); ++r) {
      if (exhausted()) return out;
      if (r > 0 && rung_expired(rung_start)) break;
      if (r > 0) wait_before_retry(r);
      attempt(RepairRung::kRackMigration);
      if (transient(RepairRung::kRackMigration)) {
        out.latency += probe_cost(fab);
        continue;
      }
      fab.disconnect(victim.id);
      out.latency += options.migration_latency;
      succeed(RepairRung::kRackMigration, {});
      return out;
    }
  }
  // Every rung that ran ended in a transient failure: nothing committed,
  // the victim is still established, and a later climb may succeed.
  out.transient_failed = true;
  return out;
}

Result<std::size_t> choose_spare(const Fabric& fab, std::span<const GlobalTile> candidates,
                                 std::span<const GlobalTile> neighbors) {
  auto fibers_needed = [&](const GlobalTile& spare) {
    std::uint32_t fibers = 0;
    for (const GlobalTile& n : neighbors) {
      if (n.wafer != spare.wafer) fibers += 2;  // both directions
    }
    return fibers;
  };
  auto distance = [&](const GlobalTile& spare) {
    std::int32_t total = 0;
    for (const GlobalTile& n : neighbors) {
      if (n.wafer != spare.wafer) {
        total += 1000;  // cross-wafer dominates any on-wafer distance
        continue;
      }
      const auto& w = fab.wafer(spare.wafer);
      const auto a = w.coord_of(spare.tile);
      const auto b = w.coord_of(n.tile);
      total += std::abs(a.row - b.row) + std::abs(a.col - b.col);
    }
    return total;
  };

  std::optional<std::size_t> best;
  std::uint32_t best_fibers = std::numeric_limits<std::uint32_t>::max();
  std::int32_t best_distance = std::numeric_limits<std::int32_t>::max();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!fab.contains(candidates[i])) continue;  // a spare off the fabric repairs nothing
    const std::uint32_t f = fibers_needed(candidates[i]);
    const std::int32_t dist = distance(candidates[i]);
    if (f < best_fibers || (f == best_fibers && dist < best_distance)) {
      best = i;
      best_fibers = f;
      best_distance = dist;
    }
  }
  if (!best) return Err("no spare candidate on the fabric");
  return *best;
}

void free_tiles(const Fabric& fab, std::vector<GlobalTile>& out) {
  out.clear();
  for (fabric::WaferId wafer = 0; wafer < fab.wafer_count(); ++wafer) {
    const auto& w = fab.wafer(wafer);
    for (fabric::TileId t = 0; t < w.tile_count(); ++t) {
      if (w.tile(t).tx_used() == 0 && w.tile(t).rx_used() == 0) out.push_back({wafer, t});
    }
  }
}

}  // namespace lp::routing
