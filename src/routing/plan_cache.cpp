#include "routing/plan_cache.hpp"

#include <algorithm>

namespace lp::routing {

namespace {

[[nodiscard]] std::uint64_t demand_hash(const Demand& d) {
  std::uint64_t h = 0;
  h = fabric::hash_mix(h, d.src.wafer);
  h = fabric::hash_mix(h, d.src.tile);
  h = fabric::hash_mix(h, d.dst.wafer);
  h = fabric::hash_mix(h, d.dst.tile);
  h = fabric::hash_mix(h, d.wavelengths);
  return fabric::splitmix64(h);
}

/// A view of a memoized route; nullopt for a memoized "no route".
[[nodiscard]] std::optional<std::span<const fabric::Direction>> view_of(
    const std::optional<std::vector<fabric::Direction>>& hops) {
  if (!hops) return std::nullopt;
  return std::span<const fabric::Direction>{*hops};
}

}  // namespace

PlanCache::PlanCache(fabric::Fabric& fab, RouteOptions options, std::size_t max_entries)
    : fabric_{fab},
      planner_{fab, options},
      options_{options},
      max_entries_{std::max<std::size_t>(max_entries, 1)} {}

std::uint64_t PlanCache::demand_fingerprint(const std::vector<Demand>& demands) {
  // Commutative sum of avalanched per-demand hashes: order-insensitive and
  // multiset-sensitive (duplicates shift the sum).  Collisions are handled
  // by the ordered-demand comparison on every hit, never assumed away.
  std::uint64_t sum = 0;
  for (const Demand& d : demands) sum += demand_hash(d);
  return sum;
}

void PlanCache::set_quarantine(QuarantinePredicate quarantine) {
  quarantine_ = std::move(quarantine);
}

bool PlanCache::path_quarantined(fabric::GlobalTile src,
                                 std::span<const fabric::Direction> hops) const {
  if (!quarantine_) return false;
  const fabric::Wafer& w = fabric_.wafer(src.wafer);
  fabric::TileId at = src.tile;
  for (fabric::Direction d : hops) {
    if (quarantine_(fabric::GlobalTile{src.wafer, at}, d)) return true;
    const auto n = w.neighbor(at, d);
    if (!n) return false;  // malformed path; the connect will reject it anyway
    if (quarantine_(fabric::GlobalTile{src.wafer, *n}, fabric::opposite(d))) return true;
    at = *n;
  }
  return false;
}

PlanReport PlanCache::place_all(const std::vector<Demand>& demands) {
  // Nothing to plan or replay: no lookup, no entry, no count.
  if (demands.empty()) return {};
  const std::uint64_t fp = demand_fingerprint(demands);
  const std::uint64_t epoch = fabric_.epoch();
  const std::uint64_t key = fabric_.ledger_key();
  std::vector<Demand> ordered = plan_order(fabric_, demands);

  if (const auto it = entries_.find(fp); it != entries_.end()) {
    // Entries recorded under an older epoch can never validate again
    // (the epoch is monotonic) — prune them as we encounter them.
    const std::size_t before = it->second.size();
    std::erase_if(it->second, [&](const Entry& e) { return e.epoch != epoch; });
    const std::size_t pruned = before - it->second.size();
    stats_.epoch_invalidations += pruned;
    entry_count_ -= pruned;
    for (Entry& entry : it->second) {
      if (entry.ordered != ordered) continue;  // fingerprint collision
      if (entry.ledger_key != key) {
        ++stats_.digest_mismatches;
        continue;
      }
      // Quarantine pre-check before any circuit is established: a memoized
      // path through a dampened port must not be replayed, but the entry
      // stays recorded (and the epoch untouched) for when the hold lifts.
      if (quarantine_ && std::any_of(entry.placed.begin(), entry.placed.end(),
                                     [&](const Step& s) {
                                       return !s.cross_wafer &&
                                              path_quarantined(s.demand.src, s.hops);
                                     })) {
        ++stats_.quarantine_rejections;
        continue;
      }
      if (auto replayed = try_replay(entry)) {
        ++stats_.hits;
        entry.last_use = ++use_clock_;
        return std::move(*replayed);
      }
      ++stats_.replay_aborts;
    }
    if (it->second.empty()) entries_.erase(it);
  }

  ++stats_.misses;
  PlanReport report = planner_.place_ordered(ordered);
  remember(fp, epoch, key, std::move(ordered), report);
  return report;
}

std::optional<PlanReport> PlanCache::try_replay(Entry& entry) {
  PlanReport report;
  report.placed.reserve(entry.placed.size());
  for (const Step& step : entry.placed) {
    Result<fabric::CircuitId> placed =
        step.cross_wafer
            ? fabric_.connect(step.demand.src, step.demand.dst, step.demand.wavelengths)
            : fabric_.connect_via(step.demand.src, step.demand.dst, step.hops,
                                  step.demand.wavelengths);
    if (!placed) {
      // Ledger-key equality should make this unreachable; if it ever trips,
      // roll back to the pre-call ledger and fall through to fresh planning.
      for (const auto& done : report.placed) fabric_.disconnect(done.id);
      return std::nullopt;
    }
    const fabric::Circuit* c = fabric_.circuit(placed.value());
    report.mzis_programmed += c != nullptr ? c->mzi_count : 0;
    report.placed.push_back(PlacedCircuit{step.demand, placed.value()});
  }
  report.failed = entry.failed;
  report.reconfig_latency = fabric_.reconfig().batch_latency(report.mzis_programmed);
  return report;
}

void PlanCache::remember(std::uint64_t fingerprint, std::uint64_t epoch,
                         std::uint64_t ledger_key, std::vector<Demand> ordered,
                         const PlanReport& report) {
  Entry entry;
  entry.epoch = epoch;
  entry.ledger_key = ledger_key;
  entry.ordered = std::move(ordered);
  entry.failed = report.failed;
  entry.placed.reserve(report.placed.size());
  for (const PlacedCircuit& p : report.placed) {
    const fabric::Circuit* c = fabric_.circuit(p.id);
    if (c == nullptr) return;  // caller already tore it down; nothing to memoize
    Step step;
    step.demand = p.demand;
    step.cross_wafer = c->fiber_hops > 0 || c->segments.size() != 1;
    if (!step.cross_wafer) step.hops = c->segments.front().hops;
    entry.placed.push_back(std::move(step));
  }
  entry.last_use = ++use_clock_;
  evict_if_needed();
  entries_[fingerprint].push_back(std::move(entry));
  ++entry_count_;
}

void PlanCache::evict_if_needed() {
  if (entry_count_ < max_entries_) return;
  // Evict the least-recently-used entry (linear scan: the cache is small
  // and eviction is rare relative to lookups).
  std::uint64_t oldest = ~std::uint64_t{0};
  std::uint64_t oldest_fp = 0;
  std::size_t oldest_idx = 0;
  for (const auto& [fp, vec] : entries_) {
    for (std::size_t i = 0; i < vec.size(); ++i) {
      if (vec[i].last_use < oldest) {
        oldest = vec[i].last_use;
        oldest_fp = fp;
        oldest_idx = i;
      }
    }
  }
  if (oldest == ~std::uint64_t{0}) return;
  auto& vec = entries_[oldest_fp];
  vec.erase(vec.begin() + static_cast<std::ptrdiff_t>(oldest_idx));
  if (vec.empty()) entries_.erase(oldest_fp);
  --entry_count_;
  ++stats_.evictions;
}

std::optional<std::span<const fabric::Direction>> PlanCache::route_for(
    const Demand& demand) {
  if (demand.src.wafer != demand.dst.wafer || !fabric_.contains(demand.src) ||
      !fabric_.contains(demand.dst)) {
    return std::nullopt;
  }
  const std::uint64_t epoch = fabric_.epoch();
  const std::uint64_t key = fabric_.ledger_key();

  auto& vec = routes_[demand_hash(demand)];
  std::erase_if(vec, [&](const RouteEntry& e) { return e.epoch != epoch; });
  for (RouteEntry& e : vec) {
    if (e.demand == demand && e.ledger_key == key) {
      // Revalidate against the current quarantine view.  A rejected memo is
      // NOT replaced: it is still the correct route for this ledger state
      // and becomes usable again the moment the quarantine lifts.
      if (e.hops && path_quarantined(demand.src, *e.hops)) {
        ++stats_.quarantine_rejections;
        return std::nullopt;
      }
      ++stats_.route_hits;
      e.last_use = ++use_clock_;
      return view_of(e.hops);
    }
  }

  ++stats_.route_misses;
  RouteOptions opts = options_;
  opts.lanes = demand.wavelengths;
  auto hops = find_route(fabric_.wafer(demand.src.wafer), demand.src.tile,
                         demand.dst.tile, opts);
  if (hops && path_quarantined(demand.src, *hops)) {
    // The only feasible route runs through a quarantined port: unusable for
    // now, and not memoized (the memo would just be rejected again).
    ++stats_.quarantine_rejections;
    return std::nullopt;
  }
  RouteEntry e;
  e.epoch = epoch;
  e.ledger_key = key;
  e.demand = demand;
  e.hops = std::move(hops);
  e.last_use = ++use_clock_;
  if (vec.size() >= 8) vec.erase(vec.begin());  // bounded per-key history
  vec.push_back(std::move(e));
  return view_of(vec.back().hops);
}

void PlanCache::release_all(const PlanReport& report) {
  planner_.release_all(report);
}

}  // namespace lp::routing
