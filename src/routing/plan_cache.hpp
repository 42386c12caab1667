// Memoizing front-end for CircuitPlanner: (demand-set fingerprint,
// fabric epoch) -> placed routes, with revalidate-on-use invalidation.
//
// The paper's §5 centralized controller re-solves wavelength/lane
// assignment from scratch on every reconfiguration.  Under churn (jobs
// arriving/leaving, Morphlux-style slice morphing, fault recovery) the
// same demand sets recur against the same ledger states, so the Dijkstra
// searches — the dominant cost — are pure waste.  The cache memoizes the
// *hop sequences* a fresh plan produced and replays them through
// Fabric::connect_via / Fabric::connect, skipping route search entirely.
//
// Correctness contract (see DESIGN.md §8): fresh planning is a
// deterministic pure function of (demand multiset, resource ledger).
// A memoized plan is replayed only when ALL of
//   1. the fabric epoch matches (no fault apply/revert, repair rung,
//      spare swap, or fiber up/down since the plan was recorded),
//   2. Fabric::ledger_key() matches (identical lane/Tx/Rx/fiber occupancy —
//      revalidate-on-use).  The key is maintained on every ledger write and
//      is a function of the state, not of the writes that led to it, so a
//      connect-then-disconnect in between still hits; checking it costs
//      O(wafers + links), not a re-fold of the whole ledger, and
//   3. the plan-ordered demand vector compares equal (never trust the
//      fingerprint hash alone),
// hold — under which replay is provably identical to fresh planning.
// Anything else is a miss and plans fresh; invalidation is conservative
// (a bump can only cost a miss, never a wrong plan).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "lightpath/fabric.hpp"
#include "routing/planner.hpp"
#include "routing/router.hpp"

namespace lp::routing {

struct PlanCacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  /// Lookups rejected because the entry was recorded under an older epoch.
  std::uint64_t epoch_invalidations{0};
  /// Lookups rejected by revalidate-on-use: epoch matched but the ledger
  /// (compared by Fabric::ledger_key) did not (e.g. a foreign reservation
  /// moved lanes).
  std::uint64_t digest_mismatches{0};
  /// Replays that aborted mid-way (should be zero: an equal ledger makes
  /// every connect succeed; counted for defense in depth).
  std::uint64_t replay_aborts{0};
  std::uint64_t evictions{0};
  /// Single-route memo (route_for) counters, used by the repair ladder.
  std::uint64_t route_hits{0};
  std::uint64_t route_misses{0};
  /// Lookups rejected because the memoized (or freshly found) path crosses
  /// a quarantined component (set_quarantine).  Quarantine is a *view*, not
  /// an invalidation: the entry survives untouched for when the quarantine
  /// lifts, and the fabric epoch is never bumped.
  std::uint64_t quarantine_rejections{0};
};

/// Caching wrapper over CircuitPlanner.  Not thread-safe; each planning
/// context owns its own cache, as it owns its own fabric.
class PlanCache {
 public:
  explicit PlanCache(fabric::Fabric& fab, RouteOptions options = {},
                     std::size_t max_entries = 1024);

  /// Drop-in replacement for CircuitPlanner::place_all.  On a validated
  /// hit, replays the memoized routes; otherwise plans fresh and records
  /// the result.  Reports are bit-identical to the fresh planner's either
  /// way (modulo CircuitIds, which are allocation-order handles).  An empty
  /// demand set returns an empty report without a lookup, an entry or a
  /// count in stats().
  [[nodiscard]] PlanReport place_all(const std::vector<Demand>& demands);

  /// Tears down everything a report placed.
  void release_all(const PlanReport& report);

  /// Memoized single-demand route for the repair ladder: same-wafer hop
  /// sequence find_route would produce right now, or nullopt if no route
  /// (or the demand is cross-wafer, which has no hop-path to memoize, or
  /// has an endpoint off the fabric).
  /// Validated by the same epoch + ledger-key rule as full plans.  The hops
  /// are a view of the memo entry, valid until the next call into the
  /// cache, so a hit copies nothing.
  [[nodiscard]] std::optional<std::span<const fabric::Direction>> route_for(
      const Demand& demand);

  /// True when the component (a tile's directed port) is quarantined by the
  /// flap damper and must not carry new circuits.
  using QuarantinePredicate = std::function<bool(fabric::GlobalTile, fabric::Direction)>;

  /// Installs (or clears, with nullptr) the quarantine view.  Memoized hop
  /// paths that touch a quarantined port are rejected at lookup time —
  /// place_all falls through to fresh planning, route_for returns nullopt —
  /// but the entries themselves are kept and the fabric epoch is NOT
  /// bumped: when the quarantine lifts the cache is warm again instantly.
  void set_quarantine(QuarantinePredicate quarantine);

  [[nodiscard]] const PlanCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entry_count_; }

  /// Order-insensitive fingerprint of a demand multiset: commutative sum
  /// of per-demand splitmix-finalized hashes.  Collisions are tolerated —
  /// every hit compares the plan-ordered demand vectors before replay.
  [[nodiscard]] static std::uint64_t demand_fingerprint(
      const std::vector<Demand>& demands);

 private:
  struct Step {
    Demand demand{};
    bool cross_wafer{false};
    /// Same-wafer only: the memoized hop path.
    std::vector<fabric::Direction> hops;
  };
  struct Entry {
    std::uint64_t epoch{0};
    std::uint64_t ledger_key{0};
    std::vector<Demand> ordered;  ///< plan_order of the recorded demand set
    std::vector<Step> placed;     ///< in commit order
    std::vector<Demand> failed;   ///< in plan order
    std::uint64_t last_use{0};
  };
  struct RouteEntry {
    std::uint64_t epoch{0};
    std::uint64_t ledger_key{0};
    Demand demand{};
    std::optional<std::vector<fabric::Direction>> hops;
    std::uint64_t last_use{0};
  };

  [[nodiscard]] std::optional<PlanReport> try_replay(Entry& entry);
  /// Whether a same-wafer hop path touches any quarantined port (both the
  /// exit port of each tile left and the entry port of each tile reached).
  [[nodiscard]] bool path_quarantined(fabric::GlobalTile src,
                                      std::span<const fabric::Direction> hops) const;
  void remember(std::uint64_t fingerprint, std::uint64_t epoch, std::uint64_t ledger_key,
                std::vector<Demand> ordered, const PlanReport& report);
  void evict_if_needed();

  fabric::Fabric& fabric_;
  CircuitPlanner planner_;
  RouteOptions options_;
  std::size_t max_entries_;
  /// fingerprint -> entries (several may share a fingerprint: same demand
  /// set recorded against distinct ledger states, or a rare collision).
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  std::unordered_map<std::uint64_t, std::vector<RouteEntry>> routes_;
  std::size_t entry_count_{0};
  std::uint64_t use_clock_{0};
  QuarantinePredicate quarantine_;
  PlanCacheStats stats_;
};

}  // namespace lp::routing
