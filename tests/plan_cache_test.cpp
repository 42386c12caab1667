// Differential correctness harness for the plan cache: a cached planner and
// a fresh planner driven through the same randomized sequence of plan /
// release / fault-apply / fault-revert operations on mirror fabrics must
// produce bit-identical PlanReports and bit-identical resource ledgers at
// every step.  The cache may only change *how fast* a plan is found, never
// *which* plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/planner.hpp"
#include "routing/repair.hpp"
#include "runtime/recovery.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::routing {
namespace {

using fabric::Direction;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::GlobalTile;
using fabric::TileId;

FabricConfig two_wafer_config() {
  FabricConfig config;
  config.wafer.rows = 4;
  config.wafer.cols = 8;
  config.wafer.lanes_per_edge = 64;
  config.wafer_count = 2;
  return config;
}

Fabric make_fabric() {
  Fabric fab{two_wafer_config()};
  fab.add_fiber_link({0, 7}, {1, 0}, 64);
  fab.add_fiber_link({0, 15}, {1, 8}, 64);
  return fab;
}

/// Reports must match field by field: same demands placed in the same
/// order, same failures, same programming cost.  CircuitIds are
/// allocation-order handles and are compared only for *count* (both sides
/// allocate in the same order, but absolute ids drift once release
/// patterns differ from circuit-id reuse... they don't here — still, the
/// demand sequence is the semantic content).
void expect_reports_equal(const PlanReport& cached, const PlanReport& fresh) {
  ASSERT_EQ(cached.placed.size(), fresh.placed.size());
  for (std::size_t i = 0; i < cached.placed.size(); ++i) {
    EXPECT_EQ(cached.placed[i].demand, fresh.placed[i].demand) << "index " << i;
  }
  ASSERT_EQ(cached.failed.size(), fresh.failed.size());
  for (std::size_t i = 0; i < cached.failed.size(); ++i) {
    EXPECT_EQ(cached.failed[i], fresh.failed[i]) << "index " << i;
  }
  EXPECT_EQ(cached.mzis_programmed, fresh.mzis_programmed);
  EXPECT_EQ(cached.reconfig_latency, fresh.reconfig_latency);
}

Demand random_demand(Rng& rng, std::uint32_t tiles, std::uint32_t wafers) {
  Demand d;
  d.src.wafer = static_cast<fabric::WaferId>(rng.uniform_index(wafers));
  // Mostly same-wafer demands: cross-wafer exercises the fiber path but
  // same-wafer is where route memoization lives.
  d.dst.wafer = rng.bernoulli(0.2)
                    ? static_cast<fabric::WaferId>(rng.uniform_index(wafers))
                    : d.src.wafer;
  d.src.tile = static_cast<TileId>(rng.uniform_index(tiles));
  do {
    d.dst.tile = static_cast<TileId>(rng.uniform_index(tiles));
  } while (d.dst == d.src);
  d.wavelengths = 1 + static_cast<std::uint32_t>(rng.uniform_index(3));
  return d;
}

std::vector<Demand> random_demand_set(Rng& rng, std::size_t max_size,
                                      std::uint32_t tiles, std::uint32_t wafers) {
  const std::size_t n = 1 + rng.uniform_index(max_size);
  std::vector<Demand> demands;
  demands.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    demands.push_back(random_demand(rng, tiles, wafers));
  }
  return demands;
}

fault::Fault quarantine_fault(Rng& rng, std::uint32_t tiles) {
  fault::Fault f;
  f.kind = fault::FaultKind::kMziStuck;
  f.tile = GlobalTile{0, static_cast<TileId>(rng.uniform_index(tiles))};
  f.direction = static_cast<Direction>(rng.uniform_index(4));
  return f;
}

// --- The differential suite ------------------------------------------------

TEST(PlanCacheDifferential, CachedEqualsFreshOver200RandomizedCases) {
  constexpr std::size_t kCases = 200;
  constexpr std::size_t kRoundsPerCase = 6;
  std::uint64_t total_hits = 0;

  for (std::size_t c = 0; c < kCases; ++c) {
    Rng rng{util::task_seed(0xd1ffu, c)};
    Fabric cached_fab = make_fabric();
    Fabric fresh_fab = make_fabric();
    PlanCache cache{cached_fab};
    CircuitPlanner fresh{fresh_fab};
    const std::uint32_t tiles = cached_fab.wafer(0).tile_count();

    std::vector<std::vector<Demand>> live_sets;
    std::vector<PlanReport> cached_live;
    std::vector<PlanReport> fresh_live;
    fault::FaultSet faults_cached;
    fault::FaultSet faults_fresh;
    bool faults_on = false;

    auto plan_both = [&](const std::vector<Demand>& demands) {
      PlanReport rc = cache.place_all(demands);
      PlanReport rf = fresh.place_all(demands);
      expect_reports_equal(rc, rf);
      ASSERT_EQ(cached_fab.ledger_digest(), fresh_fab.ledger_digest())
          << "mirror fabrics diverged after planning";
      live_sets.push_back(demands);
      cached_live.push_back(std::move(rc));
      fresh_live.push_back(std::move(rf));
    };
    auto release_index = [&](std::size_t i) {
      cache.release_all(cached_live[i]);
      fresh.release_all(fresh_live[i]);
      ASSERT_EQ(cached_fab.ledger_digest(), fresh_fab.ledger_digest())
          << "mirror fabrics diverged after release";
      live_sets.erase(live_sets.begin() + static_cast<std::ptrdiff_t>(i));
      cached_live.erase(cached_live.begin() + static_cast<std::ptrdiff_t>(i));
      fresh_live.erase(fresh_live.begin() + static_cast<std::ptrdiff_t>(i));
    };

    for (std::size_t round = 0; round < kRoundsPerCase; ++round) {
      const double action = rng.uniform();
      if (action < 0.5 || live_sets.empty()) {
        plan_both(random_demand_set(rng, 12, tiles, 2));
      } else if (action < 0.8) {
        release_index(rng.uniform_index(live_sets.size()));
      } else if (!faults_on) {
        // Mid-sequence fault: both fabrics quarantine identically, and the
        // cached side's epoch bump forbids replaying pre-fault plans.
        const fault::Fault f = quarantine_fault(rng, tiles);
        faults_cached.add(f);
        faults_fresh.add(f);
        faults_cached.apply_to(cached_fab);
        faults_fresh.apply_to(fresh_fab);
        faults_on = true;
        ASSERT_EQ(cached_fab.ledger_digest(), fresh_fab.ledger_digest());
      } else {
        faults_cached.revert(cached_fab);
        faults_fresh.revert(fresh_fab);
        faults_on = false;
        ASSERT_EQ(cached_fab.ledger_digest(), fresh_fab.ledger_digest());
      }
    }

    // Guaranteed-hit tail: plan a probe set, release it (which restores the
    // exact pre-plan ledger), and plan it again.  No epoch bump happens in
    // between, so the second plan MUST be a cache hit.
    {
      const std::vector<Demand> probe = random_demand_set(rng, 8, tiles, 2);
      const std::uint64_t hits_before = cache.stats().hits;
      plan_both(probe);
      release_index(live_sets.size() - 1);
      plan_both(probe);
      EXPECT_EQ(cache.stats().hits, hits_before + 1)
          << "case " << c << ": replay after exact ledger restore must hit";
    }
    while (!live_sets.empty()) release_index(live_sets.size() - 1);

    total_hits += cache.stats().hits;
    EXPECT_EQ(cache.stats().replay_aborts, 0u) << "case " << c;
  }
  EXPECT_GT(total_hits, 0u) << "the differential suite never exercised a hit";
}

// --- Fingerprint and invalidation unit tests -------------------------------

TEST(PlanCache, FingerprintIsOrderInsensitive) {
  const Demand a{{0, 1}, {0, 5}, 2};
  const Demand b{{0, 9}, {0, 3}, 1};
  const Demand c{{1, 2}, {0, 7}, 4};
  EXPECT_EQ(PlanCache::demand_fingerprint({a, b, c}),
            PlanCache::demand_fingerprint({c, a, b}));
  EXPECT_NE(PlanCache::demand_fingerprint({a, b}), PlanCache::demand_fingerprint({a, c}));
  // Multiset-sensitive: duplicates are not absorbed.
  EXPECT_NE(PlanCache::demand_fingerprint({a, a}), PlanCache::demand_fingerprint({a}));
}

TEST(PlanCache, SecondIdenticalPlanHits) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::vector<Demand> demands{{{0, 0}, {0, 31}, 2}, {{0, 8}, {0, 23}, 1}};
  PlanReport first = cache.place_all(demands);
  cache.release_all(first);
  PlanReport second = cache.place_all(demands);
  cache.release_all(second);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  expect_reports_equal(second, first);
}

TEST(PlanCache, EpochBumpInvalidates) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::vector<Demand> demands{{{0, 0}, {0, 31}, 2}};
  cache.release_all(cache.place_all(demands));
  fab.bump_epoch();  // stands in for any fault/repair/swap event
  cache.release_all(cache.place_all(demands));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().epoch_invalidations, 1u);
}

TEST(PlanCache, ForeignReservationForcesReplan) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::vector<Demand> demands{{{0, 0}, {0, 7}, 1}};
  cache.release_all(cache.place_all(demands));
  // Another tenant reserves lanes directly — no epoch bump, but the ledger
  // digest changes, so revalidate-on-use must reject the entry.
  ASSERT_TRUE(fab.wafer(0).reserve_lanes(0, Direction::kEast, 3));
  cache.release_all(cache.place_all(demands));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().digest_mismatches, 1u);
  fab.wafer(0).release_lanes(0, Direction::kEast, 3);
}

TEST(PlanCache, FaultQuarantineNeverReplaysStaleRoute) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::vector<Demand> demands{{{0, 0}, {0, 2}, 1}};  // straight east run
  PlanReport before = cache.place_all(demands);
  ASSERT_TRUE(before.complete());
  cache.release_all(before);

  // Stick the MZI on the direct path; the edge is quarantined.
  fault::FaultSet faults;
  fault::Fault f;
  f.kind = fault::FaultKind::kMziStuck;
  f.tile = GlobalTile{0, 1};
  f.direction = Direction::kEast;
  faults.add(f);
  faults.apply_to(fab);

  PlanReport after = cache.place_all(demands);
  EXPECT_EQ(cache.stats().hits, 0u) << "stale plan replayed across a fault";
  ASSERT_TRUE(after.complete());
  // The replacement route must detour around the quarantined edge.
  const fabric::Circuit* c = fab.circuit(after.placed[0].id);
  ASSERT_NE(c, nullptr);
  EXPECT_GT(c->segments.front().hops.size(), 2u);
  cache.release_all(after);
  faults.revert(fab);
}

TEST(PlanCache, EvictionKeepsCacheBounded) {
  Fabric fab = make_fabric();
  PlanCache cache{fab, RouteOptions{}, /*max_entries=*/4};
  for (std::uint32_t i = 0; i < 12; ++i) {
    const std::vector<Demand> demands{{{0, i}, {0, 31 - i}, 1}};
    cache.release_all(cache.place_all(demands));
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

// A stitch ring with no demand (a single-fragment morph) has nothing to
// plan or replay: it must neither count a lookup nor take an LRU slot.
TEST(PlanCache, EmptyDemandSetRecordsNothing) {
  Fabric fab = make_fabric();
  PlanCache cache{fab, RouteOptions{}, /*max_entries=*/1};
  const std::vector<Demand> real{{{0, 0}, {0, 31}, 1}};
  cache.release_all(cache.place_all(real));
  const std::uint64_t key = fab.ledger_key();
  for (int round = 0; round < 3; ++round) {
    const PlanReport report = cache.place_all({});
    EXPECT_TRUE(report.placed.empty());
    EXPECT_TRUE(report.failed.empty());
    EXPECT_EQ(report.mzis_programmed, 0u);
    EXPECT_EQ(report.reconfig_latency, Duration::zero());
    EXPECT_EQ(fab.ledger_key(), key);
  }
  const PlanCacheStats& s = cache.stats();
  EXPECT_EQ(s.misses, 1u) << "only the real plan was looked up";
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u) << "the real plan keeps the cache's only slot";
  EXPECT_EQ(cache.size(), 1u);
  cache.release_all(cache.place_all(real));
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- route_for (the repair ladder's entry point) ---------------------------

TEST(PlanCache, OffFabricDemandFailsWithoutSideEffects) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::uint64_t key = fab.ledger_key();
  const std::vector<Demand> off{Demand{{0, 42}, {0, 1}, 1}, Demand{{2, 0}, {2, 3}, 1},
                                Demand{{0, 3}, {2, 3}, 1}};
  for (int round = 0; round < 2; ++round) {  // a fresh plan, then its replay
    const PlanReport report = cache.place_all(off);
    EXPECT_TRUE(report.placed.empty());
    EXPECT_EQ(report.failed, plan_order(fab, off));
    EXPECT_EQ(fab.active_circuits(), 0u);
    EXPECT_EQ(fab.ledger_key(), key);
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PlanCacheRouteFor, MatchesFindRouteAndMemoizes) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const Demand d{{0, 0}, {0, 31}, 2};
  RouteOptions opts;
  opts.lanes = d.wavelengths;
  const auto direct = find_route(fab.wafer(0), d.src.tile, d.dst.tile, opts);
  ASSERT_TRUE(direct.has_value());
  // Each view is read before the next call into the cache.
  const auto first = cache.route_for(d);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(std::ranges::equal(*first, *direct));
  const auto second = cache.route_for(d);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(std::ranges::equal(*second, *direct));
  EXPECT_EQ(cache.stats().route_misses, 1u);
  EXPECT_EQ(cache.stats().route_hits, 1u);
}

TEST(PlanCacheRouteFor, CrossWaferIsNotMemoized) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  EXPECT_FALSE(cache.route_for(Demand{{0, 7}, {1, 0}, 1}).has_value());
  EXPECT_EQ(cache.stats().route_hits, 0u);
  EXPECT_EQ(cache.stats().route_misses, 0u);
}

TEST(PlanCacheRouteFor, OffFabricDemandHasNoRoute) {
  // Two 4x8 wafers: tile 42 and wafer 2 are off the fabric.
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::uint64_t key = fab.ledger_key();
  EXPECT_FALSE(cache.route_for(Demand{{0, 42}, {0, 1}, 1}).has_value());
  EXPECT_FALSE(cache.route_for(Demand{{1, 3}, {1, 42}, 1}).has_value());
  EXPECT_FALSE(cache.route_for(Demand{{2, 0}, {2, 3}, 1}).has_value());
  EXPECT_EQ(cache.stats().route_hits, 0u);
  EXPECT_EQ(cache.stats().route_misses, 0u);
  EXPECT_EQ(fab.ledger_key(), key);
}

TEST(PlanCacheRouteFor, LedgerChangeForcesFreshSearch) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const Demand d{{0, 0}, {0, 7}, 1};
  ASSERT_TRUE(cache.route_for(d).has_value());
  ASSERT_TRUE(fab.wafer(0).reserve_lanes(0, Direction::kEast, 1));
  ASSERT_TRUE(cache.route_for(d).has_value());
  EXPECT_EQ(cache.stats().route_misses, 2u);
  EXPECT_EQ(cache.stats().route_hits, 0u);
  fab.wafer(0).release_lanes(0, Direction::kEast, 1);
}

// --- Through the repair ladder and recovery driver -------------------------

TEST(PlanCacheRepair, EscalateRepairThroughCacheMatchesWithout) {
  // Mirror fabrics, same degraded circuit; one ladder routes through the
  // cache, the other fresh.  Outcomes must be identical.
  Fabric with_cache = make_fabric();
  Fabric without = make_fabric();
  PlanCache cache{with_cache};

  auto break_one = [](Fabric& fab) {
    auto id = fab.connect({0, 0}, {0, 3}, 1);
    EXPECT_TRUE(id.ok());
    return id.value();
  };
  const fabric::CircuitId id_a = break_one(with_cache);
  const fabric::CircuitId id_b = break_one(without);

  DegradedCircuit victim_a;
  victim_a.id = id_a;
  victim_a.hard_down = true;
  DegradedCircuit victim_b = victim_a;
  victim_b.id = id_b;

  EscalationOptions opts_a;
  opts_a.cache = &cache;
  const EscalationOptions opts_b;  // no cache

  const auto out_a = escalate_repair(with_cache, victim_a, opts_a);
  const auto out_b = escalate_repair(without, victim_b, opts_b);
  EXPECT_EQ(out_a.recovered, out_b.recovered);
  EXPECT_EQ(out_a.rung, out_b.rung);
  EXPECT_EQ(out_a.latency, out_b.latency);
  EXPECT_EQ(out_a.attempts, out_b.attempts);
  EXPECT_EQ(with_cache.ledger_digest(), without.ledger_digest());
  EXPECT_EQ(cache.stats().route_misses, 1u);
}

TEST(PlanCacheRepair, SuccessfulRungBumpsEpoch) {
  Fabric fab = make_fabric();
  auto id = fab.connect({0, 0}, {0, 3}, 1);
  ASSERT_TRUE(id.ok());
  const std::uint64_t before = fab.epoch();
  DegradedCircuit victim;
  victim.id = id.value();
  victim.hard_down = true;
  const auto out = escalate_repair(fab, victim, {});
  ASSERT_TRUE(out.recovered);
  EXPECT_GT(fab.epoch(), before);
}

TEST(PlanCacheRepair, RepeatedBudgetExhaustedClimbsSearchAndValidateOnce) {
  // drive_recovery re-climbs against an unchanged ledger after every
  // budget-exhausted climb.  Rung 2 probes each strategy once for the whole
  // recovery and replays the outcome on later climbs: one route search, and
  // one validation per strategy.
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  auto id = fab.connect({0, 0}, {0, 31}, 1);
  ASSERT_TRUE(id.ok());

  DegradedCircuit victim;
  victim.id = id.value();
  victim.budget_failed = true;

  EscalationOptions opts;
  opts.cache = &cache;
  // Reject every replacement so no rung ever commits (no epoch bump, exact
  // ledger restore); a tiny per-climb budget forces repeat climbs.
  auto validations = std::make_shared<std::uint32_t>(0);
  opts.validate = [validations](const Fabric&, fabric::CircuitId) {
    ++*validations;
    return false;
  };

  runtime::RecoveryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_factor = 1.0;  // keep every climb identically budgeted
  policy.initial_budget = Duration::micros(5.0);
  const auto res = runtime::drive_recovery(fab, victim, policy, opts);
  EXPECT_FALSE(res.recovered);
  EXPECT_EQ(res.climbs, 3u);
  EXPECT_EQ(res.rung_attempts[rung_index(RepairRung::kReroute)], 6u)
      << "both strategies are attempted, and charged, on every climb";
  EXPECT_EQ(cache.stats().route_misses, 1u);
  EXPECT_EQ(cache.stats().route_hits, 0u)
      << "later climbs replay the router strategy's probe instead of searching";
  EXPECT_EQ(*validations, 2u) << "one validation per strategy for the whole recovery";
}

// --- Quarantine view (gray failures; fault/health.hpp FlapDamper) ----------

TEST(PlanCacheQuarantine, RejectsWithoutBumpingTheEpoch) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const Demand d{{0, 0}, {0, 3}, 1};  // straight east run on row 0
  ASSERT_TRUE(cache.route_for(d).has_value());
  EXPECT_EQ(cache.stats().route_misses, 1u);

  const std::uint64_t epoch_before = fab.epoch();
  cache.set_quarantine([](GlobalTile t, Direction dir) {
    return t.wafer == 0 && t.tile == 1 && dir == Direction::kEast;
  });
  // The memoized hop path crosses tile 1's east port: the lookup must be
  // rejected as a *view* decision -- no epoch bump, entry kept.
  EXPECT_FALSE(cache.route_for(d).has_value());
  EXPECT_EQ(fab.epoch(), epoch_before) << "quarantine must never bump the epoch";
  EXPECT_GE(cache.stats().quarantine_rejections, 1u);

  // Lifting the quarantine makes the cache warm again instantly: the same
  // entry replays as a hit, not a fresh search.
  cache.set_quarantine(nullptr);
  ASSERT_TRUE(cache.route_for(d).has_value());
  EXPECT_EQ(cache.stats().route_misses, 1u) << "entry must survive the quarantine";
  EXPECT_GE(cache.stats().route_hits, 1u);
}

TEST(PlanCacheQuarantine, EntryPortOfEachHopIsCheckedToo) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const Demand d{{0, 0}, {0, 3}, 1};
  ASSERT_TRUE(cache.route_for(d).has_value());
  // Quarantine the receive side of the first hop (tile 1's *west* port):
  // walking the path must test the entry port via opposite(d) as well.
  cache.set_quarantine([](GlobalTile t, Direction dir) {
    return t.wafer == 0 && t.tile == 1 && dir == Direction::kWest;
  });
  EXPECT_FALSE(cache.route_for(d).has_value());
  EXPECT_GE(cache.stats().quarantine_rejections, 1u);
}

TEST(PlanCacheQuarantine, PlaceAllFallsThroughForQuarantinedPaths) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  const std::vector<Demand> demands{{{0, 0}, {0, 3}, 1}};
  cache.release_all(cache.place_all(demands));
  cache.set_quarantine([](GlobalTile t, Direction dir) {
    return t.wafer == 0 && t.tile == 1 && dir == Direction::kEast;
  });
  // The memoized plan crosses the quarantined port: replay is rejected and
  // the planner runs fresh (which may route around or fail to place), but
  // the cache entry and epoch survive untouched.
  const std::uint64_t epoch_before = fab.epoch();
  PlanReport replanned = cache.place_all(demands);
  cache.release_all(replanned);
  EXPECT_EQ(fab.epoch(), epoch_before);
  EXPECT_GE(cache.stats().quarantine_rejections, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// --- Pinned decisions ------------------------------------------------------
//
// One scripted sequence through every decision the cache makes: a churn of
// recurring demand sets, a fault apply/revert, foreign reservations that
// move the ledger without an epoch bump, and route_for retries under a
// quarantine view.  The counters after each phase were recorded from the
// build that revalidated by re-folding the full ledger digest on every
// lookup; whatever revalidation uses must make exactly the same hit/miss
// decisions.

using DecisionCounts = std::array<std::uint64_t, 7>;

DecisionCounts decisions(const PlanCacheStats& s) {
  return {s.hits,       s.misses,       s.epoch_invalidations, s.digest_mismatches,
          s.route_hits, s.route_misses, s.quarantine_rejections};
}

TEST(PlanCacheDecisions, ScriptedSequenceMatchesPinnedCounters) {
  Fabric fab = make_fabric();
  PlanCache cache{fab};
  Rng rng{0x5eedc0deULL};
  const std::uint32_t tiles = fab.wafer(0).tile_count();

  std::vector<std::vector<Demand>> sets;
  for (int i = 0; i < 5; ++i) sets.push_back(random_demand_set(rng, 6, tiles, 2));

  // Churn: recurring sets, with zero to two older sets still live.
  std::vector<PlanReport> live;
  for (int round = 0; round < 40; ++round) {
    live.push_back(cache.place_all(sets[rng.uniform_index(sets.size())]));
    const std::size_t keep = rng.uniform_index(3);
    while (live.size() > keep) {
      cache.release_all(live.front());
      live.erase(live.begin());
    }
  }
  EXPECT_EQ(decisions(cache.stats()), (DecisionCounts{16, 24, 0, 72, 0, 0, 0}))
      << "after churn";

  // Fault apply/revert: each bumps the epoch, so every set misses once and
  // then replays against the faulted (or restored) ledger.
  fault::FaultSet faults;
  fault::Fault stuck;
  stuck.kind = fault::FaultKind::kMziStuck;
  stuck.tile = GlobalTile{0, 10};
  stuck.direction = Direction::kEast;
  faults.add(stuck);
  fault::Fault lasers;
  lasers.kind = fault::FaultKind::kLaserLoss;
  lasers.tile = GlobalTile{0, 3};
  lasers.dead_lasers = 5;
  faults.add(lasers);
  fault::Fault death;
  death.kind = fault::FaultKind::kChipDeath;
  death.tile = GlobalTile{1, 12};
  faults.add(death);
  const auto place_every_set_twice = [&] {
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& set : sets) cache.release_all(cache.place_all(set));
    }
  };
  faults.apply_to(fab);
  place_every_set_twice();
  faults.revert(fab);
  place_every_set_twice();
  EXPECT_EQ(decisions(cache.stats()), (DecisionCounts{26, 34, 29, 72, 0, 0, 0}))
      << "after fault apply/revert";

  // Foreign reservations: lanes taken directly and a circuit set up behind
  // the cache's back.  Neither bumps the epoch; both must fail
  // revalidation, and undoing them must make the old entries replay.
  ASSERT_TRUE(fab.wafer(0).reserve_lanes(9, Direction::kSouth, 5));
  const auto foreign = fab.connect({1, 3}, {0, 20}, 2);
  ASSERT_TRUE(foreign.ok());
  for (const auto& set : sets) cache.release_all(cache.place_all(set));
  fab.disconnect(foreign.value());
  fab.wafer(0).release_lanes(9, Direction::kSouth, 5);
  for (const auto& set : sets) cache.release_all(cache.place_all(set));
  EXPECT_EQ(decisions(cache.stats()), (DecisionCounts{31, 39, 29, 77, 0, 0, 0}))
      << "after foreign reservations";

  // route_for retries under a quarantine view, the way a naive controller
  // retries: set up the route it returns, tear it down again (restoring the
  // ledger), ask again.  A foreign reservation in the middle of a retry
  // round must force fresh searches; lifting the quarantine must not.
  const std::vector<Demand> repairs{{{0, 8}, {0, 12}, 1},  {{0, 9}, {0, 27}, 2},
                                    {{0, 0}, {0, 31}, 1},  {{0, 11}, {0, 10}, 1},
                                    {{1, 4}, {1, 20}, 3},  {{0, 2}, {1, 2}, 1}};
  cache.set_quarantine([](GlobalTile t, Direction d) {
    return t.wafer == 0 && ((t.tile == 10 && d == Direction::kEast) ||
                            (t.tile == 17 && d == Direction::kNorth));
  });
  for (int retry = 0; retry < 4; ++retry) {
    if (retry == 2) {
      ASSERT_TRUE(fab.wafer(0).reserve_lanes(16, Direction::kEast, 7));
    }
    for (const Demand& d : repairs) {
      const auto hops = cache.route_for(d);
      if (!hops) continue;
      const auto id = fab.connect_via(d.src, d.dst, *hops, d.wavelengths);
      ASSERT_TRUE(id.ok());
      fab.disconnect(id.value());
    }
    if (retry == 2) fab.wafer(0).release_lanes(16, Direction::kEast, 7);
  }
  cache.set_quarantine(nullptr);
  for (const Demand& d : repairs) static_cast<void>(cache.route_for(d));
  EXPECT_EQ(decisions(cache.stats()), (DecisionCounts{31, 39, 29, 77, 6, 19, 12}))
      << "after route_for retries";

  while (!live.empty()) {
    cache.release_all(live.back());
    live.pop_back();
  }
  EXPECT_EQ(cache.stats().replay_aborts, 0u);
}

}  // namespace
}  // namespace lp::routing
