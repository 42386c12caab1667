// Concurrency stress for the sharded lane ledger and the two-phase
// concurrent planner.  Run under TSan in CI (LIGHTPATH_SANITIZE=thread):
// the hammer tests exist to give the race detector real contention, and the
// planner tests pin the bit-identical-at-any-thread-count contract.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "lightpath/fabric.hpp"
#include "routing/concurrent_planner.hpp"
#include "routing/shard_ledger.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::routing {
namespace {

using fabric::Direction;
using fabric::Fabric;
using fabric::FabricConfig;
using fabric::GlobalTile;
using fabric::TileId;

FabricConfig grid_config(std::int32_t rows, std::int32_t cols, std::uint32_t lanes) {
  FabricConfig config;
  config.wafer.rows = rows;
  config.wafer.cols = cols;
  config.wafer.lanes_per_edge = lanes;
  config.wafer.tile.tx_wavelengths = 4096;
  config.wafer.tile.rx_wavelengths = 4096;
  config.wafer_count = 1;
  return config;
}

/// A deterministic staircase path (east, south, east, south, ...) from a
/// given tile, clipped at the wafer boundary — crosses quadrants, so every
/// reservation exercises the multi-shard lock path.
std::vector<Direction> staircase(const Fabric& fab, TileId from, std::size_t len) {
  std::vector<Direction> hops;
  std::int32_t row = static_cast<std::int32_t>(from) / fab.config().wafer.cols;
  std::int32_t col = static_cast<std::int32_t>(from) % fab.config().wafer.cols;
  for (std::size_t i = 0; i < len; ++i) {
    Direction d = i % 2 == 0 ? Direction::kEast : Direction::kSouth;
    std::int32_t nr = row + (d == Direction::kSouth ? 1 : 0);
    std::int32_t nc = col + (d == Direction::kEast ? 1 : 0);
    if (nc >= fab.config().wafer.cols) {
      d = Direction::kSouth;
      nr = row + 1;
      nc = col;
    }
    if (nr >= fab.config().wafer.rows) break;
    hops.push_back(d);
    row = nr;
    col = nc;
  }
  return hops;
}

// --- Shard mapping and atomicity unit tests --------------------------------

TEST(ShardedLaneLedger, QuadrantShardMapping) {
  const Fabric fab{grid_config(4, 4, 8)};
  const ShardedLaneLedger ledger{fab};
  EXPECT_EQ(ledger.shard_count(), 4u);
  EXPECT_EQ(ledger.shard_of(0, fab.wafer(0).tile_at({0, 0})), 0u);  // NW
  EXPECT_EQ(ledger.shard_of(0, fab.wafer(0).tile_at({0, 3})), 1u);  // NE
  EXPECT_EQ(ledger.shard_of(0, fab.wafer(0).tile_at({3, 0})), 2u);  // SW
  EXPECT_EQ(ledger.shard_of(0, fab.wafer(0).tile_at({3, 3})), 3u);  // SE
}

TEST(ShardedLaneLedger, ReserveIsAllOrNothing) {
  const Fabric fab{grid_config(4, 4, 2)};
  ShardedLaneLedger ledger{fab};
  const TileId a = fab.wafer(0).tile_at({0, 0});
  // Saturate one edge in the middle of the path-to-be.
  const TileId mid = fab.wafer(0).tile_at({0, 1});
  const std::vector<Direction> block{Direction::kEast};
  ASSERT_TRUE(ledger.try_reserve_path(0, mid, block, 2));

  const std::vector<Direction> path{Direction::kEast, Direction::kEast,
                                    Direction::kEast};
  EXPECT_FALSE(ledger.try_reserve_path(0, a, path, 1));
  // The hop before the blocked edge must have been rolled back.
  EXPECT_EQ(ledger.reserved(0, a, Direction::kEast), 0u);
  ledger.release_path(0, mid, block, 2);
  EXPECT_EQ(ledger.total_reserved(), 0u);
}

TEST(ShardedLaneLedger, DuplicateEdgeOnPathCountsTwice) {
  const Fabric fab{grid_config(4, 4, 2)};
  ShardedLaneLedger ledger{fab};
  const TileId a = fab.wafer(0).tile_at({1, 1});
  // east, west, east: crosses the (1,1)->E edge twice.
  const std::vector<Direction> path{Direction::kEast, Direction::kWest,
                                    Direction::kEast};
  EXPECT_FALSE(ledger.try_reserve_path(0, a, path, 2))
      << "2 lanes twice over a 2-lane edge must not fit";
  EXPECT_EQ(ledger.total_reserved(), 0u);
  EXPECT_TRUE(ledger.try_reserve_path(0, a, path, 1));
  EXPECT_EQ(ledger.reserved(0, a, Direction::kEast), 2u);
  ledger.release_path(0, a, path, 1);
  EXPECT_EQ(ledger.total_reserved(), 0u);
}

TEST(ShardedLaneLedger, RejectsPathLeavingWafer) {
  const Fabric fab{grid_config(4, 4, 8)};
  ShardedLaneLedger ledger{fab};
  const TileId corner = fab.wafer(0).tile_at({0, 3});
  const std::vector<Direction> off{Direction::kEast};
  EXPECT_FALSE(ledger.try_reserve_path(0, corner, off, 1));
  EXPECT_EQ(ledger.total_reserved(), 0u);
}

// --- Multi-threaded hammer -------------------------------------------------

struct HammerResult {
  std::vector<std::uint64_t> per_stream_successes;
  bool peaks_ok{false};
  std::uint64_t leftover{0};
};

/// 8 fixed RNG streams of reserve/release ops, partitioned across N worker
/// threads (stream s runs on thread s % N) — the util/parallel task-index
/// idiom.  With ample lanes no reservation can fail, so each stream's
/// success count is a pure function of its seed and the per-stream report
/// must be bit-identical at any thread count; TSan plus the peak audit
/// cover safety under the real contention the interleaving produces.
HammerResult hammer(unsigned threads) {
  const Fabric fab{grid_config(16, 16, 4096)};
  ShardedLaneLedger ledger{fab};
  constexpr unsigned kStreams = 8;
  constexpr std::size_t kOpsPerStream = 400;
  constexpr std::size_t kMaxOutstanding = 8;

  HammerResult result;
  result.per_stream_successes.assign(kStreams, 0);
  auto run_stream = [&](unsigned s) {
    Rng rng{util::task_seed(0x5afe, s)};
    struct Held {
      TileId from;
      std::vector<Direction> hops;
      std::uint32_t lanes;
    };
    std::vector<Held> held;
    for (std::size_t op = 0; op < kOpsPerStream; ++op) {
      if (held.size() >= kMaxOutstanding || (rng.bernoulli(0.4) && !held.empty())) {
        const std::size_t i = rng.uniform_index(held.size());
        ledger.release_path(0, held[i].from, held[i].hops, held[i].lanes);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const auto from = static_cast<TileId>(rng.uniform_index(16 * 16));
      const auto lanes = static_cast<std::uint32_t>(1 + rng.uniform_index(4));
      std::vector<Direction> hops =
          staircase(fab, from, 2 + static_cast<std::size_t>(rng.uniform_index(12)));
      if (hops.empty()) continue;
      if (ledger.try_reserve_path(0, from, hops, lanes)) {
        ++result.per_stream_successes[s];
        held.push_back(Held{from, std::move(hops), lanes});
      }
    }
    for (const Held& h : held) ledger.release_path(0, h.from, h.hops, h.lanes);
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (unsigned s = t; s < kStreams; s += threads) run_stream(s);
    });
  }
  for (auto& t : workers) t.join();

  result.peaks_ok = ledger.peaks_within_capacity();
  result.leftover = ledger.total_reserved();
  return result;
}

TEST(ShardedLaneLedgerStress, AmpleCapacityHammerIsBitIdenticalAt1_2_8Threads) {
  const HammerResult base = hammer(1);
  EXPECT_TRUE(base.peaks_ok);
  EXPECT_EQ(base.leftover, 0u);
  std::uint64_t total = 0;
  for (std::uint64_t s : base.per_stream_successes) total += s;
  ASSERT_GT(total, 0u);

  for (unsigned threads : {2u, 8u}) {
    const HammerResult r = hammer(threads);
    EXPECT_TRUE(r.peaks_ok) << threads << " threads";
    EXPECT_EQ(r.leftover, 0u) << threads << " threads";
    EXPECT_EQ(r.per_stream_successes, base.per_stream_successes)
        << "per-stream reports must be bit-identical at " << threads << " threads";
  }
}

TEST(ShardedLaneLedgerStress, ScarcityNeverOversubscribes) {
  // 2 lanes per edge and 8 greedy threads: most reservations fail, but the
  // peak audit must still hold — no interleaving may double-book a lane.
  const Fabric fab{grid_config(8, 8, 2)};
  ShardedLaneLedger ledger{fab};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      Rng rng{util::task_seed(0x7ac7, w)};
      for (std::size_t op = 0; op < 300; ++op) {
        const auto from = static_cast<TileId>(rng.uniform_index(8 * 8));
        std::vector<Direction> hops = staircase(fab, from, 1 + rng.uniform_index(8));
        if (hops.empty()) continue;
        const auto lanes = static_cast<std::uint32_t>(1 + rng.uniform_index(2));
        if (ledger.try_reserve_path(0, from, hops, lanes)) {
          if (rng.bernoulli(0.7)) ledger.release_path(0, from, hops, lanes);
          // else: hold to the end, keeping pressure on later rounds
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_TRUE(ledger.peaks_within_capacity());
  for (TileId t = 0; t < 64; ++t) {
    for (Direction d : fabric::kAllDirections) {
      EXPECT_LE(ledger.reserved(0, t, d), ledger.capacity(0, t, d));
    }
  }
}

// --- Concurrent planner determinism ----------------------------------------

std::vector<std::vector<Demand>> tenant_jobs(std::uint32_t tiles) {
  // 6 jobs x 24 demands, seeded: enough overlap that some precomputed
  // routes collide at commit time (exercising the replan fallback).
  std::vector<std::vector<Demand>> jobs;
  Rng rng{0xb0b5u};
  for (std::size_t j = 0; j < 6; ++j) {
    std::vector<Demand> demands;
    for (std::size_t i = 0; i < 24; ++i) {
      Demand d;
      d.src = GlobalTile{0, static_cast<TileId>(rng.uniform_index(tiles))};
      do {
        d.dst = GlobalTile{0, static_cast<TileId>(rng.uniform_index(tiles))};
      } while (d.dst == d.src);
      d.wavelengths = 1 + static_cast<std::uint32_t>(rng.uniform_index(2));
      demands.push_back(d);
    }
    jobs.push_back(std::move(demands));
  }
  return jobs;
}

void release_everything(Fabric& fab) {
  for (fabric::CircuitId id : fab.circuit_ids()) fab.disconnect(id);
}

TEST(ConcurrentPlanner, BitIdenticalAcrossThreadCounts) {
  FabricConfig config = grid_config(16, 16, 16);
  const auto jobs = tenant_jobs(16 * 16);

  std::vector<ConcurrentPlanResult> results;
  std::vector<std::uint64_t> digests;
  for (unsigned threads : {1u, 2u, 8u}) {
    Fabric fab{config};
    ConcurrentPlanResult r = plan_jobs(fab, jobs, RouteOptions{}, threads);
    digests.push_back(fab.ledger_digest());
    release_everything(fab);
    results.push_back(std::move(r));
  }

  const ConcurrentPlanResult& base = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    const ConcurrentPlanResult& r = results[i];
    EXPECT_EQ(digests[i], digests.front()) << "post-plan ledgers diverged";
    ASSERT_EQ(r.reports.size(), base.reports.size());
    for (std::size_t j = 0; j < base.reports.size(); ++j) {
      ASSERT_EQ(r.reports[j].placed.size(), base.reports[j].placed.size()) << "job " << j;
      for (std::size_t k = 0; k < base.reports[j].placed.size(); ++k) {
        EXPECT_EQ(r.reports[j].placed[k].demand, base.reports[j].placed[k].demand);
      }
      ASSERT_EQ(r.reports[j].failed.size(), base.reports[j].failed.size()) << "job " << j;
      for (std::size_t k = 0; k < base.reports[j].failed.size(); ++k) {
        EXPECT_EQ(r.reports[j].failed[k], base.reports[j].failed[k]);
      }
      EXPECT_EQ(r.reports[j].mzis_programmed, base.reports[j].mzis_programmed);
      EXPECT_EQ(r.reports[j].reconfig_latency, base.reports[j].reconfig_latency);
    }
    // Every stat except overlay_rejected (explicitly diagnostic) is part of
    // the determinism contract.
    EXPECT_EQ(r.stats.jobs, base.stats.jobs);
    EXPECT_EQ(r.stats.demands, base.stats.demands);
    EXPECT_EQ(r.stats.routes_precomputed, base.stats.routes_precomputed);
    EXPECT_EQ(r.stats.fast_path_commits, base.stats.fast_path_commits);
    EXPECT_EQ(r.stats.replans, base.stats.replans);
  }
}

TEST(ConcurrentPlanner, OffFabricDemandFailsWithoutSideEffects) {
  // One 4x8 wafer: tile 42 and wafer 3 are off the fabric.  Phase A
  // precomputes no route for them and Phase B's place_one fails them.
  Fabric fab;
  const std::uint64_t key = fab.ledger_key();
  const std::vector<std::vector<Demand>> jobs{{Demand{{0, 42}, {0, 1}, 1}},
                                              {Demand{{3, 0}, {3, 1}, 1}},
                                              {Demand{{0, 2}, {0, 40}, 1}}};
  for (const bool atomic : {false, true}) {
    PlanJobsOptions opts;
    opts.atomic_jobs = atomic;
    opts.threads = 2;
    const ConcurrentPlanResult r = plan_jobs(fab, jobs, opts);
    ASSERT_EQ(r.reports.size(), jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      EXPECT_TRUE(r.reports[j].placed.empty()) << "job " << j;
      EXPECT_EQ(r.reports[j].failed, jobs[j]) << "job " << j;
    }
    EXPECT_EQ(r.stats.routes_precomputed, 0u);
    EXPECT_EQ(r.stats.fast_path_commits, 0u);
    EXPECT_EQ(fab.active_circuits(), 0u);
    EXPECT_EQ(fab.ledger_key(), key);
  }
}

TEST(ConcurrentPlanner, MatchesSequentialPlannerWithAmpleCapacity) {
  // With lanes to spare, no commit can invalidate a precomputed route, so
  // the concurrent result must equal planning each job sequentially.
  FabricConfig config = grid_config(8, 8, 4096);
  const auto jobs = tenant_jobs(8 * 8);

  Fabric concurrent_fab{config};
  const ConcurrentPlanResult conc = plan_jobs(concurrent_fab, jobs, RouteOptions{}, 4);

  Fabric seq_fab{config};
  CircuitPlanner planner{seq_fab};
  std::vector<PlanReport> seq;
  seq.reserve(jobs.size());
  for (const auto& job : jobs) seq.push_back(planner.place_all(job));

  EXPECT_EQ(concurrent_fab.ledger_digest(), seq_fab.ledger_digest());
  ASSERT_EQ(conc.reports.size(), seq.size());
  for (std::size_t j = 0; j < seq.size(); ++j) {
    ASSERT_EQ(conc.reports[j].placed.size(), seq[j].placed.size()) << "job " << j;
    for (std::size_t k = 0; k < seq[j].placed.size(); ++k) {
      EXPECT_EQ(conc.reports[j].placed[k].demand, seq[j].placed[k].demand);
    }
    EXPECT_EQ(conc.reports[j].failed.size(), seq[j].failed.size());
    EXPECT_EQ(conc.reports[j].mzis_programmed, seq[j].mzis_programmed);
    EXPECT_EQ(conc.reports[j].reconfig_latency, seq[j].reconfig_latency);
  }
  EXPECT_EQ(conc.stats.fast_path_commits, conc.stats.routes_precomputed)
      << "ample capacity: every precomputed route must commit on the fast path";
}

// --- Per-job atomicity (atomic_jobs) ---------------------------------------

// On a 1x4 wafer with one lane per edge, two identical demands cannot both
// place: the second starves.  Under atomic_jobs the whole job must roll
// back, leaving the ledger exactly as if it had never been attempted.
TEST(ConcurrentPlanner, AtomicJobRollsBackExactly) {
  const FabricConfig config = grid_config(1, 4, 1);
  const Demand edge{{0, 0}, {0, 1}, 1};

  Fabric fab{config};
  const std::uint64_t pristine = fab.ledger_digest();

  PlanJobsOptions opts;
  opts.atomic_jobs = true;
  const ConcurrentPlanResult r = plan_jobs(fab, {{edge, edge}}, opts);

  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_TRUE(r.reports[0].placed.empty()) << "partial placement leaked";
  EXPECT_EQ(r.reports[0].failed.size(), 2u) << "the whole demand set is failed";
  EXPECT_EQ(r.reports[0].mzis_programmed, 0u);
  EXPECT_EQ(r.stats.jobs_rolled_back, 1u);
  EXPECT_EQ(fab.ledger_digest(), pristine)
      << "rollback must leave the lane ledger bit-identical";
}

TEST(ConcurrentPlanner, NonAtomicJobKeepsPartialPlacement) {
  const FabricConfig config = grid_config(1, 4, 1);
  const Demand edge{{0, 0}, {0, 1}, 1};

  Fabric fab{config};
  const std::uint64_t pristine = fab.ledger_digest();
  const ConcurrentPlanResult r = plan_jobs(fab, {{edge, edge}}, PlanJobsOptions{});

  ASSERT_EQ(r.reports.size(), 1u);
  EXPECT_EQ(r.reports[0].placed.size(), 1u);
  EXPECT_EQ(r.reports[0].failed.size(), 1u);
  EXPECT_EQ(r.stats.jobs_rolled_back, 0u);
  EXPECT_NE(fab.ledger_digest(), pristine) << "the surviving circuit holds lanes";
}

// A rolled-back job releases its lanes before later jobs commit (Phase B is
// ascending), so a successor contending for the same edge still places.
TEST(ConcurrentPlanner, RollbackFreesLanesForLaterJobs) {
  const FabricConfig config = grid_config(1, 4, 1);
  const Demand edge{{0, 0}, {0, 1}, 1};

  Fabric fab{config};
  PlanJobsOptions opts;
  opts.atomic_jobs = true;
  const ConcurrentPlanResult r = plan_jobs(fab, {{edge, edge}, {edge}}, opts);

  ASSERT_EQ(r.reports.size(), 2u);
  EXPECT_TRUE(r.reports[0].placed.empty()) << "job 0 rolls back";
  ASSERT_EQ(r.reports[1].placed.size(), 1u) << "job 1 takes the freed lane";
  EXPECT_TRUE(r.reports[1].failed.empty());
  EXPECT_EQ(r.stats.jobs_rolled_back, 1u);
}

}  // namespace
}  // namespace lp::routing
