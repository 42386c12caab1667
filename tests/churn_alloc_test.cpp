// Steady-state circuit churn on a Fabric allocates nothing: a committed
// circuit takes a recycled slot whose hop vectors kept their capacity, and
// its route is written into buffers that trade places with that slot's.
//
// The autotuner's pricing side allocates nothing either: it folds the
// lowering's phases as they are made, and a cache hit reads the map.
//
// The respare path and the training run are held at ceilings: each test
// prints its count and fails if a change allocates more.
//
// This binary replaces the global operator new and delete (plain, sized and
// array forms) to count heap allocations, so it holds no other suite.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "collective/autotuner.hpp"
#include "core/host_stack.hpp"
#include "fault/fault.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/repair.hpp"
#include "runtime/fault_plane.hpp"
#include "runtime/recovery.hpp"
#include "runtime/training_run.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::size_t> allocations{0};
}  // namespace

// Not inlined: GCC would otherwise see free() meet a pointer from
// operator new at the call site and warn of a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lp::fabric {
namespace {

constexpr int kCycles = 1000;

/// A 16×16 wafer with a few long-lived circuits already placed, so churn
/// shares the table with entries that never leave it.
Fabric loaded_fabric() {
  FabricConfig config;
  config.wafer.rows = 16;
  config.wafer.cols = 16;
  Fabric fab{config};
  for (const auto& [from, to] : {std::pair{TileCoord{0, 0}, TileCoord{15, 15}},
                                 std::pair{TileCoord{4, 12}, TileCoord{11, 1}},
                                 std::pair{TileCoord{9, 9}, TileCoord{9, 2}}}) {
    const Wafer& w = fab.wafer(0);
    EXPECT_TRUE(fab.connect({0, w.tile_at(from)}, {0, w.tile_at(to)}, 2).ok());
  }
  return fab;
}

/// Heap allocations made by `n` runs of `cycle`.
template <typename Cycle>
std::size_t allocations_over(int n, Cycle&& cycle) {
  const std::size_t before = allocations.load();
  for (int i = 0; i < n; ++i) cycle();
  return allocations.load() - before;
}

TEST(ChurnAllocations, ConnectAndDisconnectAllocateNothing) {
  Fabric fab = loaded_fabric();
  const Wafer& w = fab.wafer(0);
  const GlobalTile a{0, w.tile_at(TileCoord{2, 3})};
  const GlobalTile b{0, w.tile_at(TileCoord{8, 9})};  // a 12-hop XY route
  int failures = 0;
  const auto cycle = [&] {
    const Result<CircuitId> id = fab.connect(a, b, 4);
    if (!id) {
      ++failures;
      return;
    }
    fab.disconnect(id.value());
  };
  for (int i = 0; i < 4; ++i) cycle();  // warm-up: the slot and buffers grow once
  EXPECT_EQ(allocations_over(kCycles, cycle), 0u);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(fab.active_circuits(), 3u);
}

TEST(ChurnAllocations, ConnectViaAndDisconnectAllocateNothing) {
  Fabric fab = loaded_fabric();
  const Wafer& w = fab.wafer(0);
  const GlobalTile a{0, w.tile_at(TileCoord{2, 3})};
  const GlobalTile b{0, w.tile_at(TileCoord{8, 9})};
  const std::vector<Direction> hops = Fabric::xy_route(w, a.tile, b.tile, true);
  int failures = 0;
  const auto cycle = [&] {
    const Result<CircuitId> id = fab.connect_via(a, b, hops, 4);
    if (!id) {
      ++failures;
      return;
    }
    fab.disconnect(id.value());
  };
  for (int i = 0; i < 4; ++i) cycle();
  EXPECT_EQ(allocations_over(kCycles, cycle), 0u);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(fab.active_circuits(), 3u);
}

// The repair ladder's route memo: a hit returns a view of the memoized
// hops, and connect_via copies them into the fabric's route buffer.
TEST(ChurnAllocations, RouteForHitAllocatesNothing) {
  Fabric fab = loaded_fabric();
  routing::PlanCache cache{fab};
  const Wafer& w = fab.wafer(0);
  const routing::Demand d{{0, w.tile_at(TileCoord{2, 3})}, {0, w.tile_at(TileCoord{8, 9})}, 4};
  ASSERT_TRUE(cache.route_for(d).has_value());  // the miss records the memo
  int failures = 0;
  const auto cycle = [&] {
    const auto hops = cache.route_for(d);
    if (!hops) {
      ++failures;
      return;
    }
    const Result<CircuitId> id = fab.connect_via(d.src, d.dst, *hops, d.wavelengths);
    if (!id) {
      ++failures;
      return;
    }
    fab.disconnect(id.value());
  };
  for (int i = 0; i < 4; ++i) cycle();  // warm-up: the slot and buffers grow once
  EXPECT_EQ(allocations_over(kCycles, cycle), 0u);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(cache.stats().route_hits, std::uint64_t{4 + kCycles});
  EXPECT_EQ(cache.stats().route_misses, 1u);
}

// One source cycling through twice as many peers as its cache holds: every
// send misses, and the source's Tx lambdas are all held by cached circuits,
// so each send evicts.  The stack evicts before it connects instead of
// letting a refused connect build its error message.
TEST(ChurnAllocations, HostStackEvictionAllocatesNothing) {
  FabricConfig config;
  config.wafer.rows = 16;
  config.wafer.cols = 16;
  Fabric fab{config};
  const core::HostStackParams params{};  // 8 peers x 2 lambdas: all 16 Tx
  core::HostStack stack{fab, params};
  const Wafer& w = fab.wafer(0);
  const GlobalTile src{0, w.tile_at(TileCoord{8, 8})};
  std::vector<GlobalTile> peers;  // twice as many as the cache holds
  for (std::int32_t i = 0; i < 16; ++i) {
    peers.push_back(GlobalTile{0, w.tile_at(TileCoord{i, (3 * i + 1) % 16})});
  }
  std::size_t next = 0;
  int failures = 0;
  const auto send = [&] {
    if (!stack.send(src, peers[next], DataSize::kib(64))) ++failures;
    next = (next + 1) % peers.size();
  };
  // Warm-up: every recycled hop vector has held the longest route.
  for (int i = 0; i < kCycles; ++i) send();
  const core::HostStackStats before = stack.stats();
  EXPECT_EQ(allocations_over(kCycles, send), 0u);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(stack.stats().misses - before.misses, std::uint64_t{kCycles});
  EXPECT_EQ(stack.stats().evictions - before.evictions, std::uint64_t{kCycles});
}

// A naive controller climbs the ladder on every flap, and inside the dip
// every attempt fails transiently, so each climb leaves the ledger as it
// found it.  The recovery probes each reroute strategy once and replays the
// outcome on later retries and climbs: a flap allocates the same whatever
// the number of climbs it runs.  A second circuit's flap comes between the
// warm-up and the measured flap and takes the plane's one replay record,
// so the measured flap, which repeats the warm-up's inputs, climbs live.
TEST(ChurnAllocations, NaiveFlapAllocatesTheSameAtAnyClimbCount) {
  const auto flap_allocations = [](std::uint32_t max_attempts) {
    Fabric fab;
    const Result<CircuitId> id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
    const Result<CircuitId> other = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);
    EXPECT_TRUE(id.ok() && other.ok());
    runtime::FaultPlane plane{fab, {}, {}, /*hysteresis=*/false};
    runtime::RecoveryPolicy policy;
    policy.initial_budget = Duration::zero();  // unbounded: every climb runs out of rungs
    policy.max_attempts = max_attempts;
    const std::uint64_t key = fault::gray_component_key({0, 0}, Direction::kEast);
    // Warm-up: the plan cache's route memo and the circuit slots grow once.
    EXPECT_TRUE(plane.flap(key, Duration::zero(), id.value(), policy, 2).has_value());
    EXPECT_TRUE(plane
                    .flap(fault::gray_component_key({0, 8}, Direction::kEast),
                          Duration::millis(0.5), other.value(), policy, 2)
                    .has_value());
    const std::uint64_t batches = fab.reconfig().batches();
    const std::size_t before = allocations.load();
    const std::optional<runtime::RecoveryResult> res =
        plane.flap(key, Duration::millis(1.0), id.value(), policy, 2);
    const std::size_t n = allocations.load() - before;
    EXPECT_GT(fab.reconfig().batches(), batches) << "the measured flap climbs live";
    EXPECT_TRUE(res.has_value() && res->transient_failed);
    EXPECT_EQ(res.has_value() ? res->climbs : 0u, max_attempts + 1);
    return n;
  };
  const std::size_t one = flap_allocations(1);
  EXPECT_EQ(flap_allocations(3), one) << "4 climbs against 2";
  EXPECT_EQ(flap_allocations(9), one) << "10 climbs against 2";
  RecordProperty("allocations_per_flap", static_cast<int>(one));
}

// A repeated naive flap over an unchanged ledger returns the last climb's
// result without climbing: it allocates nothing and programs no batch.
TEST(ChurnAllocations, ReplayedNaiveFlapAllocatesNothing) {
  Fabric fab;
  const Result<CircuitId> id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  runtime::FaultPlane plane{fab, {}, {}, /*hysteresis=*/false};
  const runtime::RecoveryPolicy policy;
  const std::uint64_t key = fault::gray_component_key({0, 0}, Direction::kEast);
  ASSERT_TRUE(plane.flap(key, Duration::zero(), id.value(), policy, 2).has_value());
  const std::uint64_t batches = fab.reconfig().batches();
  double t_s = 0.0;
  int failures = 0;
  const auto flap = [&] {
    t_s += 1e-3;
    const std::optional<runtime::RecoveryResult> res =
        plane.flap(key, Duration::seconds(t_s), id.value(), policy, 2);
    if (!res || !res->transient_failed) ++failures;
  };
  EXPECT_EQ(allocations_over(kCycles, flap), 0u);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(fab.reconfig().batches(), batches) << "every measured flap replays";
}

// With no per-hop fault in the overlay, a diagnosis walks no light path and
// re-closes the budget with the fabric's own LinkBudget.
TEST(ChurnAllocations, FaultFreeDiagnoseAllocatesNothing) {
  Fabric fab;
  const Result<CircuitId> a = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 31}, 2);
  const Result<CircuitId> b = fab.connect(GlobalTile{0, 8}, GlobalTile{0, 11}, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  const fault::HealthMonitor monitor;
  const fault::FaultSet none;
  int unhealthy = 0;
  const auto diagnose = [&] {
    for (const CircuitId id : {a.value(), b.value()}) {
      if (monitor.diagnose(fab, none, id).health != fault::CircuitHealth::kHealthy) {
        ++unhealthy;
      }
    }
  };
  EXPECT_EQ(allocations_over(kCycles, diagnose), 0u);
  EXPECT_EQ(unhealthy, 0);
}

// A dead destination's respare: rung 3 reads the caller's spares in place,
// plans through one reserved circuit vector and moves it into the result.
// What is left is that vector and the two routes find_route returns.
TEST(ChurnAllocations, RespareClimbReadsItsSparesInPlace) {
  Fabric fab;
  const GlobalTile src{0, 0};
  const GlobalTile dst{0, 3};
  const std::array<GlobalTile, 4> spares{GlobalTile{0, 31}, GlobalTile{0, 12},
                                         GlobalTile{0, 20}, GlobalTile{0, 28}};
  routing::EscalationOptions opts;
  opts.spare_candidates = spares;
  const runtime::RecoveryPolicy policy;
  const auto respare = [&] {
    const Result<CircuitId> id = fab.connect(src, dst, 2);
    EXPECT_TRUE(id.ok());
    routing::DegradedCircuit victim;
    victim.id = id.value();
    victim.dst_dead = true;
    const std::size_t before = allocations.load();
    runtime::RecoveryResult res = runtime::drive_recovery(fab, victim, policy, opts);
    const std::size_t n = allocations.load() - before;
    EXPECT_TRUE(res.recovered);
    EXPECT_EQ(res.rung, routing::RepairRung::kRespare);
    EXPECT_EQ(res.climbs, 1u);
    EXPECT_EQ(res.circuits.size(), 2u);
    if (!res.circuits.empty()) {
      EXPECT_EQ(fab.circuit(res.circuits[0])->dst, (GlobalTile{0, 12}))
          << "the spare nearest the anchor";
    }
    for (const CircuitId c : res.circuits) fab.disconnect(c);
    return n;
  };
  (void)respare();  // warm-up: the circuit slots and hop buffers grow once
  const std::size_t n = respare();
  std::printf("respare climb: %zu allocations\n", n);
  EXPECT_LE(n, 3u);
}

// 200 iterations of lpbench's train_gray controller at seed 1 on each arm,
// counted over run() alone (construction is lpbench's setup).
runtime::RunConfig gray_run_config(bool hysteresis) {
  runtime::RunConfig c;
  c.iterations = 200;
  c.seed = 1;
  c.mtbf_hours = 1e9;
  c.flap_rate_per_hour = 400.0;
  c.recovery.rung_backoff.base = Duration::micros(50.0);
  c.recovery.rung_backoff.jitter_fraction = 0.5;
  c.gray_hysteresis = hysteresis;
  return c;
}

std::size_t gray_run_allocations(bool hysteresis, runtime::RunReport& report) {
  runtime::TrainingRun run{gray_run_config(hysteresis)};
  const std::size_t before = allocations.load();
  report = run.run();
  return allocations.load() - before;
}

TEST(ChurnAllocations, NaiveGrayRunStaysUnderItsCeiling) {
  runtime::RunReport r;
  const std::size_t n = gray_run_allocations(/*hysteresis=*/false, r);
  std::printf("naive 200-iteration run: %zu allocations, %llu misclassifications\n", n,
              static_cast<unsigned long long>(r.misclassifications));
  EXPECT_EQ(r.iterations_completed, 200u);
  EXPECT_GT(r.misclassifications, 0u);
  EXPECT_LE(n, std::size_t{2110});
}

TEST(ChurnAllocations, HysteresisGrayRunStaysUnderItsCeiling) {
  runtime::RunReport r;
  const std::size_t n = gray_run_allocations(/*hysteresis=*/true, r);
  std::printf("hysteresis 200-iteration run: %zu allocations, %llu flap episodes\n", n,
              static_cast<unsigned long long>(r.flap_episodes));
  EXPECT_EQ(r.iterations_completed, 200u);
  EXPECT_GT(r.quarantines, 0u);
  EXPECT_LE(n, std::size_t{381});
}

// A flap trace reserves its toggles once: one allocation, the vector that
// moves into the FlapTrace, for traces up to the cap's full length.
TEST(ChurnAllocations, FlapTraceAllocatesOnce) {
  fault::GrayModelParams long_traces;
  long_traces.max_dips = fault::kReservedDips;
  long_traces.continue_probability = 0.97;
  std::size_t at_cap = 0;
  for (const fault::GrayModelParams& params : {fault::GrayModelParams{}, long_traces}) {
    for (std::uint64_t seed = 0; seed < 500; ++seed) {
      Rng rng{seed};
      const std::size_t before = allocations.load();
      const fault::FlapTrace trace = fault::make_flap_trace(rng, params);
      EXPECT_EQ(allocations.load() - before, 1u) << "seed " << seed;
      ASSERT_LE(trace.dips(), params.max_dips);
      if (trace.dips() == params.max_dips) ++at_cap;
    }
  }
  EXPECT_GT(at_cap, 0u) << "some trace runs to the cap";
}

const coll::CollOp kOps[] = {coll::CollOp::kReduceScatter, coll::CollOp::kAllGather,
                             coll::CollOp::kAllReduce,     coll::CollOp::kBroadcast,
                             coll::CollOp::kAllToAll,      coll::CollOp::kTransfer};

// Every candidate of every op on the 56-member training ring, and the
// runtime's bucket costs for every AllReduce candidate: no phase list is
// materialized, so nothing is allocated.
TEST(ChurnAllocations, TunerPredictionsAndBucketCostsAllocateNothing) {
  const coll::Autotuner tuner;
  const Bandwidth rate = Bandwidth::gBps(37.5);
  const Duration reconfig = Duration::micros(3.7);
  double sink = 0.0;
  std::size_t candidates = 0;
  const auto cycle = [&] {
    for (const coll::CollOp op : kOps) {
      for (const coll::Algorithm algo : coll::Autotuner::candidates(op)) {
        sink += tuner.predict(op, algo, 56, DataSize::mib(64.0), rate, reconfig)
                    .to_seconds();
        ++candidates;
      }
    }
    for (const coll::Algorithm algo :
         coll::Autotuner::candidates(coll::CollOp::kAllReduce)) {
      const runtime::BucketCosts costs =
          runtime::all_reduce_bucket_costs(algo, 56, DataSize::mib(64.0), rate, reconfig);
      sink += costs.first.to_seconds() + costs.steady.to_seconds();
    }
  };
  EXPECT_EQ(allocations_over(kCycles, cycle), 0u);
  EXPECT_EQ(candidates, std::size_t{13} * kCycles);
  EXPECT_GT(sink, 0.0);
}

// A KV migration picks its transfer shape for the {src, dst} pair: on a
// two-element array a cache hit allocates nothing.
TEST(ChurnAllocations, CacheHitPickOnAPairAllocatesNothing) {
  coll::Autotuner tuner;
  const std::array<topo::TpuId, 2> pair{17, 1042};
  const Bandwidth rate = Bandwidth::gbps(224.0 * 4.0);
  const Duration reconfig = Duration::micros(3.7);
  // The first pick misses and makes the cache entry.
  EXPECT_FALSE(
      tuner.pick(coll::CollOp::kTransfer, DataSize::mib(2.0), pair, rate, reconfig, 9)
          .cache_hit);
  int misses = 0;
  const auto cycle = [&] {
    if (!tuner.pick(coll::CollOp::kTransfer, DataSize::mib(2.0), pair, rate, reconfig, 9)
             .cache_hit) {
      ++misses;
    }
  };
  EXPECT_EQ(allocations_over(kCycles, cycle), 0u);
  EXPECT_EQ(misses, 0);
  EXPECT_EQ(tuner.hits(), std::uint64_t{kCycles});
}

}  // namespace
}  // namespace lp::fabric
