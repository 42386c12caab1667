// Circuit setup/teardown churn: fresh planning vs the plan cache.
//
// The scenario is steady-state multi-tenant churn on one 16x16 wafer: a
// handful of jobs repeatedly bring up and tear down their demand sets while
// the fabric cycles through a closed loop of ledger states.  Epoch 0 runs
// every plan cold (the miss path, establishing the no-regression baseline);
// from epoch 1 on, every ledger state recurs exactly, so the cache replays
// memoized hop sequences and skips the Dijkstra searches entirely.  The
// headline metric is sustained cached circuit setups/s against the issue's
// >= 10^6 target.
//
// --json writes BENCH_circuit_churn.json (cold/cached rates, speedup,
// per-epoch trajectory) for CI artifact upload.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "routing/planner.hpp"
#include "util/rng.hpp"

namespace {

using lp::Rng;
using lp::fabric::Fabric;
using lp::fabric::FabricConfig;
using lp::fabric::GlobalTile;
using lp::fabric::TileId;
using lp::routing::CircuitPlanner;
using lp::routing::Demand;
using lp::routing::PlanCache;
using lp::routing::PlanReport;

constexpr std::int32_t kGrid = 16;
constexpr std::size_t kSets = 4;
constexpr std::size_t kDemandsPerSet = 128;
constexpr std::size_t kEpochs = 40;

FabricConfig churn_config() {
  FabricConfig config;
  config.wafer.rows = kGrid;
  config.wafer.cols = kGrid;
  config.wafer.lanes_per_edge = 8192;
  config.wafer.tile.tx_wavelengths = 64;
  config.wafer.tile.rx_wavelengths = 64;
  config.wafer_count = 1;
  return config;
}

/// kSets fixed demand sets; the bench cycles place-all / release-all so
/// every intermediate ledger state recurs each epoch.
std::vector<std::vector<Demand>> churn_sets(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::vector<Demand>> sets;
  sets.reserve(kSets);
  for (std::size_t s = 0; s < kSets; ++s) {
    std::vector<Demand> demands;
    demands.reserve(kDemandsPerSet);
    for (std::size_t i = 0; i < kDemandsPerSet; ++i) {
      Demand d;
      d.src = GlobalTile{0, static_cast<TileId>(rng.uniform_index(kGrid * kGrid))};
      do {
        d.dst = GlobalTile{0, static_cast<TileId>(rng.uniform_index(kGrid * kGrid))};
      } while (d.dst == d.src);
      d.wavelengths = 1;
      demands.push_back(d);
    }
    sets.push_back(std::move(demands));
  }
  return sets;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ChurnResult {
  double cold_setups_per_s{0.0};
  double cached_setups_per_s{0.0};
  std::uint64_t cold_setups{0};
  std::uint64_t cached_setups{0};
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t replay_aborts{0};
  /// Per-epoch setups/s (epoch 0 is the cold one).
  std::vector<double> trajectory;
};

ChurnResult run_churn() {
  Fabric fab{churn_config()};
  PlanCache cache{fab};
  const auto sets = churn_sets(0xc0ffee);

  ChurnResult result;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<PlanReport> live;
    live.reserve(kSets);
    std::uint64_t setups = 0;
    double plan_time = 0.0;
    for (const auto& demands : sets) {
      const double t0 = now_seconds();
      PlanReport r = cache.place_all(demands);
      plan_time += now_seconds() - t0;
      setups += r.placed.size();
      live.push_back(std::move(r));
    }
    // Teardown (not timed: the metric is *setup* rate) in reverse order so
    // the ledger retraces the exact same closed loop of states each epoch.
    for (auto it = live.rbegin(); it != live.rend(); ++it) cache.release_all(*it);

    const double rate = plan_time > 0.0 ? static_cast<double>(setups) / plan_time : 0.0;
    result.trajectory.push_back(rate);
    if (epoch == 0) {
      result.cold_setups = setups;
      result.cold_setups_per_s = rate;
    } else {
      result.cached_setups += setups;
      result.cached_setups_per_s += plan_time;  // accumulate time; divide below
    }
  }
  if (result.cached_setups_per_s > 0.0) {
    result.cached_setups_per_s =
        static_cast<double>(result.cached_setups) / result.cached_setups_per_s;
  }
  result.hits = cache.stats().hits;
  result.misses = cache.stats().misses;
  result.replay_aborts = cache.stats().replay_aborts;
  return result;
}

constexpr double kTargetSetupsPerSec = 1e6;

void print_report(bool emit_json) {
  lp::bench::header("Circuit-plan cache: setup churn on a 16x16 wafer");
  std::printf("%zu demand sets x %zu demands, %zu place/release epochs "
              "(epoch 0 cold)\n",
              kSets, kDemandsPerSet, kEpochs);
  lp::bench::line();

  const ChurnResult churn = run_churn();
  const double speedup = churn.cold_setups_per_s > 0.0
                             ? churn.cached_setups_per_s / churn.cold_setups_per_s
                             : 0.0;
  std::printf("cold   (fresh plan): %12.0f setups/s  (%llu circuits)\n",
              churn.cold_setups_per_s,
              static_cast<unsigned long long>(churn.cold_setups));
  std::printf("cached (replayed)  : %12.0f setups/s  (%llu circuits, %llu hits / "
              "%llu misses, %llu aborts)\n",
              churn.cached_setups_per_s,
              static_cast<unsigned long long>(churn.cached_setups),
              static_cast<unsigned long long>(churn.hits),
              static_cast<unsigned long long>(churn.misses),
              static_cast<unsigned long long>(churn.replay_aborts));
  std::printf("speedup            : %11.1fx\n", speedup);
  std::printf("target >= %.0e cached setups/s: %s\n", kTargetSetupsPerSec,
              churn.cached_setups_per_s >= kTargetSetupsPerSec ? "PASS" : "FAIL");

  if (emit_json) {
    lp::bench::JsonWriter json;
    json.begin_object();
    json.key("bench").value("circuit_churn");
    json.key("wafer").value("16x16");
    json.key("demand_sets").value(static_cast<std::uint64_t>(kSets));
    json.key("demands_per_set").value(static_cast<std::uint64_t>(kDemandsPerSet));
    json.key("epochs").value(static_cast<std::uint64_t>(kEpochs));
    json.key("cold_setups_per_s").value(churn.cold_setups_per_s);
    json.key("cached_setups_per_s").value(churn.cached_setups_per_s);
    json.key("speedup").value(speedup);
    json.key("target_setups_per_s").value(kTargetSetupsPerSec);
    json.key("target_met").value(churn.cached_setups_per_s >= kTargetSetupsPerSec);
    json.key("cache_hits").value(churn.hits);
    json.key("cache_misses").value(churn.misses);
    json.key("replay_aborts").value(churn.replay_aborts);
    json.key("trajectory_setups_per_s").begin_array();
    for (double rate : churn.trajectory) json.value(rate);
    json.end_array();
    json.end_object();
    if (json.write_file("BENCH_circuit_churn.json")) {
      std::printf("wrote BENCH_circuit_churn.json\n");
    } else {
      std::printf("FAILED to write BENCH_circuit_churn.json\n");
    }
  }
}

// --- google-benchmark micros ------------------------------------------------

void BM_FreshPlanPlaceRelease(benchmark::State& state) {
  Fabric fab{churn_config()};
  CircuitPlanner planner{fab};
  const auto sets = churn_sets(0xc0ffee);
  for (auto _ : state) {
    PlanReport r = planner.place_all(sets[0]);
    planner.release_all(r);
    benchmark::DoNotOptimize(r.placed.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDemandsPerSet));
}
BENCHMARK(BM_FreshPlanPlaceRelease);

void BM_CachedPlanPlaceRelease(benchmark::State& state) {
  Fabric fab{churn_config()};
  PlanCache cache{fab};
  const auto sets = churn_sets(0xc0ffee);
  cache.release_all(cache.place_all(sets[0]));  // warm the entry
  for (auto _ : state) {
    PlanReport r = cache.place_all(sets[0]);
    cache.release_all(r);
    benchmark::DoNotOptimize(r.placed.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDemandsPerSet));
}
BENCHMARK(BM_CachedPlanPlaceRelease);

void BM_RouteForHit(benchmark::State& state) {
  Fabric fab{churn_config()};
  PlanCache cache{fab};
  const Demand d{{0, 0}, {0, static_cast<TileId>(kGrid * kGrid - 1)}, 1};
  benchmark::DoNotOptimize(cache.route_for(d));  // warm
  for (auto _ : state) {
    auto hops = cache.route_for(d);
    benchmark::DoNotOptimize(hops);
  }
}
BENCHMARK(BM_RouteForHit);

}  // namespace

LP_BENCH_MAIN_JSON(print_report)
