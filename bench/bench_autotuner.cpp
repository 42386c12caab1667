// Collective-autotuner report: algorithm crossover table, differential
// validation against the flow simulator, and decision-cache throughput.
//
// Three sections:
//   * Crossover table — for each (topology, op), the tuner's pick per
//     message size from 1 KiB to 10 GB, with the predicted cost.  Shows
//     the alpha-beta-r trade flipping from log-depth / rotating schedules
//     (alpha- and r-bound) to ring / striped schedules (beta-bound) as
//     messages grow.
//   * Validation sweep — every grid point's pick is raced against every
//     candidate under the flow simulator; any measured cost beyond the
//     documented tolerance is reported (and the same grid is a hard test
//     in autotuner_test, so a FAIL here means a broken build, not noise).
//   * Cache throughput — pick_keyed() on a warm cache must clear 1e6
//     decisions/s; the hot path is one hash + one map find under a mutex.
//
// --json writes BENCH_autotuner.json with the crossover rows and the
// throughput number for CI trend tracking.
#include <chrono>

#include "bench/bench_common.hpp"
#include "collective/autotuner.hpp"
#include "sim/flow_sim.hpp"

namespace {

using namespace lp;
using coll::Algorithm;
using coll::Autotuner;
using coll::CollOp;
using coll::Decision;

std::vector<topo::TpuId> group(std::size_t m) {
  std::vector<topo::TpuId> ids;
  ids.reserve(m);
  for (std::size_t i = 0; i < m; ++i) ids.push_back(static_cast<topo::TpuId>(i));
  return ids;
}

struct Topology {
  const char* name;
  std::vector<topo::TpuId> members;
  Bandwidth rate;
  std::uint64_t epoch;
};

std::vector<Topology> topologies() {
  // Healthy rings at the 2-lambda circuit rate; degraded non-power-of-two
  // survivor sets on 1-lambda elastic bridges.
  return {
      {"healthy-8 (2l)", group(8), Bandwidth::gBps(75.0), 0},
      {"healthy-56 (2l)", group(56), Bandwidth::gBps(75.0), 0},
      {"degraded-7 (1l)", group(7), Bandwidth::gBps(37.5), 1},
      {"degraded-3 (1l)", group(3), Bandwidth::gBps(37.5), 1},
  };
}

std::vector<DataSize> sweep_sizes() {
  std::vector<DataSize> sizes;
  for (double b = 1024.0; b <= 4.0 * 1024.0 * 1024.0 * 1024.0; b *= 4.0) {
    sizes.push_back(DataSize::bytes(b));
  }
  sizes.push_back(DataSize::bytes(1e10));
  return sizes;
}

const CollOp kOps[] = {CollOp::kReduceScatter, CollOp::kAllGather, CollOp::kAllReduce,
                       CollOp::kBroadcast,     CollOp::kAllToAll,  CollOp::kTransfer};

Duration measured(const Autotuner& tuner, CollOp op, Algorithm algo,
                  const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
                  Duration reconfig) {
  const coll::Schedule sched = tuner.build(op, algo, members, n, rate, reconfig);
  const sim::FlowSimulator fsim{rate};
  return coll::measured_cost(fsim.run(sched).total, sched, tuner.params().alpha);
}

void print_report(bool emit_json) {
  bench::header("Collective autotuner: crossovers, validation, cache throughput");
  Autotuner tuner;
  const Duration reconfig = Duration::micros(3.7);
  const auto topos = topologies();
  const auto sizes = sweep_sizes();

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("autotuner");
  json.key("rows").begin_array();

  // --- Crossover table -------------------------------------------------
  for (const CollOp op : {CollOp::kAllReduce, CollOp::kAllToAll, CollOp::kTransfer}) {
    std::printf("\n%s picks by message size:\n", coll::to_string(op));
    std::printf("  %-16s", "topology");
    for (const DataSize n : sizes) {
      std::printf(" %8s", bench::fmt_bytes(n.to_bytes()).c_str());
    }
    std::printf("\n");
    for (const Topology& t : topos) {
      std::printf("  %-16s", t.name);
      for (const DataSize n : sizes) {
        const Decision d = tuner.pick(op, n, t.members, t.rate, reconfig, t.epoch);
        // First two letters identify the algorithm (ri/tr/ha/ro/pi/di/st).
        std::printf(" %7.2s ", coll::to_string(d.algo));
        json.begin_object();
        json.key("op").value(coll::to_string(op));
        json.key("topology").value(t.name);
        json.key("bytes").value(n.to_bytes());
        json.key("pick").value(coll::to_string(d.algo));
        json.key("predicted_seconds").value(d.predicted.to_seconds());
        json.end_object();
      }
      std::printf("\n");
    }
  }
  json.end_array();

  // --- Differential validation ----------------------------------------
  const double tol_rel = tuner.params().tolerance_rel;
  const Duration tol_abs = tuner.params().tolerance_abs;
  int points = 0;
  int mispredictions = 0;
  for (const Topology& t : topos) {
    for (const CollOp op : kOps) {
      for (const DataSize n : sizes) {
        const Decision d = tuner.pick(op, n, t.members, t.rate, reconfig, t.epoch);
        const Duration picked = measured(tuner, op, d.algo, t.members, n, t.rate, reconfig);
        Duration best = Duration::infinite();
        for (const Algorithm algo : Autotuner::candidates(op)) {
          const Duration cost = measured(tuner, op, algo, t.members, n, t.rate, reconfig);
          if (cost < best) best = cost;
        }
        ++points;
        if (picked > best * (1.0 + tol_rel) + tol_abs) {
          ++mispredictions;
          std::printf("  MISPREDICTION %s %s %s: picked %s\n", t.name,
                      coll::to_string(op), bench::fmt_bytes(n.to_bytes()).c_str(),
                      coll::to_string(d.algo));
        }
      }
    }
  }
  bench::line();
  std::printf("validation sweep: %d points, %d beyond tolerance -> %s\n", points,
              mispredictions, mispredictions == 0 ? "PASS" : "FAIL");

  // --- Decision-cache throughput ---------------------------------------
  // Warm cache, rotating over a realistic working set of keys.
  const std::uint64_t fp =
      Autotuner::topology_fingerprint(topos[0].members, topos[0].rate, reconfig);
  constexpr std::uint64_t kLookups = 4'000'000;
  const std::size_t n_sizes = sizes.size();
  std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    const DataSize n = sizes[i % n_sizes];
    const Decision d = tuner.pick_keyed(CollOp::kAllReduce, n, topos[0].members.size(),
                                        fp, topos[0].rate, reconfig, topos[0].epoch);
    sink += static_cast<std::uint64_t>(d.algo);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double per_sec = static_cast<double>(kLookups) / secs;
  std::printf("decision cache: %.1fM lookups/s (%.0f ns/lookup, sink %llu) -> %s\n",
              per_sec / 1e6, 1e9 * secs / static_cast<double>(kLookups),
              static_cast<unsigned long long>(sink),
              per_sec >= 1e6 ? "PASS (>= 1e6/s)" : "FAIL (< 1e6/s)");

  json.key("validation_points").value(static_cast<std::uint64_t>(points));
  json.key("mispredictions").value(static_cast<std::uint64_t>(mispredictions));
  json.key("cache_lookups_per_second").value(per_sec);
  json.end_object();
  if (emit_json) {
    const char* path = "BENCH_autotuner.json";
    std::printf("%s artifact: %s\n", json.write_file(path) ? "wrote" : "FAILED to write",
                path);
  }
}

void BM_TunerPickCached(benchmark::State& state) {
  Autotuner tuner;
  const auto members = group(56);
  const Bandwidth rate = Bandwidth::gBps(75.0);
  const Duration reconfig = Duration::micros(3.7);
  const std::uint64_t fp = Autotuner::topology_fingerprint(members, rate, reconfig);
  (void)tuner.pick_keyed(CollOp::kAllReduce, DataSize::mib(64), members.size(), fp, rate,
                         reconfig, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.pick_keyed(CollOp::kAllReduce, DataSize::mib(64),
                                              members.size(), fp, rate, reconfig, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TunerPickCached);

void BM_TunerPickColdEvaluation(benchmark::State& state) {
  // Every iteration bumps the epoch, forcing the full candidate evaluation.
  Autotuner tuner;
  const auto members = group(56);
  const Bandwidth rate = Bandwidth::gBps(75.0);
  const Duration reconfig = Duration::micros(3.7);
  const std::uint64_t fp = Autotuner::topology_fingerprint(members, rate, reconfig);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.pick_keyed(CollOp::kAllReduce, DataSize::mib(64),
                                              members.size(), fp, rate, reconfig,
                                              ++epoch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TunerPickColdEvaluation);

void BM_BuildHalvingDoubling(benchmark::State& state) {
  const Autotuner tuner;
  const auto members = group(56);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.build(CollOp::kAllReduce, Algorithm::kHalvingDoubling,
                                         members, DataSize::mib(64), Bandwidth::gBps(75.0),
                                         Duration::micros(3.7)));
  }
}
BENCHMARK(BM_BuildHalvingDoubling);

}  // namespace

LP_BENCH_MAIN_JSON(print_report)
