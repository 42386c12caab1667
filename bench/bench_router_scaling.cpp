// §5 challenge: "Exploding paths" — each tile offers thousands of lanes and
// a circuit entering a tile has thousands of possible paths; optimizing all
// circuits must scale.
//
// Measures the capacity-aware router and the multi-demand planner across
// wafer sizes, demand counts, and lane scarcity, and reports placement
// success under adversarial permutation traffic.
#include <chrono>
#include <cstdlib>
#include <string>

#include "bench/bench_common.hpp"
#include "lightpath/fabric.hpp"
#include "routing/planner.hpp"
#include "util/rng.hpp"

namespace {

using namespace lp;

std::vector<routing::Demand> permutation_demands(std::uint32_t tiles, Rng& rng,
                                                 std::uint32_t lanes) {
  // Random derangement-ish permutation.
  std::vector<fabric::TileId> targets(tiles);
  for (std::uint32_t i = 0; i < tiles; ++i) targets[i] = i;
  for (std::uint32_t i = tiles - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_index(i + 1));
    std::swap(targets[i], targets[j]);
  }
  std::vector<routing::Demand> demands;
  for (std::uint32_t i = 0; i < tiles; ++i) {
    if (targets[i] == i) continue;
    demands.push_back(
        routing::Demand{fabric::GlobalTile{0, i}, fabric::GlobalTile{0, targets[i]}, lanes});
  }
  return demands;
}

void print_report() {
  bench::header("Router scaling (the 'exploding paths' challenge)");
  std::printf("  wafer     lanes/edge  demands  placed  failed  detour hops   plan time\n");
  Rng rng{77};
  struct Case {
    std::int32_t rows, cols;
    std::uint32_t lanes_per_edge;
    std::uint32_t lanes_per_demand;
  };
  const Case cases[] = {
      {4, 8, 8192, 8},   // paper-scale wafer, ample lanes
      {4, 8, 64, 8},     // scarce lanes force detours
      {4, 8, 16, 8},     // extreme scarcity: failures expected
      {8, 16, 8192, 8},  // 128-tile hypothetical wafer
      {16, 16, 8192, 8}, // 256-tile rack-in-a-wafer
  };
  double worst_ample = 0.0;
  const Case* worst_case = nullptr;
  std::string scarcity;
  for (const Case& c : cases) {
    fabric::FabricConfig config;
    config.wafer.rows = c.rows;
    config.wafer.cols = c.cols;
    config.wafer.lanes_per_edge = c.lanes_per_edge;
    fabric::Fabric fab{config};
    routing::CircuitPlanner planner{fab};
    const auto demands = permutation_demands(
        static_cast<std::uint32_t>(c.rows * c.cols), rng, c.lanes_per_demand);
    const auto t0 = std::chrono::steady_clock::now();
    const auto report = planner.place_all(demands);
    const auto t1 = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    // Hops beyond the Manhattan distance, summed over placed circuits.
    std::size_t detour = 0;
    const fabric::Wafer& wafer = fab.wafer(0);
    for (const auto& placed : report.placed) {
      const fabric::TileCoord a = wafer.coord_of(placed.demand.src.tile);
      const fabric::TileCoord b = wafer.coord_of(placed.demand.dst.tile);
      const auto manhattan =
          static_cast<std::size_t>(std::abs(a.row - b.row) + std::abs(a.col - b.col));
      detour += fab.circuit(placed.id)->waveguide_hop_count() - manhattan;
    }
    std::printf("  %2dx%-3d    %8u    %5zu   %5zu  %5zu   %10zu   %s\n", c.rows, c.cols,
                c.lanes_per_edge, demands.size(), report.placed.size(),
                report.failed.size(), detour, bench::fmt_time(dt).c_str());
    if (c.lanes_per_edge == 8192 && dt >= worst_ample) {
      worst_ample = dt;
      worst_case = &c;
    }
    if (c.lanes_per_edge < 8192) {
      scarcity += "; " + std::to_string(c.lanes_per_edge) + "/edge: " + std::to_string(detour) +
                  " detour hops, " + std::to_string(report.failed.size()) + " failed";
    }
    planner.release_all(report);
  }
  bench::line();
  std::printf("slowest ample-lane permutation (%dx%d) places in %s: %s\n", worst_case->rows,
              worst_case->cols, bench::fmt_time(worst_ample).c_str(),
              worst_ample < 1e-3 ? "sub-millisecond at every wafer size"
                                 : "above a millisecond at wafer scale");
  std::printf("lane scarcity on 4x8: %s\n", scarcity.substr(2).c_str());
}

void BM_FindRoute(benchmark::State& state) {
  // Corner to corner: the bounding box is the whole wafer, so this is the
  // goal-directed search's worst case.
  fabric::WaferParams params;
  params.rows = static_cast<std::int32_t>(state.range(0));
  params.cols = static_cast<std::int32_t>(state.range(0) * 2);
  fabric::Wafer wafer{params};
  const auto from = wafer.tile_at(fabric::TileCoord{0, 0});
  const auto to = wafer.tile_at(fabric::TileCoord{params.rows - 1, params.cols - 1});
  for (auto _ : state) benchmark::DoNotOptimize(routing::find_route(wafer, from, to));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindRoute)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_FindRouteRandomPairs(benchmark::State& state) {
  // Uniform random (src, dst) pairs: the typical planner query.
  fabric::WaferParams params;
  params.rows = static_cast<std::int32_t>(state.range(0));
  params.cols = static_cast<std::int32_t>(state.range(0) * 2);
  fabric::Wafer wafer{params};
  Rng rng{11};
  std::vector<std::pair<fabric::TileId, fabric::TileId>> pairs(256);
  for (auto& [a, b] : pairs) {
    a = static_cast<fabric::TileId>(rng.uniform_index(wafer.tile_count()));
    b = static_cast<fabric::TileId>(rng.uniform_index(wafer.tile_count()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(routing::find_route(wafer, a, b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindRouteRandomPairs)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Complexity();

void BM_PlaceAll(benchmark::State& state) {
  Rng rng{5};
  fabric::FabricConfig config;
  for (auto _ : state) {
    fabric::Fabric fab{config};
    routing::CircuitPlanner planner{fab};
    auto demands = permutation_demands(32, rng, 8);
    auto report = planner.place_all(demands);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_PlaceAll);

}  // namespace

LP_BENCH_MAIN(print_report)
