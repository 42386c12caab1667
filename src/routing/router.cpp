#include "routing/router.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

namespace lp::routing {

using fabric::Direction;
using fabric::TileId;
using fabric::Wafer;

namespace {

// State = tile * 5 + incoming direction; 4 is "none", used only by the source.
constexpr std::uint32_t kNoDir = 4;
constexpr std::uint32_t kStates = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct HeapItem {
  double key;   ///< cost so far + lower bound on the cost to go
  double cost;  ///< cost so far (stale entries are skipped against dist)
  std::uint32_t state;
};

constexpr auto kPopsAfter = [](const HeapItem& a, const HeapItem& b) {
  return a.key > b.key;
};

// Per-thread search buffers: plan_jobs routes from ThreadPool workers, and a
// search that reuses its buffers allocates nothing after the first call.
struct Scratch {
  std::vector<double> dist;
  std::vector<std::uint32_t> touched;  ///< states whose dist is finite
  std::vector<HeapItem> heap;

  /// Resets to "every state unreached" for a wafer with `states` states.
  void reset(std::size_t states) {
    if (dist.size() != states) {
      dist.assign(states, kInf);
    } else {
      for (const std::uint32_t s : touched) dist[s] = kInf;
    }
    touched.clear();
    heap.clear();
  }
};

thread_local Scratch t_scratch;

}  // namespace

std::optional<std::vector<Direction>> find_route(const Wafer& wafer, TileId from,
                                                 TileId to, const RouteOptions& options) {
  if (from == to) return std::vector<Direction>{};

  const std::int32_t rows = wafer.rows();
  const std::int32_t cols = wafer.cols();
  const std::uint32_t capacity = wafer.params().lanes_per_edge;
  const double penalty = options.turn_penalty;
  const std::int32_t to_row = static_cast<std::int32_t>(to) / cols;
  const std::int32_t to_col = static_cast<std::int32_t>(to) % cols;
  // Row, column and tile-index steps per direction, in Direction order
  // (N, E, S, W).
  constexpr std::int32_t kRowStep[4] = {-1, 0, 1, 0};
  constexpr std::int32_t kColStep[4] = {0, 1, 0, -1};
  const std::int32_t delta[4] = {-cols, 1, cols, -1};

  const auto has_lanes = [&](TileId t, std::uint32_t d) {
    return capacity - wafer.lanes_used(t, static_cast<Direction>(d)) >= options.lanes;
  };
  const auto turn_cost = [&](std::uint32_t in_dir, std::uint32_t d) {
    return in_dir != kNoDir && in_dir != d ? penalty : 0.0;
  };
  // Lower bound on the cost to go, valid on the unconstrained grid: Manhattan
  // distance, plus one turn unless the tile is aligned with `to` and already
  // heading at it.
  const auto bound = [&](std::int32_t row, std::int32_t col, std::uint32_t in_dir) {
    const std::int32_t dr = to_row - row;
    const std::int32_t dc = to_col - col;
    const double manhattan = std::abs(dr) + std::abs(dc);
    if (dr != 0 && dc != 0) return manhattan + penalty;
    if (dr == 0 && dc == 0) return 0.0;
    const std::uint32_t toward = dr < 0   ? 0   // north
                                 : dr > 0 ? 2   // south
                                 : dc > 0 ? 1   // east
                                          : 3;  // west
    return manhattan + turn_cost(in_dir, toward);
  };

  Scratch& sc = t_scratch;
  sc.reset(static_cast<std::size_t>(wafer.tile_count()) * kStates);
  std::vector<double>& dist = sc.dist;
  std::vector<HeapItem>& heap = sc.heap;
  const auto relax = [&](std::uint32_t state, double cost, double key) {
    if (dist[state] == kInf) sc.touched.push_back(state);
    dist[state] = cost;
    heap.push_back(HeapItem{key, cost, state});
    std::push_heap(heap.begin(), heap.end(), kPopsAfter);
  };

  const std::uint32_t start = from * kStates + kNoDir;
  relax(start, 0.0, 0.0);  // the only entry, so its key is irrelevant

  // Pop every state whose key is at most the best terminal cost: with a
  // consistent bound that settles every state on every minimum-cost path,
  // so the back-trace below sees all equal-cost alternatives.
  double best = kInf;
  while (!heap.empty() && heap.front().key <= best) {
    const HeapItem item = heap.front();
    std::pop_heap(heap.begin(), heap.end(), kPopsAfter);
    heap.pop_back();
    if (item.cost > dist[item.state]) continue;
    const TileId tile = item.state / kStates;
    if (tile == to) {
      best = std::min(best, item.cost);
      continue;
    }
    const std::uint32_t in_dir = item.state % kStates;
    const std::int32_t row = static_cast<std::int32_t>(tile) / cols;
    const std::int32_t col = static_cast<std::int32_t>(tile) % cols;
    const bool on_wafer[4] = {row > 0, col + 1 < cols, row + 1 < rows, col > 0};
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (!on_wafer[d] || !has_lanes(tile, d)) continue;
      const auto next = static_cast<TileId>(static_cast<std::int32_t>(tile) + delta[d]);
      const std::uint32_t next_state = next * kStates + d;
      const double cost = item.cost + 1.0 + turn_cost(in_dir, d);
      if (cost < dist[next_state]) {
        relax(next_state, cost, cost + bound(row + kRowStep[d], col + kColStep[d], d));
      }
    }
  }
  if (best == kInf) return std::nullopt;

  // Back-trace from the cheapest terminal (lowest in-dir on ties), taking at
  // each step the lowest-in-dir predecessor on a minimum-cost path.  The
  // route is a pure function of (ledger, from, to, options), whatever order
  // the heap popped equal keys in.
  std::uint32_t s = to * kStates;
  while (dist[s] != best) ++s;
  std::vector<Direction> hops;
  while (s != start) {
    const std::uint32_t d = s % kStates;
    hops.push_back(static_cast<Direction>(d));
    const auto prev_tile =
        static_cast<TileId>(static_cast<std::int32_t>(s / kStates) - delta[d]);
    assert(has_lanes(prev_tile, d));
    std::uint32_t p = prev_tile * kStates;
    while (dist[p] + 1.0 + turn_cost(p % kStates, d) != dist[s]) ++p;
    assert(p < (prev_tile + 1) * kStates);
    s = p;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

}  // namespace lp::routing
