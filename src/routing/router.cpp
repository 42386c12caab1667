#include "routing/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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

/// A path cost as exact counts.  Its value, hops + turns * turn_penalty, is
/// always evaluated from the counts, never accumulated step by step.
struct Cost {
  std::uint32_t hops{0};
  std::uint32_t turns{0};

  friend constexpr Cost operator+(Cost a, Cost b) {
    return Cost{a.hops + b.hops, a.turns + b.turns};
  }
};

struct HeapItem {
  double key;   ///< value(cost so far + lower bound on the cost to go)
  double cost;  ///< value(cost so far) (stale entries are skipped against dist)
  std::uint32_t state;
};

constexpr auto kPopsAfter = [](const HeapItem& a, const HeapItem& b) {
  return a.key > b.key;
};

// Per-thread search buffers: sweeps run their simulations, and so their
// route searches, on ThreadPool workers, and a search that reuses its
// buffers allocates nothing after the first call.
struct Scratch {
  std::vector<double> dist;            ///< value(counts[s]); +inf when unreached
  std::vector<Cost> counts;            ///< meaningful only where dist is finite
  std::vector<std::uint32_t> touched;  ///< states whose dist is finite
  std::vector<HeapItem> heap;

  /// Resets to "every state unreached" for a wafer with `states` states.
  void reset(std::size_t states) {
    if (dist.size() != states) {
      dist.assign(states, kInf);
      counts.resize(states);
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
  const double penalty = options.turn_penalty;
  if (!std::isfinite(penalty) || penalty < 0.0) return std::nullopt;
  if (from >= wafer.tile_count() || to >= wafer.tile_count()) return std::nullopt;
  if (from == to) return std::vector<Direction>{};

  const std::int32_t rows = wafer.rows();
  const std::int32_t cols = wafer.cols();
  const std::uint32_t capacity = wafer.params().lanes_per_edge;
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
  const auto value = [penalty](Cost c) {
    return static_cast<double>(c.hops) + static_cast<double>(c.turns) * penalty;
  };
  const auto step = [](std::uint32_t in_dir, std::uint32_t d) {
    return Cost{1, in_dir != kNoDir && in_dir != d ? 1u : 0u};
  };
  // Lower bound on the cost to go, valid on the unconstrained grid: Manhattan
  // hops, plus one turn unless the tile is aligned with `to` and already
  // heading at it.
  const auto bound = [&](std::int32_t row, std::int32_t col, std::uint32_t in_dir) {
    const std::int32_t dr = to_row - row;
    const std::int32_t dc = to_col - col;
    const auto manhattan = static_cast<std::uint32_t>(std::abs(dr) + std::abs(dc));
    if (dr != 0 && dc != 0) return Cost{manhattan, 1};
    if (dr == 0 && dc == 0) return Cost{};
    const std::uint32_t toward = dr < 0   ? 0   // north
                                 : dr > 0 ? 2   // south
                                 : dc > 0 ? 1   // east
                                          : 3;  // west
    return Cost{manhattan, step(in_dir, toward).turns};
  };

  // The dimension-ordered paths (columns then rows, and rows then columns;
  // one straight path for an aligned pair) cost exactly the start's bound.
  const std::int32_t from_row = static_cast<std::int32_t>(from) / cols;
  const std::int32_t from_col = static_cast<std::int32_t>(from) % cols;
  const std::uint32_t row_dir = to_row < from_row ? 0 : 2;
  const std::uint32_t col_dir = to_col > from_col ? 1 : 3;
  const auto row_hops = static_cast<std::uint32_t>(std::abs(to_row - from_row));
  const auto col_hops = static_cast<std::uint32_t>(std::abs(to_col - from_col));
  const auto walk = [&](TileId& t, std::uint32_t d, std::uint32_t hops) {
    for (std::uint32_t i = 0; i < hops; ++i) {
      if (!has_lanes(t, d)) return false;
      t = static_cast<TileId>(static_cast<std::int32_t>(t) + delta[d]);
    }
    return true;
  };
  const auto dimension_ordered_free = [&](bool rows_first) {
    TileId t = from;
    return rows_first ? walk(t, row_dir, row_hops) && walk(t, col_dir, col_hops)
                      : walk(t, col_dir, col_hops) && walk(t, row_dir, row_hops);
  };
  const bool aligned = from_row == to_row || from_col == to_col;
  const bool cols_first_free = dimension_ordered_free(false);
  const bool rows_first_free = !aligned && dimension_ordered_free(true);
  const Cost start_bound = bound(from_row, from_col, kNoDir);

  // A free dimension-ordered path that is the unique minimum-cost route is
  // the answer (see router.hpp): the straight path of an aligned pair, or a
  // free L when one turn is worth strictly less than two at this penalty.
  // Of two free L's the one arriving in the lower direction wins, as the
  // tie-break contract would pick it.
  if ((cols_first_free || rows_first_free) &&
      (aligned || value(Cost{start_bound.hops, 2}) > value(start_bound))) {
    const bool rows_first = rows_first_free && (!cols_first_free || col_dir < row_dir);
    std::vector<Direction> hops;
    hops.reserve(start_bound.hops);
    const auto append = [&hops](std::uint32_t d, std::uint32_t n) {
      hops.insert(hops.end(), n, static_cast<Direction>(d));
    };
    if (rows_first) {
      append(row_dir, row_hops);
      append(col_dir, col_hops);
    } else {
      append(col_dir, col_hops);
      append(row_dir, row_hops);
    }
    return hops;
  }

  // Otherwise search, capped by a free dimension-ordered path: no state keyed
  // above its cost lies on a minimum-cost path.
  const double prune = cols_first_free || rows_first_free ? value(start_bound) : kInf;

  Scratch& sc = t_scratch;
  sc.reset(static_cast<std::size_t>(wafer.tile_count()) * kStates);
  std::vector<double>& dist = sc.dist;
  std::vector<Cost>& counts = sc.counts;
  std::vector<HeapItem>& heap = sc.heap;
  const auto relax = [&](std::uint32_t state, Cost cost, double cost_value, double key) {
    if (dist[state] == kInf) sc.touched.push_back(state);
    dist[state] = cost_value;
    counts[state] = cost;
    heap.push_back(HeapItem{key, cost_value, state});
    std::push_heap(heap.begin(), heap.end(), kPopsAfter);
  };

  const std::uint32_t start = from * kStates + kNoDir;
  relax(start, Cost{}, 0.0, 0.0);  // the only entry, so its key is irrelevant

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
    const Cost so_far = counts[item.state];
    const std::int32_t row = static_cast<std::int32_t>(tile) / cols;
    const std::int32_t col = static_cast<std::int32_t>(tile) % cols;
    const bool on_wafer[4] = {row > 0, col + 1 < cols, row + 1 < rows, col > 0};
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (!on_wafer[d] || !has_lanes(tile, d)) continue;
      const auto next = static_cast<TileId>(static_cast<std::int32_t>(tile) + delta[d]);
      const std::uint32_t next_state = next * kStates + d;
      const Cost cost = so_far + step(in_dir, d);
      const double cost_value = value(cost);
      if (cost_value >= dist[next_state]) continue;
      const double key = value(cost + bound(row + kRowStep[d], col + kColStep[d], d));
      if (key > prune) continue;
      relax(next_state, cost, cost_value, key);
    }
  }
  if (best == kInf) return std::nullopt;

  // Back-trace from the cheapest terminal (lowest in-dir on ties), taking at
  // each step the lowest-in-dir predecessor on a minimum-cost path.  The
  // route is a pure function of (ledger, from, to, options), whatever order
  // the heap popped equal keys in.  The state that last relaxed `s` stored
  // counts[s] = counts[p] + step, so some predecessor always matches.
  std::uint32_t s = to * kStates;
  while (dist[s] != best) ++s;
  std::vector<Direction> hops;
  hops.reserve(counts[s].hops);
  while (s != start) {
    const std::uint32_t d = s % kStates;
    hops.push_back(static_cast<Direction>(d));
    const auto prev_tile =
        static_cast<TileId>(static_cast<std::int32_t>(s / kStates) - delta[d]);
    assert(has_lanes(prev_tile, d));
    std::uint32_t p = prev_tile * kStates;
    while (dist[p] == kInf || value(counts[p] + step(p % kStates, d)) != dist[s]) ++p;
    assert(p < (prev_tile + 1) * kStates);
    s = p;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

}  // namespace lp::routing
