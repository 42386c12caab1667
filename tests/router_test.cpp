// Differential tests for routing::find_route (A* over tile x incoming-direction
// states) against an in-test reference: a full Dijkstra that settles every
// state, then applies the same back-trace rule.  Both must return identical
// hop sequences -- including which of several equal-cost paths -- and agree
// on infeasibility, across wafer shapes, lane scarcity, multi-lane demands,
// turn penalties and fully blocked edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>
#include <thread>

#include "lightpath/wafer.hpp"
#include "routing/router.hpp"
#include "util/rng.hpp"

namespace lp::routing {
namespace {

using fabric::Direction;
using fabric::TileCoord;
using fabric::TileId;
using fabric::Wafer;
using fabric::WaferParams;
using Route = std::optional<std::vector<Direction>>;

// Full Dijkstra through Wafer's public API: no bound, no early exit.  The
// route is chosen by the contract find_route documents: cheapest terminal
// (lowest incoming direction on ties), then at each step back the
// lowest-incoming-direction predecessor on a minimum-cost path.
Route reference_route(const Wafer& wafer, TileId from, TileId to, const RouteOptions& o) {
  if (from == to) return std::vector<Direction>{};
  constexpr std::size_t kNone = 4;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(wafer.tile_count()) * 5, inf);
  const auto step = [&](std::size_t in, Direction d) {
    return 1.0 + (in != kNone && in != static_cast<std::size_t>(d) ? o.turn_penalty : 0.0);
  };
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const std::size_t start = static_cast<std::size_t>(from) * 5 + kNone;
  dist[start] = 0.0;
  heap.emplace(0.0, start);
  while (!heap.empty()) {
    const auto [cost, s] = heap.top();
    heap.pop();
    if (cost > dist[s]) continue;
    const auto tile = static_cast<TileId>(s / 5);
    for (Direction d : fabric::kAllDirections) {
      const auto next = wafer.neighbor(tile, d);
      if (!next || wafer.lanes_free(tile, d) < o.lanes) continue;
      const std::size_t n = static_cast<std::size_t>(*next) * 5 + static_cast<std::size_t>(d);
      if (cost + step(s % 5, d) < dist[n]) {
        dist[n] = cost + step(s % 5, d);
        heap.emplace(dist[n], n);
      }
    }
  }

  std::size_t s = static_cast<std::size_t>(to) * 5;
  for (std::size_t in = 1; in < 4; ++in) {
    if (dist[static_cast<std::size_t>(to) * 5 + in] < dist[s]) {
      s = static_cast<std::size_t>(to) * 5 + in;
    }
  }
  if (dist[s] == inf) return std::nullopt;
  std::vector<Direction> hops;
  while (s != start) {
    const auto d = static_cast<Direction>(s % 5);
    hops.push_back(d);
    const auto prev = wafer.neighbor(static_cast<TileId>(s / 5), fabric::opposite(d));
    std::size_t chosen = 0;
    for (std::size_t in = 0; in < 5; ++in) {
      const std::size_t p = static_cast<std::size_t>(*prev) * 5 + in;
      if (dist[p] + step(in, d) == dist[s]) {
        chosen = p;
        break;
      }
    }
    s = chosen;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::size_t turns(const std::vector<Direction>& hops) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < hops.size(); ++i) n += hops[i] != hops[i - 1] ? 1u : 0u;
  return n;
}

std::size_t manhattan(const Wafer& w, TileId a, TileId b) {
  const TileCoord ca = w.coord_of(a);
  const TileCoord cb = w.coord_of(b);
  return static_cast<std::size_t>(std::abs(ca.row - cb.row) + std::abs(ca.col - cb.col));
}

TEST(RouterDifferential, MatchesFullDijkstraOnRandomWafers) {
  struct Shape {
    std::int32_t rows, cols;
  };
  const Shape shapes[] = {{1, 12}, {12, 1}, {4, 8}, {16, 16}, {32, 32}};
  const std::uint32_t lane_pools[] = {2, 3, 8, 64, 8192};
  const double penalties[] = {0.0, 0.25, 0.5, 1.0, 2.0};

  Rng rng{20240611};
  std::size_t compared = 0;
  std::size_t infeasible = 0;
  for (int c = 0; c < 250; ++c) {
    const Shape shape = shapes[c % 5];
    WaferParams params;
    params.rows = shape.rows;
    params.cols = shape.cols;
    params.lanes_per_edge = lane_pools[rng.uniform_index(5)];
    Wafer wafer{params};
    const auto tiles = wafer.tile_count();

    // Partial occupancy (scarcity) and fully reserved edges (blocked, the
    // way FaultSet quarantines a waveguide).
    const auto touched_edges = rng.uniform_index(tiles * 2 + 1);
    for (std::uint64_t e = 0; e < touched_edges; ++e) {
      const auto t = static_cast<TileId>(rng.uniform_index(tiles));
      const auto d = static_cast<Direction>(rng.uniform_index(4));
      const std::uint32_t free = wafer.lanes_free(t, d);
      if (free == 0) continue;
      const auto take = rng.bernoulli(0.5)
                            ? free
                            : static_cast<std::uint32_t>(1 + rng.uniform_index(free));
      ASSERT_TRUE(wafer.reserve_lanes(t, d, take));
    }

    RouteOptions opts;
    opts.turn_penalty = penalties[rng.uniform_index(5)];
    for (int q = 0; q < 4; ++q) {
      opts.lanes = static_cast<std::uint32_t>(
          1 + rng.uniform_index(std::min<std::uint32_t>(params.lanes_per_edge, 4)));
      const auto from = static_cast<TileId>(rng.uniform_index(tiles));
      const auto to = static_cast<TileId>(rng.uniform_index(tiles));
      const Route got = find_route(wafer, from, to, opts);
      const Route want = reference_route(wafer, from, to, opts);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "case " << c << " " << from << "->" << to << " lanes " << opts.lanes;
      ++compared;
      if (!got) {
        ++infeasible;
        continue;
      }
      ASSERT_EQ(*got, *want) << "case " << c << " " << from << "->" << to;
      EXPECT_TRUE(wafer.path_has_capacity(from, *got, opts.lanes));
    }
  }
  EXPECT_EQ(compared, 1000u);
  EXPECT_GT(infeasible, 0u) << "the sweep must exercise infeasible demands";
  EXPECT_LT(infeasible, compared / 2) << "and mostly feasible ones";
}

TEST(RouterDifferential, MatchesFullDijkstraOnAllPairsOfScarceWafer) {
  // Every pair on a 4x8 wafer with a few fully blocked edges: detours and
  // equal-cost ties everywhere.
  WaferParams params;
  params.lanes_per_edge = 2;
  Wafer wafer{params};
  Rng rng{7};
  for (int e = 0; e < 12; ++e) {
    const auto t = static_cast<TileId>(rng.uniform_index(wafer.tile_count()));
    const auto d = static_cast<Direction>(rng.uniform_index(4));
    (void)wafer.reserve_lanes(t, d, wafer.lanes_free(t, d));
  }
  for (TileId a = 0; a < wafer.tile_count(); ++a) {
    for (TileId b = 0; b < wafer.tile_count(); ++b) {
      ASSERT_EQ(find_route(wafer, a, b), reference_route(wafer, a, b, {}))
          << a << "->" << b;
    }
  }
}

TEST(Router, EmptyWaferRoutesAreManhattanWithAtMostOneTurn) {
  for (const auto& [rows, cols] : {std::pair{4, 8}, std::pair{16, 16}}) {
    WaferParams params;
    params.rows = rows;
    params.cols = cols;
    const Wafer wafer{params};
    for (TileId a = 0; a < wafer.tile_count(); ++a) {
      for (TileId b = 0; b < wafer.tile_count(); ++b) {
        const Route r = find_route(wafer, a, b);
        ASSERT_TRUE(r.has_value()) << a << "->" << b;
        ASSERT_EQ(r->size(), manhattan(wafer, a, b)) << a << "->" << b;
        ASSERT_LE(turns(*r), 1u) << a << "->" << b;
      }
    }
  }
}

TEST(Router, EqualCostTiesPreferTheLowestIncomingDirection) {
  // (0,0) -> (2,3): south-then-east and east-then-south both cost 5 hops +
  // one turn.  Arriving heading east (Direction 1) beats arriving heading
  // south (Direction 2), so the route runs south first.
  const Wafer wafer;
  const Route r = find_route(wafer, wafer.tile_at(TileCoord{0, 0}),
                             wafer.tile_at(TileCoord{2, 3}));
  using D = Direction;
  const std::vector<Direction> want{D::kSouth, D::kSouth, D::kEast, D::kEast, D::kEast};
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, want);
}

TEST(Router, ScratchReuseDoesNotLeakBetweenSearches) {
  WaferParams small;
  small.lanes_per_edge = 4;
  Wafer a{small};
  ASSERT_TRUE(a.reserve_lanes(a.tile_at(TileCoord{1, 1}), Direction::kEast, 4));
  WaferParams big;
  big.rows = 16;
  big.cols = 16;
  const Wafer b{big};
  const TileId a_from = a.tile_at(TileCoord{1, 0});
  const TileId a_to = a.tile_at(TileCoord{1, 5});
  const TileId b_from = b.tile_at(TileCoord{15, 0});
  const TileId b_to = b.tile_at(TileCoord{0, 15});

  const Route first = find_route(a, a_from, a_to);
  const Route other = find_route(b, b_from, b_to);
  const Route same_size = find_route(a, a_to, a_from);
  const Route again = find_route(a, a_from, a_to);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first, again);
  EXPECT_EQ(first, reference_route(a, a_from, a_to, {}));
  EXPECT_EQ(other, reference_route(b, b_from, b_to, {}));
  EXPECT_EQ(same_size, reference_route(a, a_to, a_from, {}));
  // An infeasible search in between leaves nothing behind either.
  RouteOptions too_wide;
  too_wide.lanes = 8;
  EXPECT_FALSE(find_route(a, a_from, a_to, too_wide).has_value());
  EXPECT_EQ(find_route(a, a_from, a_to), first);
}

TEST(Router, ConcurrentSearchesMatchSerialOnes) {
  // Each thread owns its search buffers; results must not depend on which
  // thread (or how many) ran the search.
  WaferParams params;
  params.rows = 16;
  params.cols = 16;
  params.lanes_per_edge = 4;
  Wafer wafer{params};
  Rng rng{99};
  for (int e = 0; e < 200; ++e) {
    const auto t = static_cast<TileId>(rng.uniform_index(wafer.tile_count()));
    const auto d = static_cast<Direction>(rng.uniform_index(4));
    (void)wafer.reserve_lanes(t, d, wafer.lanes_free(t, d));
  }
  std::vector<std::pair<TileId, TileId>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(static_cast<TileId>(rng.uniform_index(wafer.tile_count())),
                       static_cast<TileId>(rng.uniform_index(wafer.tile_count())));
  }
  std::vector<Route> serial;
  for (const auto& [a, b] : pairs) serial.push_back(find_route(wafer, a, b));

  constexpr int kThreads = 4;
  std::vector<std::vector<Route>> parallel(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Each thread walks the pairs from a different offset.
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const auto& [a, b] = pairs[(i + static_cast<std::size_t>(t) * 16) % pairs.size()];
        parallel[static_cast<std::size_t>(t)].push_back(find_route(wafer, a, b));
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(parallel[t][i], serial[(i + t * 16) % pairs.size()]) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace lp::routing
