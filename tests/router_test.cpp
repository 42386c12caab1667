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

// How a reference search adds up a path's cost.  Summed accumulates
// 1 + penalty step by step in doubles: exact for dyadic penalties (sums of
// powers of two), which is all MatchesFullDijkstraOnRandomWafers uses.
// Counted keeps (hops, turns) and values them as hops + turns * penalty, as
// find_route does: two paths with the same counts compare equal bit for bit
// for any penalty.
struct Summed {
  double total{0.0};
  [[nodiscard]] Summed plus(bool turn, double penalty) const {
    return Summed{total + (1.0 + (turn ? penalty : 0.0))};
  }
  [[nodiscard]] double value(double /*penalty*/) const { return total; }
};
struct Counted {
  std::uint32_t hops{0};
  std::uint32_t turns{0};
  [[nodiscard]] Counted plus(bool turn, double /*penalty*/) const {
    return Counted{hops + 1, turns + (turn ? 1u : 0u)};
  }
  [[nodiscard]] double value(double penalty) const {
    return static_cast<double>(hops) + static_cast<double>(turns) * penalty;
  }
};

// Full Dijkstra through Wafer's public API: no bound, no cut, no early exit.
// The route is chosen by the contract find_route documents: cheapest
// terminal (lowest incoming direction on ties), then at each step back the
// lowest-incoming-direction predecessor on a minimum-cost path.  A step back
// with no matching predecessor is a test failure.
template <typename Cost>
Route reference_route(const Wafer& wafer, TileId from, TileId to, const RouteOptions& o) {
  if (from == to) return std::vector<Direction>{};
  constexpr std::size_t kNone = 4;
  const double inf = std::numeric_limits<double>::infinity();
  const std::size_t states = static_cast<std::size_t>(wafer.tile_count()) * 5;
  std::vector<double> dist(states, inf);
  std::vector<Cost> cost(states);
  const auto extend = [&](std::size_t s, Direction d) {
    const std::size_t in = s % 5;
    return cost[s].plus(in != kNone && in != static_cast<std::size_t>(d), o.turn_penalty);
  };
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  const std::size_t start = static_cast<std::size_t>(from) * 5 + kNone;
  dist[start] = 0.0;
  heap.emplace(0.0, start);
  while (!heap.empty()) {
    const auto [value, s] = heap.top();
    heap.pop();
    if (value > dist[s]) continue;
    const auto tile = static_cast<TileId>(s / 5);
    for (Direction d : fabric::kAllDirections) {
      const auto next = wafer.neighbor(tile, d);
      if (!next || wafer.lanes_free(tile, d) < o.lanes) continue;
      const std::size_t n = static_cast<std::size_t>(*next) * 5 + static_cast<std::size_t>(d);
      const Cost c = extend(s, d);
      if (c.value(o.turn_penalty) < dist[n]) {
        dist[n] = c.value(o.turn_penalty);
        cost[n] = c;
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
    std::optional<std::size_t> chosen;
    for (std::size_t in = 0; in < 5 && !chosen; ++in) {
      const std::size_t p = static_cast<std::size_t>(*prev) * 5 + in;
      if (dist[p] != inf && extend(p, d).value(o.turn_penalty) == dist[s]) chosen = p;
    }
    if (!chosen) {
      ADD_FAILURE() << "reference back-trace found no predecessor of state " << s << " ("
                    << from << "->" << to << ")";
      return std::nullopt;
    }
    s = *chosen;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

Route reference_route(const Wafer& wafer, TileId from, TileId to, const RouteOptions& o) {
  return reference_route<Summed>(wafer, from, to, o);
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

TEST(RouterDifferential, MatchesCountedDijkstraForAnyPenalty) {
  // Penalties that are not sums of powers of two: summed step by step they
  // round differently along different paths, so only the counted reference
  // is exact.  Scarce lanes force detours with many turns, where (hops,
  // turns) pairs of near-equal value meet.
  struct Shape {
    std::int32_t rows, cols;
  };
  const Shape shapes[] = {{1, 1}, {1, 12}, {12, 1}, {4, 8}, {4, 14}, {16, 16}, {32, 32}};
  const double penalties[] = {0.1, 0.2, 0.3, 1.0 / 3.0, 0.6, 0.7};

  Rng rng{20261017};
  std::size_t compared = 0;
  std::size_t infeasible = 0;
  for (int c = 0; c < 420; ++c) {
    const Shape shape = shapes[c % 7];
    WaferParams params;
    params.rows = shape.rows;
    params.cols = shape.cols;
    params.lanes_per_edge = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
    Wafer wafer{params};
    const auto tiles = wafer.tile_count();

    // Partial occupancy and fully reserved edges.
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
    opts.turn_penalty = penalties[rng.uniform_index(6)];
    for (int q = 0; q < 4; ++q) {
      opts.lanes = static_cast<std::uint32_t>(1 + rng.uniform_index(params.lanes_per_edge));
      const auto from = static_cast<TileId>(rng.uniform_index(tiles));
      const auto to = static_cast<TileId>(rng.uniform_index(tiles));
      const Route got = find_route(wafer, from, to, opts);
      const Route want = reference_route<Counted>(wafer, from, to, opts);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "case " << c << " " << from << "->" << to << " lanes " << opts.lanes;
      ++compared;
      if (!got) {
        ++infeasible;
        continue;
      }
      ASSERT_EQ(*got, *want) << "case " << c << " " << from << "->" << to << " penalty "
                             << opts.turn_penalty;
      EXPECT_TRUE(wafer.path_has_capacity(from, *got, opts.lanes));
    }
  }
  EXPECT_EQ(compared, 1680u);
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

TEST(Router, NonDyadicPenaltyStaysOnTheTile) {
  // Summed step by step, 1 + 1/3 rounds differently along different paths
  // to one state, so a back-trace that compares sums finds no matching
  // predecessor on this route and leaves the tile.
  WaferParams params;
  params.rows = 4;
  params.cols = 14;
  params.lanes_per_edge = 1;
  Wafer wafer{params};
  // (tile, direction) edges taken, directions N0 E1 S2 W3.
  const std::pair<TileId, int> blocked[] = {
      {23, 1}, {43, 1}, {47, 0}, {38, 1}, {15, 3}, {29, 1}, {43, 3},
      {45, 0}, {16, 0}, {9, 1},  {1, 3},  {33, 0}, {46, 3}, {36, 3},
      {34, 2}, {32, 0}, {33, 1}, {46, 0}, {49, 0}, {8, 1}};
  for (const auto& [t, d] : blocked) {
    (void)wafer.reserve_lanes(t, static_cast<Direction>(d), 1);
  }
  RouteOptions opts;
  opts.turn_penalty = 1.0 / 3.0;
  const Route got = find_route(wafer, 29, 41, opts);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got, reference_route<Counted>(wafer, 29, 41, opts));
  EXPECT_EQ(got->size(), 16u);
  EXPECT_TRUE(wafer.path_has_capacity(29, *got, 1));
}

TEST(Router, PenaltiesOutsideTheDomainFindNoRoute) {
  // A negative penalty makes the bound overestimate, and at -1 or below a
  // turning step costs nothing or less, so loops never stop paying off; a
  // count times an infinite penalty is NaN.  No search starts.
  const Wafer wafer;
  const TileId from = wafer.tile_at(TileCoord{0, 0});
  const TileId to = wafer.tile_at(TileCoord{3, 7});
  for (const double penalty : {-0.25, -1.0, -1.5, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    RouteOptions opts;
    opts.turn_penalty = penalty;
    EXPECT_FALSE(find_route(wafer, from, to, opts).has_value()) << penalty;
  }
  EXPECT_EQ(find_route(wafer, from, to), reference_route<Counted>(wafer, from, to, {}));
}

// (0,0) -> (3,5) on the default 4x8 wafer.  Columns first runs east along
// row 0, then south down column 5; rows first runs south down column 0, then
// east along row 3.  Each is one turn, the cheapest a non-aligned route gets;
// on an open wafer they tie and rows first wins (it arrives heading east).
class DimensionOrdered : public ::testing::Test {
 protected:
  void block(TileCoord at, Direction d) {
    const TileId t = wafer.tile_at(at);
    ASSERT_TRUE(wafer.reserve_lanes(t, d, wafer.lanes_free(t, d)));
  }
  [[nodiscard]] Route route(const RouteOptions& o = {}) const {
    return find_route(wafer, from, to, o);
  }
  [[nodiscard]] Route reference(const RouteOptions& o = {}) const {
    return reference_route<Counted>(wafer, from, to, o);
  }

  Wafer wafer;
  TileId from = wafer.tile_at(TileCoord{0, 0});
  TileId to = wafer.tile_at(TileCoord{3, 5});
};

using D = Direction;
const std::vector<Direction> kRowsFirst{D::kSouth, D::kSouth, D::kSouth, D::kEast,
                                        D::kEast,  D::kEast,  D::kEast,  D::kEast};
const std::vector<Direction> kColumnsFirst{D::kEast, D::kEast,  D::kEast,  D::kEast,
                                           D::kEast, D::kSouth, D::kSouth, D::kSouth};

TEST_F(DimensionOrdered, OnlyColumnsFirstBlocked) {
  block(TileCoord{0, 2}, D::kEast);
  EXPECT_EQ(route(), kRowsFirst);
  EXPECT_EQ(route(), reference());
}

TEST_F(DimensionOrdered, OnlyRowsFirstBlocked) {
  block(TileCoord{2, 0}, D::kSouth);
  EXPECT_EQ(route(), kColumnsFirst);
  EXPECT_EQ(route(), reference());
}

TEST_F(DimensionOrdered, BothBlockedDetours) {
  block(TileCoord{0, 2}, D::kEast);
  block(TileCoord{2, 0}, D::kSouth);
  const Route r = route();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r, reference());
  EXPECT_EQ(r->size(), manhattan(wafer, from, to));
  EXPECT_EQ(turns(*r), 2u);
}

TEST_F(DimensionOrdered, BothBlockedDetourAddsHops) {
  // A wall between columns 4 and 5 on rows 1..3, and the first hop east of
  // (0,0) cut: a route must leave row 0 and come back to cross the wall, so
  // it is longer than Manhattan.
  block(TileCoord{0, 0}, D::kEast);
  for (std::int32_t row = 1; row < 4; ++row) block(TileCoord{row, 4}, D::kEast);
  const Route r = route();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r, reference());
  EXPECT_GT(r->size(), manhattan(wafer, from, to));
}

TEST_F(DimensionOrdered, ClosedFormNeedsOneTurnToBeatTwo) {
  // With rows first cut, the free columns-first L is the only one-turn route.
  // It is the unique minimum only where one turn is worth strictly less than
  // two: at penalty 0 every staircase ties with it, and at 1e-300 or 1e-15
  // the values 8 + penalty and 8 + 2 x penalty round to the same double.  The
  // search then returns the staircase the tie-break picks, not the L.
  block(TileCoord{2, 0}, D::kSouth);
  const std::vector<Direction> staircase{D::kEast,  D::kSouth, D::kSouth, D::kSouth,
                                         D::kEast,  D::kEast,  D::kEast,  D::kEast};
  for (const double penalty : {0.0, 1e-300, 1e-15}) {
    RouteOptions opts;
    opts.turn_penalty = penalty;
    const Route r = route(opts);
    ASSERT_TRUE(r.has_value()) << penalty;
    EXPECT_EQ(r, reference(opts)) << penalty;
    EXPECT_NE(r, kColumnsFirst) << penalty;
    EXPECT_GT(turns(*r), 1u) << penalty;
  }
  RouteOptions tiny;
  tiny.turn_penalty = 1e-15;
  EXPECT_EQ(route(tiny), staircase);
  RouteOptions quarter;
  quarter.turn_penalty = 0.25;
  EXPECT_EQ(route(quarter), kColumnsFirst);
  EXPECT_EQ(route(quarter), reference(quarter));
}

TEST(Router, FreeDimensionOrderedRoutesMatchReference) {
  // Both L's free, from (1,3) into each quadrant: the route arrives in the
  // lower direction of the two, as the tie-break contract picks it.
  const Wafer open;
  const TileId center = open.tile_at(TileCoord{1, 3});
  const TileCoord corners[] = {{0, 6}, {0, 0}, {3, 6}, {3, 1}};  // NE NW SE SW
  for (const TileCoord at : corners) {
    const TileId to = open.tile_at(at);
    const Route r = find_route(open, center, to);
    ASSERT_TRUE(r.has_value()) << at.row << "," << at.col;
    EXPECT_EQ(r, reference_route<Counted>(open, center, to, {})) << at.row << "," << at.col;
    EXPECT_EQ(turns(*r), 1u);
    EXPECT_EQ(r->back(), std::min(r->front(), r->back())) << at.row << "," << at.col;
  }

  // An aligned pair at penalty 0: the straight path is the only route with
  // Manhattan hops, whatever a turn costs.
  RouteOptions free_turns;
  free_turns.turn_penalty = 0.0;
  for (const auto& [a, b] : {std::pair{TileCoord{1, 0}, TileCoord{1, 6}},
                             std::pair{TileCoord{3, 5}, TileCoord{0, 5}}}) {
    const Route r = find_route(open, open.tile_at(a), open.tile_at(b), free_turns);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r, reference_route<Counted>(open, open.tile_at(a), open.tile_at(b), free_turns));
    EXPECT_EQ(turns(*r), 0u);
  }

  // Two lanes wanted, and rows first from (0,0) to (3,5) holds one free lane
  // on its edge south of (1,0): columns first is the answer.  With one lane
  // wanted both L's are free again and rows first wins the tie.
  WaferParams params;
  params.lanes_per_edge = 4;
  Wafer scarce{params};
  const TileId narrowed = scarce.tile_at(TileCoord{1, 0});
  ASSERT_TRUE(scarce.reserve_lanes(narrowed, D::kSouth, 3));
  const TileId from = scarce.tile_at(TileCoord{0, 0});
  const TileId to = scarce.tile_at(TileCoord{3, 5});
  RouteOptions two;
  two.lanes = 2;
  EXPECT_EQ(find_route(scarce, from, to, two), kColumnsFirst);
  EXPECT_EQ(find_route(scarce, from, to, two), reference_route<Counted>(scarce, from, to, two));
  EXPECT_EQ(find_route(scarce, from, to), kRowsFirst);
  EXPECT_EQ(find_route(scarce, from, to), reference_route<Counted>(scarce, from, to, {}));
}

TEST(Router, OffWaferTileHasNoRoute) {
  // Tile ids at or past tile_count() name no tile; no lane is read for them.
  const Wafer wafer;  // 4x8: tiles 0..31
  const TileId last = wafer.tile_count() - 1;
  EXPECT_FALSE(find_route(wafer, 0, 41).has_value());
  EXPECT_FALSE(find_route(wafer, 41, 0).has_value());
  EXPECT_FALSE(find_route(wafer, 0, wafer.tile_count()).has_value());
  EXPECT_FALSE(find_route(wafer, wafer.tile_count(), last).has_value());
  EXPECT_FALSE(find_route(wafer, 41, 41).has_value());
  EXPECT_TRUE(find_route(wafer, 0, last).has_value());
}

TEST(Router, AlignedPairWithStraightLineBlocked) {
  // (1,0) -> (1,6): the one straight path is cut at (1,3), so nothing is
  // pruned and the route leaves the row: two hops and two turns extra.
  Wafer wafer;
  const TileId cut = wafer.tile_at(TileCoord{1, 3});
  ASSERT_TRUE(wafer.reserve_lanes(cut, Direction::kEast,
                                  wafer.lanes_free(cut, Direction::kEast)));
  const TileId from = wafer.tile_at(TileCoord{1, 0});
  const TileId to = wafer.tile_at(TileCoord{1, 6});
  const Route r = find_route(wafer, from, to);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r, reference_route<Counted>(wafer, from, to, {}));
  EXPECT_EQ(r->size(), 8u);
  EXPECT_EQ(turns(*r), 2u);
}

TEST(Router, ZeroPenaltyStaircaseTiesMatchReference) {
  // With free turns every monotone staircase ties with the two
  // dimension-ordered paths; only the back-trace's tie-break picks one.
  RouteOptions opts;
  opts.turn_penalty = 0.0;
  for (const auto& [rows, cols] : {std::pair{4, 8}, std::pair{8, 8}}) {
    WaferParams params;
    params.rows = rows;
    params.cols = cols;
    const Wafer wafer{params};
    for (TileId a = 0; a < wafer.tile_count(); ++a) {
      for (TileId b = 0; b < wafer.tile_count(); ++b) {
        const Route r = find_route(wafer, a, b, opts);
        ASSERT_EQ(r, reference_route<Counted>(wafer, a, b, opts)) << a << "->" << b;
        ASSERT_EQ(r->size(), manhattan(wafer, a, b)) << a << "->" << b;
      }
    }
  }
}

TEST(Router, RouteSurvivesOccupancyOffItsPath) {
  // Taking lanes only off edges a route does not use leaves find_route's
  // answer unchanged: a path's cost counts hops and turns, not occupancy,
  // so the route is still of minimum cost, and removing other candidates
  // cannot move the tie-break off it.  A route found on an earlier ledger
  // that still fits is therefore the route a live search returns.
  const double penalties[] = {0.0, 0.25, 0.5, 1.0, 2.0, 1.0 / 3.0};

  Rng rng{20261019};
  std::size_t routed = 0;
  std::size_t detours = 0;
  for (int c = 0; c < 16000; ++c) {
    WaferParams params;
    params.rows = static_cast<std::int32_t>(2 + rng.uniform_index(10));
    params.cols = static_cast<std::int32_t>(2 + rng.uniform_index(10));
    params.lanes_per_edge = static_cast<std::uint32_t>(1 + rng.uniform_index(2));
    Wafer wafer{params};
    const auto tiles = wafer.tile_count();
    const auto fill = [&](const std::vector<bool>& keep) {
      const auto touched_edges = rng.uniform_index(tiles * 2 + 1);
      for (std::uint64_t e = 0; e < touched_edges; ++e) {
        const auto t = static_cast<TileId>(rng.uniform_index(tiles));
        const auto d = static_cast<Direction>(rng.uniform_index(4));
        const std::uint32_t free = wafer.lanes_free(t, d);
        if (free == 0 || (!keep.empty() && keep[t * 4 + static_cast<std::size_t>(d)])) {
          continue;
        }
        const auto take = static_cast<std::uint32_t>(1 + rng.uniform_index(free));
        ASSERT_TRUE(wafer.reserve_lanes(t, d, take));
      }
    };
    fill({});

    RouteOptions opts;
    opts.turn_penalty = penalties[c % 6];
    opts.lanes = static_cast<std::uint32_t>(1 + rng.uniform_index(params.lanes_per_edge));
    const auto from = static_cast<TileId>(rng.uniform_index(tiles));
    const auto to = static_cast<TileId>(rng.uniform_index(tiles));
    const Route before = find_route(wafer, from, to, opts);
    if (!before) continue;
    ++routed;
    if (before->size() > manhattan(wafer, from, to)) ++detours;

    std::vector<bool> on_path(static_cast<std::size_t>(tiles) * 4, false);
    TileId at = from;
    for (const Direction d : *before) {
      on_path[at * 4 + static_cast<std::size_t>(d)] = true;
      at = *wafer.neighbor(at, d);
    }
    fill(on_path);
    ASSERT_EQ(find_route(wafer, from, to, opts), before)
        << "case " << c << " " << from << "->" << to << " penalty " << opts.turn_penalty;
  }
  EXPECT_GT(routed, 12000u);
  EXPECT_GT(detours, 2000u) << "the sweep must route around occupied edges";
}

}  // namespace
}  // namespace lp::routing
