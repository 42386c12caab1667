#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "lightpath/circuit.hpp"
#include "lightpath/fabric.hpp"
#include "lightpath/reconfig.hpp"
#include "lightpath/tile.hpp"
#include "lightpath/wafer.hpp"
#include "util/rng.hpp"

namespace lp::fabric {
namespace {

TEST(Tile, WavelengthReservation) {
  Tile tile;
  EXPECT_EQ(tile.tx_free(), 16u);
  EXPECT_TRUE(tile.reserve_tx(10));
  EXPECT_EQ(tile.tx_free(), 6u);
  EXPECT_FALSE(tile.reserve_tx(7));
  EXPECT_EQ(tile.tx_free(), 6u) << "failed reservation must not consume";
  tile.release_tx(4);
  EXPECT_EQ(tile.tx_free(), 10u);
  tile.release_tx(100);  // clamps
  EXPECT_EQ(tile.tx_free(), 16u);
}

TEST(Tile, RxIndependentOfTx) {
  Tile tile;
  EXPECT_TRUE(tile.reserve_tx(16));
  EXPECT_TRUE(tile.reserve_rx(16));
  EXPECT_FALSE(tile.reserve_rx(1));
}

TEST(Tile, WaveguideDensityMatchesPaper) {
  // 25 mm tile edge at 3 um pitch -> 8333 lanes per edge side; both axes
  // give "over 10,000 waveguides per tile" (Figure 4).
  const TileParams params;
  const std::uint32_t per_edge = waveguides_per_edge(params);
  EXPECT_GT(per_edge, 8000u);
  EXPECT_GT(2 * per_edge, 10000u);
}

TEST(Wafer, GeometryRoundTrip) {
  const Wafer wafer;
  EXPECT_EQ(wafer.tile_count(), 32u);
  for (TileId t = 0; t < wafer.tile_count(); ++t) {
    EXPECT_EQ(wafer.tile_at(wafer.coord_of(t)), t);
  }
}

TEST(Wafer, NeighborsRespectBoundary) {
  const Wafer wafer;  // 4 rows x 8 cols
  const TileId corner = wafer.tile_at(TileCoord{0, 0});
  EXPECT_FALSE(wafer.neighbor(corner, Direction::kNorth).has_value());
  EXPECT_FALSE(wafer.neighbor(corner, Direction::kWest).has_value());
  ASSERT_TRUE(wafer.neighbor(corner, Direction::kEast).has_value());
  EXPECT_EQ(*wafer.neighbor(corner, Direction::kEast), wafer.tile_at(TileCoord{0, 1}));
  ASSERT_TRUE(wafer.neighbor(corner, Direction::kSouth).has_value());
  EXPECT_EQ(*wafer.neighbor(corner, Direction::kSouth), wafer.tile_at(TileCoord{1, 0}));
}

TEST(Wafer, NeighborTableMatchesCoordinates) {
  // neighbor() reads a table filled at construction; every entry must agree
  // with stepping the tile's coordinates, on thin and square wafers alike.
  const std::pair<std::int32_t, std::int32_t> shapes[] = {
      {1, 12}, {12, 1}, {4, 8}, {16, 16}, {32, 32}};
  for (const auto& [rows, cols] : shapes) {
    WaferParams params;
    params.rows = rows;
    params.cols = cols;
    const Wafer wafer{params};
    for (TileId t = 0; t < wafer.tile_count(); ++t) {
      for (Direction d : kAllDirections) {
        TileCoord c = wafer.coord_of(t);
        c.row += d == Direction::kSouth ? 1 : d == Direction::kNorth ? -1 : 0;
        c.col += d == Direction::kEast ? 1 : d == Direction::kWest ? -1 : 0;
        const auto next = wafer.neighbor(t, d);
        ASSERT_EQ(next.has_value(), wafer.contains(c))
            << rows << "x" << cols << " tile " << t << " dir " << to_string(d);
        if (next) {
          EXPECT_EQ(*next, wafer.tile_at(c))
              << rows << "x" << cols << " tile " << t << " dir " << to_string(d);
        } else {
          EXPECT_EQ(wafer.lanes_free(t, d), 0u);
        }
      }
    }
  }
}

TEST(Wafer, OppositeDirections) {
  EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
  EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
  EXPECT_EQ(opposite(Direction::kWest), Direction::kEast);
  EXPECT_EQ(opposite(Direction::kSouth), Direction::kNorth);
}

TEST(Wafer, LaneAccounting) {
  WaferParams params;
  params.lanes_per_edge = 10;
  Wafer wafer{params};
  const TileId t = wafer.tile_at(TileCoord{1, 1});
  EXPECT_EQ(wafer.lanes_free(t, Direction::kEast), 10u);
  EXPECT_TRUE(wafer.reserve_lanes(t, Direction::kEast, 7));
  EXPECT_EQ(wafer.lanes_free(t, Direction::kEast), 3u);
  EXPECT_FALSE(wafer.reserve_lanes(t, Direction::kEast, 4));
  wafer.release_lanes(t, Direction::kEast, 7);
  EXPECT_EQ(wafer.lanes_free(t, Direction::kEast), 10u);
}

TEST(Wafer, EdgeOffWaferHasNoLanes) {
  const Wafer wafer;
  const TileId corner = wafer.tile_at(TileCoord{0, 0});
  EXPECT_EQ(wafer.lanes_free(corner, Direction::kNorth), 0u);
  EXPECT_EQ(wafer.lanes_free(corner, Direction::kWest), 0u);
}

TEST(Wafer, ReservePathAtomicRollback) {
  WaferParams params;
  params.lanes_per_edge = 4;
  Wafer wafer{params};
  const TileId start = wafer.tile_at(TileCoord{0, 0});
  // Exhaust the second hop's edge.
  const TileId second = wafer.tile_at(TileCoord{0, 1});
  EXPECT_TRUE(wafer.reserve_lanes(second, Direction::kEast, 4));

  const std::vector<Direction> path{Direction::kEast, Direction::kEast};
  const auto result = wafer.reserve_path(start, path, 1);
  EXPECT_FALSE(result.ok());
  // First hop must have been rolled back.
  EXPECT_EQ(wafer.lanes_used(start, Direction::kEast), 0u);
}

TEST(Wafer, PathCapacityAndTiles) {
  const Wafer wafer;
  const TileId start = wafer.tile_at(TileCoord{0, 0});
  const std::vector<Direction> path{Direction::kEast, Direction::kSouth,
                                    Direction::kEast};
  EXPECT_TRUE(wafer.path_has_capacity(start, path, 1));
  const auto tiles = wafer.tiles_on_path(start, path);
  ASSERT_EQ(tiles.size(), 4u);
  EXPECT_EQ(tiles.front(), start);
  EXPECT_EQ(tiles.back(), wafer.tile_at(TileCoord{1, 2}));
}

TEST(Circuit, HopAndTurnCounting) {
  Circuit c;
  c.segments.push_back(Circuit::Segment{
      0, 0, {Direction::kEast, Direction::kEast, Direction::kSouth, Direction::kEast}});
  EXPECT_EQ(c.waveguide_hop_count(), 4u);
  EXPECT_EQ(c.turn_count(), 2u);
  // 5 tiles on the segment + 2 turns.
  EXPECT_EQ(c.mzis_to_program(), 7u);
}

TEST(Circuit, ProfileConventions) {
  Circuit c;
  c.segments.push_back(
      Circuit::Segment{0, 0, {Direction::kEast, Direction::kEast, Direction::kSouth}});
  const TileParams tile;
  const phys::CircuitProfile p = profile_of(c, tile);
  EXPECT_EQ(p.stitches, 3u);
  EXPECT_NEAR(p.waveguide_length.to_millimeters(), 75.0, 1e-9);
  EXPECT_EQ(p.crossings, 2u + 1u);  // 2 pass-throughs + 1 turn
  EXPECT_EQ(p.fiber_hops, 0u);
}

TEST(Circuit, BandwidthScalesWithWavelengths) {
  Circuit c;
  c.wavelengths = 4;
  EXPECT_NEAR(c.bandwidth(Bandwidth::gbps(224)).to_gbps(), 896.0, 1e-9);
}

TEST(Reconfig, DefaultLatencyNearPaperValue) {
  const ReconfigController ctl;
  // Settle dominates: ~3.69 us + n * 20 ns.
  EXPECT_NEAR(ctl.batch_latency(1).to_micros(), 3.71, 0.05);
  EXPECT_NEAR(ctl.settle_latency().to_micros(), 3.69, 0.02);
  EXPECT_EQ(ctl.batch_latency(0), Duration::zero());
}

TEST(Reconfig, SettleLatencyMatchesMziSettlingTimeExactly) {
  // The settle latency is computed once at construction; it must equal a
  // fresh Mzi's settling time bit for bit, for non-default parameters too.
  ReconfigParams p;
  p.per_mzi_program = Duration::nanos(35.0);
  p.batch_overhead = Duration::nanos(120.0);
  p.mzi.tau = Duration::micros(2.3);
  p.mzi.settle_fraction = 0.01;
  const ReconfigController ctl{p};
  const Duration settle = phys::Mzi{p.mzi}.settling_time();
  EXPECT_EQ(ctl.settle_latency(), settle);
  EXPECT_EQ(ctl.batch_latency(7),
            p.batch_overhead + p.per_mzi_program * 7.0 + settle);
  EXPECT_EQ(ReconfigController{}.settle_latency(), phys::Mzi{}.settling_time());
}

TEST(Reconfig, StatsAccumulate) {
  ReconfigController ctl;
  ctl.reconfigure(3);
  ctl.reconfigure(5);
  ctl.reconfigure(0);  // no-op
  EXPECT_EQ(ctl.batches(), 2u);
  EXPECT_EQ(ctl.mzis_programmed(), 8u);
  EXPECT_GT(ctl.total_time().to_micros(), 7.0);
  ctl.reset_stats();
  EXPECT_EQ(ctl.batches(), 0u);
  EXPECT_EQ(ctl.mzis_programmed(), 0u);
  EXPECT_EQ(ctl.total_time().to_seconds(), 0.0);
  // The controller keeps working after a stats reset.
  ctl.reconfigure(2);
  EXPECT_EQ(ctl.batches(), 1u);
  EXPECT_EQ(ctl.mzis_programmed(), 2u);
}

TEST(Fabric, XyRouteShape) {
  const Wafer wafer;
  const TileId a = wafer.tile_at(TileCoord{0, 0});
  const TileId b = wafer.tile_at(TileCoord{3, 5});
  const auto hops = Fabric::xy_route(wafer, a, b);
  EXPECT_EQ(hops.size(), 8u);  // 5 east + 3 south
  // Column moves first.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(hops[i], Direction::kEast);
  for (std::size_t i = 5; i < 8; ++i) EXPECT_EQ(hops[i], Direction::kSouth);

  // Every tile pair, both orders: the route reaches the destination in
  // Manhattan hops, columns first for XY and rows first for YX.
  const auto is_row_move = [](Direction d) {
    return d == Direction::kNorth || d == Direction::kSouth;
  };
  for (TileId from = 0; from < wafer.tile_count(); ++from) {
    for (TileId to = 0; to < wafer.tile_count(); ++to) {
      const TileCoord f = wafer.coord_of(from);
      const TileCoord t = wafer.coord_of(to);
      const auto manhattan =
          static_cast<std::size_t>(std::abs(t.row - f.row) + std::abs(t.col - f.col));
      for (const bool rows_first : {false, true}) {
        const auto route = Fabric::xy_route(wafer, from, to, rows_first);
        ASSERT_EQ(route.size(), manhattan) << from << "->" << to << " yx=" << rows_first;
        TileId at = from;
        for (std::size_t i = 0; i < route.size(); ++i) {
          const auto next = wafer.neighbor(at, route[i]);
          ASSERT_TRUE(next.has_value()) << from << "->" << to << " hop " << i;
          at = *next;
          // The first dimension's moves all come before the second's.
          if (i > 0 && is_row_move(route[i - 1]) != is_row_move(route[i])) {
            EXPECT_EQ(is_row_move(route[i - 1]), rows_first) << from << "->" << to;
          }
        }
        EXPECT_EQ(at, to) << from << "->" << to << " yx=" << rows_first;
      }
    }
  }
}

TEST(Fabric, ConnectAndDisconnectRestoresResources) {
  Fabric fab;
  EXPECT_EQ(fab.wafer(0).tile_count(), 32u);
  const GlobalTile a{0, 0};
  const GlobalTile b{0, 9};
  const auto before_lanes = fab.wafer(0).total_lanes_used();
  auto id = fab.connect(a, b, 4);
  ASSERT_TRUE(id.ok()) << id.error().message;
  EXPECT_EQ(fab.active_circuits(), 1u);
  EXPECT_GT(fab.wafer(0).total_lanes_used(), before_lanes);
  EXPECT_EQ(fab.wafer(0).tile(0).tx_used(), 4u);
  EXPECT_EQ(fab.wafer(0).tile(9).rx_used(), 4u);
  EXPECT_NEAR(fab.circuit_bandwidth(id.value()).to_gbps(), 4 * 224.0, 1e-6);

  fab.disconnect(id.value());
  EXPECT_EQ(fab.active_circuits(), 0u);
  EXPECT_EQ(fab.wafer(0).total_lanes_used(), before_lanes);
  EXPECT_EQ(fab.wafer(0).tile(0).tx_used(), 0u);
  fab.disconnect(id.value());  // idempotent
}

TEST(Fabric, ConnectValidatesArguments) {
  Fabric fab;
  EXPECT_FALSE(fab.connect(GlobalTile{0, 0}, GlobalTile{0, 0}, 1).ok());
  EXPECT_FALSE(fab.connect(GlobalTile{0, 0}, GlobalTile{0, 1}, 0).ok());
  EXPECT_FALSE(fab.connect(GlobalTile{5, 0}, GlobalTile{0, 1}, 1).ok());

  // Tile ids past the 32-tile wafer, as source and as destination, on one
  // wafer and across two (with a fiber link, so only the tile id is wrong):
  // rejected before anything is reserved.
  FabricConfig two;
  two.wafer_count = 2;
  Fabric cross{two};
  cross.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 16);
  for (Fabric* f : {&fab, &cross}) {
    const std::uint64_t key = f->ledger_key();
    for (const TileId bad : {TileId{32}, TileId{999}}) {
      const WaferId far = f->wafer_count() - 1;
      EXPECT_FALSE(f->contains(GlobalTile{0, bad}));
      EXPECT_FALSE(f->connect(GlobalTile{0, bad}, GlobalTile{0, 1}, 1).ok());
      EXPECT_FALSE(f->connect(GlobalTile{0, 1}, GlobalTile{0, bad}, 1).ok());
      EXPECT_FALSE(f->connect(GlobalTile{0, bad}, GlobalTile{far, 1}, 1).ok());
      EXPECT_FALSE(f->connect(GlobalTile{0, 1}, GlobalTile{far, bad}, 1).ok());
      EXPECT_FALSE(f->connect_via(GlobalTile{0, bad}, GlobalTile{0, 1}, {}, 1).ok());
      EXPECT_FALSE(f->connect_via(GlobalTile{0, 0}, GlobalTile{0, bad},
                                  std::vector{Direction::kEast}, 1).ok());
    }
    EXPECT_TRUE(f->contains(GlobalTile{f->wafer_count() - 1, 31}));
    EXPECT_FALSE(f->contains(GlobalTile{f->wafer_count(), 0}));
    EXPECT_EQ(f->active_circuits(), 0u);
    EXPECT_EQ(f->ledger_key(), key);
  }
  // Same tile ids in range still connect across the wafers.
  EXPECT_TRUE(cross.connect(GlobalTile{0, 31}, GlobalTile{1, 31}, 1).ok());
}

TEST(Fabric, TxExhaustionFailsCleanly) {
  Fabric fab;
  ASSERT_TRUE(fab.connect(GlobalTile{0, 0}, GlobalTile{0, 1}, 16).ok());
  const auto second = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 2}, 1);
  EXPECT_FALSE(second.ok());
  // Rx of tile 2 untouched.
  EXPECT_EQ(fab.wafer(0).tile(2).rx_used(), 0u);
}

TEST(Fabric, CrossWaferNeedsFiber) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  EXPECT_FALSE(fab.connect(GlobalTile{0, 7}, GlobalTile{1, 0}, 1).ok());

  fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 8);
  auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{1, 5}, 2);
  ASSERT_TRUE(id.ok()) << id.error().message;
  const Circuit* c = fab.circuit(id.value());
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->fiber_hops, 1u);
  EXPECT_EQ(c->segments.size(), 2u);
  EXPECT_EQ(fab.fiber_links()[0].used, 2u);
  fab.disconnect(id.value());
  EXPECT_EQ(fab.fiber_links()[0].used, 0u);
}

TEST(Fabric, FiberCapacityEnforced) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 4);
  ASSERT_TRUE(fab.connect(GlobalTile{0, 0}, GlobalTile{1, 5}, 3).ok());
  EXPECT_FALSE(fab.connect(GlobalTile{0, 1}, GlobalTile{1, 6}, 2).ok());
  EXPECT_TRUE(fab.connect(GlobalTile{0, 1}, GlobalTile{1, 6}, 1).ok());
}

TEST(Fabric, FiberLinkIsBidirectional) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 8);
  EXPECT_TRUE(fab.connect(GlobalTile{1, 5}, GlobalTile{0, 3}, 1).ok());
}

TEST(Fabric, ConnectViaValidatesPath) {
  Fabric fab;
  // Path not ending at destination.
  EXPECT_FALSE(
      fab.connect_via(GlobalTile{0, 0}, GlobalTile{0, 2}, std::vector{Direction::kEast}, 1)
          .ok());
  // Path off the wafer.
  EXPECT_FALSE(
      fab.connect_via(GlobalTile{0, 0}, GlobalTile{0, 1}, std::vector{Direction::kNorth}, 1)
          .ok());
  // Valid L-shaped path.
  const auto id = fab.connect_via(
      GlobalTile{0, 0}, GlobalTile{0, 9},
      std::vector{Direction::kSouth, Direction::kEast}, 2);
  ASSERT_TRUE(id.ok()) << id.error().message;
  EXPECT_EQ(fab.circuit(id.value())->turn_count(), 1u);
}

TEST(Fabric, ConnectViaRejectsSameTile) {
  Fabric fab;
  const std::uint64_t digest = fab.ledger_digest();
  const std::uint64_t key = fab.ledger_key();
  const auto self = fab.connect_via(GlobalTile{0, 5}, GlobalTile{0, 5}, {}, 3);
  ASSERT_FALSE(self.ok());
  EXPECT_EQ(self.error().message,
            fab.connect(GlobalTile{0, 5}, GlobalTile{0, 5}, 3).error().message);
  EXPECT_EQ(fab.active_circuits(), 0u);
  EXPECT_EQ(fab.wafer(0).tile(5).tx_used(), 0u);
  EXPECT_EQ(fab.wafer(0).tile(5).rx_used(), 0u);
  EXPECT_EQ(fab.ledger_digest(), digest);
  EXPECT_EQ(fab.ledger_key(), key);
}

TEST(Fabric, CircuitBudgetCloses) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 31}, 1);
  ASSERT_TRUE(id.ok());
  const auto report = fab.circuit_budget(id.value());
  EXPECT_TRUE(report.closes) << "corner-to-corner circuit must close: ber="
                             << report.pre_fec_ber;
}

TEST(Fabric, UnknownCircuitBudgetDoesNotClose) {
  Fabric fab;
  const auto id = fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 2);
  ASSERT_TRUE(id.ok());
  fab.disconnect(id.value());
  for (const CircuitId gone : {id.value(), CircuitId{9999}}) {
    const phys::LinkBudgetReport report = fab.circuit_budget(gone);
    EXPECT_FALSE(report.closes) << gone;
    EXPECT_EQ(report.line_rate, Bandwidth::zero()) << gone;
  }
}

TEST(Fabric, ReconfigAccountsBatches) {
  Fabric fab;
  const auto before = fab.reconfig().batches();
  ASSERT_TRUE(fab.connect(GlobalTile{0, 0}, GlobalTile{0, 3}, 1).ok());
  EXPECT_EQ(fab.reconfig().batches(), before + 1);
}


TEST(Fabric, FiberLinkOffItsWaferCarriesNoCircuit) {
  FabricConfig config;
  config.wafer_count = 2;
  Fabric fab{config};
  // Tile 999 is past the 32-tile wafer; a link ending there carries
  // nothing in either direction, and a refused connect writes nothing.
  fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 999}, 4);
  fab.add_fiber_link(GlobalTile{1, 999}, GlobalTile{0, 7}, 4);
  const std::uint64_t key = fab.ledger_key();
  for (const auto& [a, b] : {std::pair{GlobalTile{0, 0}, GlobalTile{1, 5}},
                             std::pair{GlobalTile{1, 5}, GlobalTile{0, 0}}}) {
    const auto refused = fab.connect(a, b, 1);
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.error().message.find("no fiber link"), std::string::npos)
        << refused.error().message;
    EXPECT_EQ(fab.ledger_key(), key);
    EXPECT_EQ(fab.active_circuits(), 0u);
  }

  const std::size_t good = fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 4);
  for (const auto& [a, b] : {std::pair{GlobalTile{0, 0}, GlobalTile{1, 5}},
                             std::pair{GlobalTile{1, 5}, GlobalTile{0, 0}}}) {
    const auto placed = fab.connect(a, b, 1);
    ASSERT_TRUE(placed.ok()) << placed.error().message;
    EXPECT_EQ(fab.fiber_link_of(placed.value()), good);
  }
  EXPECT_EQ(fab.fiber_links()[0].used, 0u);
  EXPECT_EQ(fab.fiber_links()[1].used, 0u);
  EXPECT_EQ(fab.fiber_links()[good].used, 2u);
}

void expect_same_circuit(const Circuit& got, const Circuit& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.wavelengths, want.wavelengths);
  ASSERT_EQ(got.segments.size(), want.segments.size());
  for (std::size_t k = 0; k < got.segments.size(); ++k) {
    EXPECT_EQ(got.segments[k].wafer, want.segments[k].wafer);
    EXPECT_EQ(got.segments[k].from, want.segments[k].from);
    EXPECT_EQ(got.segments[k].hops, want.segments[k].hops);
  }
  EXPECT_EQ(got.fiber_hops, want.fiber_hops);
  EXPECT_EQ(got.fiber_length, want.fiber_length);
  EXPECT_EQ(got.mzi_count, want.mzi_count);
}

// Circuit slots are recycled: a commit must overwrite every field of the
// slot it reuses, a refusal must leave the table and the id counter alone,
// and a torn-down id must be gone from every lookup.
TEST(Fabric, RecycledCircuitsMatchTheirCommit) {
  FabricConfig config;
  config.wafer_count = 2;
  config.wafer.lanes_per_edge = 8;  // scarce lanes: some commits are refused
  std::size_t refused_tx = 0;
  std::size_t refused_lanes = 0;
  std::size_t cross = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    Fabric fab{config};
    fab.add_fiber_link(GlobalTile{0, 7}, GlobalTile{1, 0}, 6, Length::meters(2.0));
    fab.add_fiber_link(GlobalTile{0, 31}, GlobalTile{1, 24}, 6, Length::meters(3.5));
    const TileId tiles = fab.wafer(0).tile_count();

    struct Committed {
      Circuit circuit;
      std::optional<std::size_t> link;
    };
    std::map<CircuitId, Committed> live;
    std::vector<CircuitId> gone;
    CircuitId next_id = 1;

    for (int op = 0; op < 400; ++op) {
      if (!live.empty() && rng.bernoulli(0.45)) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng.uniform_index(live.size())));
        fab.disconnect(it->first);
        gone.push_back(it->first);
        live.erase(it);
        if (rng.bernoulli(0.2)) fab.disconnect(gone[rng.uniform_index(gone.size())]);
      } else {
        const GlobalTile a{static_cast<WaferId>(rng.uniform_index(2)),
                           static_cast<TileId>(rng.uniform_index(tiles))};
        GlobalTile b{a.wafer, static_cast<TileId>(rng.uniform_index(tiles))};
        if (b.tile == a.tile) b.tile = (b.tile + 1) % tiles;
        const std::uint32_t lambdas =
            rng.bernoulli(0.1) ? 16 : 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
        const std::uint64_t kind = rng.uniform_index(4);
        std::optional<std::vector<Direction>> given;
        Result<CircuitId> placed = Err("unattempted");
        if (kind == 0) {
          b.wafer = 1 - a.wafer;
          placed = fab.connect(a, b, lambdas);
        } else if (kind == 1) {
          placed = fab.connect(a, b, lambdas);
        } else {
          // connect_via along XY, or along YX (rows first): two different
          // paths between the same tiles.
          given = Fabric::xy_route(fab.wafer(a.wafer), a.tile, b.tile, kind == 3);
          placed = fab.connect_via(a, b, *given, lambdas);
        }
        if (!placed) {
          const std::string& why = placed.error().message;
          if (why.find("Tx") != std::string::npos) ++refused_tx;
          if (why.find("lane") != std::string::npos) ++refused_lanes;
          continue;  // checked below: nothing new is live
        }
        ASSERT_EQ(placed.value(), next_id) << "a refusal consumed an id";
        ++next_id;
        const Circuit* c = fab.circuit(placed.value());
        ASSERT_NE(c, nullptr);
        const std::optional<std::size_t> link = fab.fiber_link_of(placed.value());
        EXPECT_EQ(c->src, a);
        EXPECT_EQ(c->dst, b);
        EXPECT_EQ(c->wavelengths, lambdas);
        if (a.wafer == b.wafer) {
          ASSERT_EQ(c->segments.size(), 1u);
          EXPECT_EQ(c->segments[0].wafer, a.wafer);
          EXPECT_EQ(c->segments[0].from, a.tile);
          EXPECT_EQ(c->segments[0].hops,
                    given ? *given : Fabric::xy_route(fab.wafer(a.wafer), a.tile, b.tile));
          EXPECT_EQ(c->fiber_hops, 0u);
          EXPECT_EQ(c->fiber_length, Length::zero());
          EXPECT_FALSE(link.has_value());
        } else {
          ++cross;
          ASSERT_TRUE(link.has_value());
          const FiberLink& l = fab.fiber_links()[*link];
          const bool forward = l.a.wafer == a.wafer;
          const GlobalTile exit = forward ? l.a : l.b;
          const GlobalTile entry = forward ? l.b : l.a;
          ASSERT_EQ(c->segments.size(), 2u);
          EXPECT_EQ(c->segments[0].wafer, a.wafer);
          EXPECT_EQ(c->segments[0].from, a.tile);
          EXPECT_EQ(c->segments[0].hops,
                    Fabric::xy_route(fab.wafer(a.wafer), a.tile, exit.tile));
          EXPECT_EQ(c->segments[1].wafer, b.wafer);
          EXPECT_EQ(c->segments[1].from, entry.tile);
          EXPECT_EQ(c->segments[1].hops,
                    Fabric::xy_route(fab.wafer(b.wafer), entry.tile, b.tile));
          EXPECT_EQ(c->fiber_hops, 1u);
          EXPECT_EQ(c->fiber_length, l.length);
        }
        live.emplace(placed.value(), Committed{*c, link});
      }

      // After every op: the live set, ascending, each circuit as committed.
      std::vector<CircuitId> want_ids;
      for (const auto& [id, committed] : live) {
        want_ids.push_back(id);
        const Circuit* c = fab.circuit(id);
        ASSERT_NE(c, nullptr) << "circuit " << id << " after op " << op;
        expect_same_circuit(*c, committed.circuit);
        EXPECT_EQ(c->mzi_count, c->mzis_to_program());
        EXPECT_EQ(fab.fiber_link_of(id), committed.link);
      }
      ASSERT_EQ(fab.circuit_ids(), want_ids) << "after op " << op;
      EXPECT_EQ(fab.active_circuits(), live.size());
      for (const CircuitId id : gone) {
        EXPECT_EQ(fab.circuit(id), nullptr) << id;
        EXPECT_FALSE(fab.fiber_link_of(id).has_value()) << id;
        EXPECT_EQ(fab.circuit_bandwidth(id), Bandwidth::zero()) << id;
        EXPECT_FALSE(fab.circuit_budget(id).closes) << id;
      }
    }
    EXPECT_GT(gone.size(), 50u);
  }
  EXPECT_GT(refused_tx, 0u);
  EXPECT_GT(refused_lanes, 0u);
  EXPECT_GT(cross, 0u);
}

}  // namespace
}  // namespace lp::fabric
