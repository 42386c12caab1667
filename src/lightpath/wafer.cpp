#include "lightpath/wafer.hpp"

#include <cassert>
#include <numeric>
#include <string>

namespace lp::fabric {

Wafer::Wafer(WaferParams params)
    : params_{params},
      tiles_(static_cast<std::size_t>(params.rows * params.cols), Tile{params.tile}),
      edges_(static_cast<std::size_t>(params.rows * params.cols) * 4) {
  assert(params.rows > 0 && params.cols > 0);
  // Neighbour table, filled by row and column so construction divides nothing.
  const auto cols = static_cast<TileId>(params.cols);
  TileId t = 0;
  for (std::int32_t row = 0; row < params.rows; ++row) {
    for (std::int32_t col = 0; col < params.cols; ++col, ++t) {
      if (row > 0) edges_[edge_index(t, Direction::kNorth)].next = t - cols;
      if (col + 1 < params.cols) edges_[edge_index(t, Direction::kEast)].next = t + 1;
      if (row + 1 < params.rows) edges_[edge_index(t, Direction::kSouth)].next = t + cols;
      if (col > 0) edges_[edge_index(t, Direction::kWest)].next = t - 1;
    }
  }
}

TileId Wafer::tile_at(TileCoord c) const {
  assert(contains(c));
  return static_cast<TileId>(c.row * params_.cols + c.col);
}

TileCoord Wafer::coord_of(TileId t) const {
  return TileCoord{static_cast<std::int32_t>(t) / params_.cols,
                   static_cast<std::int32_t>(t) % params_.cols};
}

bool Wafer::contains(TileCoord c) const {
  return c.row >= 0 && c.row < params_.rows && c.col >= 0 && c.col < params_.cols;
}

bool Wafer::reserve_tx(TileId t, std::uint32_t n) {
  const std::uint32_t before = tiles_[t].tx_used();
  if (!tiles_[t].reserve_tx(n)) return false;
  rekey(tx_slot(t), before, tiles_[t].tx_used());
  return true;
}

bool Wafer::reserve_rx(TileId t, std::uint32_t n) {
  const std::uint32_t before = tiles_[t].rx_used();
  if (!tiles_[t].reserve_rx(n)) return false;
  rekey(rx_slot(t), before, tiles_[t].rx_used());
  return true;
}

void Wafer::release_tx(TileId t, std::uint32_t n) {
  const std::uint32_t before = tiles_[t].tx_used();
  tiles_[t].release_tx(n);
  rekey(tx_slot(t), before, tiles_[t].tx_used());
}

void Wafer::release_rx(TileId t, std::uint32_t n) {
  const std::uint32_t before = tiles_[t].rx_used();
  tiles_[t].release_rx(n);
  rekey(rx_slot(t), before, tiles_[t].rx_used());
}

bool Wafer::reserve_lanes(TileId t, Direction d, std::uint32_t n) {
  if (lanes_free(t, d) < n) return false;
  take_lanes(edge_index(t, d), n);
  return true;
}

void Wafer::release_lanes(TileId t, Direction d, std::uint32_t n) {
  drop_lanes(edge_index(t, d), n);
}

bool Wafer::path_has_capacity(TileId from, std::span<const Direction> path,
                              std::uint32_t n) const {
  TileId at = from;
  for (Direction d : path) {
    const Edge& e = edges_[edge_index(at, d)];
    if (!fits(e, n)) return false;
    at = e.next;
  }
  return true;
}

Result<std::monostate> Wafer::reserve_path(TileId from, std::span<const Direction> path,
                                           std::uint32_t n) {
  TileId at = from;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const std::size_t e = edge_index(at, path[i]);
    if (!fits(edges_[e], n)) {
      // Roll back hops already taken.
      release_path(from, path.first(i), n);
      return Err("no capacity at hop " + std::to_string(i) + " (tile " +
                 std::to_string(at) + " dir " + to_string(path[i]) + ")");
    }
    take_lanes(e, n);
    at = edges_[e].next;
  }
  return std::monostate{};
}

void Wafer::release_path(TileId from, std::span<const Direction> path, std::uint32_t n) {
  TileId at = from;
  for (Direction d : path) {
    const std::size_t e = edge_index(at, d);
    if (edges_[e].next == kOffWafer) return;  // malformed path; release what we can
    drop_lanes(e, n);
    at = edges_[e].next;
  }
}

std::vector<TileId> Wafer::tiles_on_path(TileId from,
                                         std::span<const Direction> path) const {
  std::vector<TileId> tiles{from};
  tiles.reserve(path.size() + 1);
  TileId at = from;
  for (Direction d : path) {
    const auto next = neighbor(at, d);
    if (!next) break;
    at = *next;
    tiles.push_back(at);
  }
  return tiles;
}

std::uint64_t Wafer::total_lanes_used() const {
  return std::accumulate(edges_.begin(), edges_.end(), std::uint64_t{0},
                         [](std::uint64_t sum, const Edge& e) { return sum + e.used; });
}

std::uint64_t Wafer::ledger_digest(std::uint64_t h) const {
  for (const Edge& e : edges_) h = hash_mix(h, e.used);
  for (const Tile& t : tiles_) {
    h = hash_mix(h, t.tx_used());
    h = hash_mix(h, t.rx_used());
  }
  return h;
}

}  // namespace lp::fabric
