#include "lightpath/wafer.hpp"

#include <cassert>
#include <numeric>
#include <string>

namespace lp::fabric {

Wafer::Wafer(WaferParams params)
    : params_{params},
      tiles_(static_cast<std::size_t>(params.rows * params.cols), Tile{params.tile}),
      edge_used_(static_cast<std::size_t>(params.rows * params.cols) * 4, 0) {
  assert(params.rows > 0 && params.cols > 0);
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

std::optional<TileId> Wafer::neighbor(TileId t, Direction d) const {
  TileCoord c = coord_of(t);
  switch (d) {
    case Direction::kNorth: --c.row; break;
    case Direction::kSouth: ++c.row; break;
    case Direction::kEast: ++c.col; break;
    case Direction::kWest: --c.col; break;
  }
  if (!contains(c)) return std::nullopt;
  return tile_at(c);
}

std::uint32_t Wafer::lanes_free(TileId t, Direction d) const {
  if (!neighbor(t, d)) return 0;
  return params_.lanes_per_edge - edge_used_[edge_index(t, d)];
}

bool Wafer::reserve_lanes(TileId t, Direction d, std::uint32_t n) {
  if (lanes_free(t, d) < n) return false;
  edge_used_[edge_index(t, d)] += n;
  return true;
}

void Wafer::release_lanes(TileId t, Direction d, std::uint32_t n) {
  auto& used = edge_used_[edge_index(t, d)];
  used -= std::min(n, used);
}

bool Wafer::path_has_capacity(TileId from, std::span<const Direction> path,
                              std::uint32_t n) const {
  TileId at = from;
  for (Direction d : path) {
    const auto next = neighbor(at, d);
    if (!next || lanes_free(at, d) < n) return false;
    at = *next;
  }
  return true;
}

Result<std::monostate> Wafer::reserve_path(TileId from, std::span<const Direction> path,
                                           std::uint32_t n) {
  TileId at = from;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const auto next = neighbor(at, path[i]);
    if (!next || !reserve_lanes(at, path[i], n)) {
      // Roll back hops already taken.
      release_path(from, path.subspan(0, i), n);
      return Err("no capacity at hop " + std::to_string(i) + " (tile " +
                 std::to_string(at) + " dir " + to_string(path[i]) + ")");
    }
    at = *next;
  }
  return std::monostate{};
}

void Wafer::release_path(TileId from, std::span<const Direction> path, std::uint32_t n) {
  TileId at = from;
  for (Direction d : path) {
    const auto next = neighbor(at, d);
    if (!next) return;  // malformed path; release what we can
    release_lanes(at, d, n);
    at = *next;
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
  return std::accumulate(edge_used_.begin(), edge_used_.end(), std::uint64_t{0});
}

std::uint64_t Wafer::ledger_digest(std::uint64_t h) const {
  for (std::uint32_t used : edge_used_) h = hash_mix(h, used);
  for (const Tile& t : tiles_) {
    h = hash_mix(h, t.tx_used());
    h = hash_mix(h, t.rx_used());
  }
  return h;
}

}  // namespace lp::fabric
