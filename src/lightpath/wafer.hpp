// One LIGHTPATH wafer: a grid of tiles joined by bus waveguides.
//
// The wafer owns all consumable routing resources:
//   * per-tile Tx/Rx wavelength counts (see Tile),
//   * per directed inter-tile edge, a pool of waveguide lanes.  The paper's
//     geometry admits >10,000 lanes per tile (Figure 4); the pool size is
//     configurable so experiments can study lane-constrained regimes.
//
// Paths are expressed as sequences of directions from a source tile; the
// wafer checks/commits/releases lane capacity along them.  Routing *policy*
// (which path to take) lives in lightpath::Fabric (simple XY) and in the
// routing/ module (planners); the wafer is purely the resource ledger.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lightpath/tile.hpp"
#include "lightpath/types.hpp"
#include "util/result.hpp"

namespace lp::fabric {

struct WaferParams {
  std::int32_t rows{4};
  std::int32_t cols{8};  ///< 4x8 = 32 tiles, as in the prototype
  /// Waveguide lanes per directed inter-tile edge.
  std::uint32_t lanes_per_edge{8192};
  TileParams tile{};
};

class Wafer {
 public:
  explicit Wafer(WaferParams params = {});

  [[nodiscard]] const WaferParams& params() const { return params_; }
  [[nodiscard]] std::int32_t rows() const { return params_.rows; }
  [[nodiscard]] std::int32_t cols() const { return params_.cols; }
  [[nodiscard]] std::uint32_t tile_count() const {
    return static_cast<std::uint32_t>(params_.rows * params_.cols);
  }

  [[nodiscard]] TileId tile_at(TileCoord c) const;
  [[nodiscard]] TileCoord coord_of(TileId t) const;
  [[nodiscard]] bool contains(TileCoord c) const;

  /// Neighboring tile in direction `d`, or nullopt at the wafer edge.
  [[nodiscard]] std::optional<TileId> neighbor(TileId t, Direction d) const;

  [[nodiscard]] Tile& tile(TileId t) { return tiles_[t]; }
  [[nodiscard]] const Tile& tile(TileId t) const { return tiles_[t]; }

  /// Free lanes on the directed edge leaving `t` toward `d`.  0 if the edge
  /// does not exist (wafer boundary).
  [[nodiscard]] std::uint32_t lanes_free(TileId t, Direction d) const;
  [[nodiscard]] std::uint32_t lanes_used(TileId t, Direction d) const {
    return edge_used_[edge_index(t, d)];
  }

  /// Reserve `n` lanes on the directed edge; false (no change) on shortage.
  bool reserve_lanes(TileId t, Direction d, std::uint32_t n);
  void release_lanes(TileId t, Direction d, std::uint32_t n);

  /// True if every directed edge along `path` (starting at `from`) exists
  /// and has at least `n` free lanes.
  [[nodiscard]] bool path_has_capacity(TileId from, std::span<const Direction> path,
                                       std::uint32_t n) const;

  /// Atomically reserve `n` lanes along the whole path; on failure nothing
  /// is reserved and the blocking hop index is reported.
  Result<std::monostate> reserve_path(TileId from, std::span<const Direction> path,
                                      std::uint32_t n);
  void release_path(TileId from, std::span<const Direction> path, std::uint32_t n);

  /// Tiles visited by the path, including both endpoints.
  [[nodiscard]] std::vector<TileId> tiles_on_path(TileId from,
                                                  std::span<const Direction> path) const;

  /// Total lanes in use across all edges (diagnostics / utilization).
  [[nodiscard]] std::uint64_t total_lanes_used() const;

  /// Folds the wafer's entire consumable state — every directed edge's lane
  /// occupancy plus every tile's Tx/Rx reservations — into the running hash
  /// `h`.  Two wafers with equal digests present identical ledgers to any
  /// deterministic planner; the plan cache uses this for revalidate-on-use.
  [[nodiscard]] std::uint64_t ledger_digest(std::uint64_t h) const;

 private:
  /// Dense index of the directed edge (t, d); edges off the wafer get a
  /// slot too (never used) to keep indexing branch-free.
  [[nodiscard]] static std::size_t edge_index(TileId t, Direction d) {
    return static_cast<std::size_t>(t) * 4 + static_cast<std::size_t>(d);
  }

  WaferParams params_;
  std::vector<Tile> tiles_;
  std::vector<std::uint32_t> edge_used_;
};

}  // namespace lp::fabric
