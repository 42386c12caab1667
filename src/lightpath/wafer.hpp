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
//
// Every ledger write goes through a Wafer member (there is no mutable Tile
// access), so the wafer can keep an order-free ledger key up to date on
// each write: see ledger_key().
#pragma once

#include <algorithm>
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
  [[nodiscard]] std::optional<TileId> neighbor(TileId t, Direction d) const {
    const TileId next = edges_[edge_index(t, d)].next;
    if (next == kOffWafer) return std::nullopt;
    return next;
  }

  [[nodiscard]] const Tile& tile(TileId t) const { return tiles_[t]; }

  /// A tile's switch in direction `d`.  Switch state is not part of the
  /// ledger, so this is the only mutable access into a tile.
  [[nodiscard]] phys::Mzi& mzi(TileId t, Direction d) { return tiles_[t].mzi(d); }

  /// Reserve `n` transmit (receive) wavelengths on tile `t`; false (and no
  /// change) if unavailable.
  bool reserve_tx(TileId t, std::uint32_t n);
  bool reserve_rx(TileId t, std::uint32_t n);
  void release_tx(TileId t, std::uint32_t n);
  void release_rx(TileId t, std::uint32_t n);

  /// Free lanes on the directed edge leaving `t` toward `d`.  0 if the edge
  /// does not exist (wafer boundary).
  [[nodiscard]] std::uint32_t lanes_free(TileId t, Direction d) const {
    const Edge& e = edges_[edge_index(t, d)];
    return e.next == kOffWafer ? 0 : params_.lanes_per_edge - e.used;
  }
  [[nodiscard]] std::uint32_t lanes_used(TileId t, Direction d) const {
    return edges_[edge_index(t, d)].used;
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
  /// `h`, in slot order.  O(tiles); reports fold it into their digests, so
  /// its value is fixed.  Revalidation uses ledger_key() instead.
  [[nodiscard]] std::uint64_t ledger_digest(std::uint64_t h) const;

  /// Order-free 64-bit key of the same state, kept up to date on every
  /// write: the wrapping sum of ledger_term(slot, value), value × an odd
  /// per-slot weight, over every edge's lanes used and every tile's Tx used
  /// and Rx used.  A function of the state alone, not of the writes that
  /// led to it, 0 for an unused wafer, and one hash per write.  Two ledgers
  /// collide only if Σ δ_s × weight(s) ≡ 0 (mod 2^64) for their per-slot
  /// differences δ_s: the odds of a 64-bit collision up to a factor 2^t,
  /// where 2^t divides every nonzero δ_s (t ≤ 13 at 8192 lanes per edge).
  [[nodiscard]] std::uint64_t ledger_key() const { return key_; }

 private:
  static constexpr TileId kOffWafer = ~TileId{0};

  /// One directed edge: its lanes in use and the tile it leads to
  /// (kOffWafer past the wafer boundary).
  struct Edge {
    std::uint32_t used{0};
    TileId next{kOffWafer};
  };

  /// Dense index of the directed edge (t, d); edges off the wafer get a
  /// slot too (never used) to keep indexing branch-free.
  [[nodiscard]] static std::size_t edge_index(TileId t, Direction d) {
    return static_cast<std::size_t>(t) * 4 + static_cast<std::size_t>(d);
  }
  /// Ledger-key slots: one per edge (edge_index), then Tx and Rx per tile.
  [[nodiscard]] std::size_t tx_slot(TileId t) const {
    return edges_.size() + 2 * static_cast<std::size_t>(t);
  }
  [[nodiscard]] std::size_t rx_slot(TileId t) const { return tx_slot(t) + 1; }

  /// Whether edge `e` exists and has at least `n` free lanes.
  [[nodiscard]] bool fits(const Edge& e, std::uint32_t n) const {
    return e.next != kOffWafer && params_.lanes_per_edge - e.used >= n;
  }

  /// Moves `slot` from `before` to `after` in the ledger key.
  void rekey(std::size_t slot, std::uint32_t before, std::uint32_t after) {
    key_ += ledger_term(slot, std::uint64_t{after} - before);
  }
  /// Edge `i` takes (gives back, clamped at 0) `n` lanes; the key follows.
  void take_lanes(std::size_t i, std::uint32_t n) {
    rekey(i, edges_[i].used, edges_[i].used + n);
    edges_[i].used += n;
  }
  void drop_lanes(std::size_t i, std::uint32_t n) {
    const std::uint32_t used = edges_[i].used - std::min(n, edges_[i].used);
    rekey(i, edges_[i].used, used);
    edges_[i].used = used;
  }

  WaferParams params_;
  std::vector<Tile> tiles_;
  std::vector<Edge> edges_;
  std::uint64_t key_{0};
};

}  // namespace lp::fabric
