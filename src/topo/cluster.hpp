// TPUv4-style direct-connect cluster substrate.
//
// Models the deployment the paper analyzes in §4 (Figure 5a): up to 64
// racks, each rack a 4x4x4 3D torus of TPU chips.  Within a rack the links
// are electrical; every face of the rack cube attaches to optical circuit
// switches (OCSes) that realize the wraparound links and can join multiple
// racks into larger tori.  Each rack contains 16 multi-accelerator servers
// of 4 chips (2x2x1 groups).
//
// Bandwidth convention (matches the paper's cost math): `chip_bandwidth` B
// is the total egress a chip can drive concurrently across its D=3
// dimensions, so each dimension gets B/3 in a static electrical torus, and
// a direction-uniform ring in one dimension runs at B/3.  Every directed
// link (chip, dim, sign) has capacity B/3.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topo/torus.hpp"
#include "util/units.hpp"

namespace lp::topo {

/// Global chip id across the cluster.
using TpuId = std::int32_t;
/// Rack index.
using RackId = std::int32_t;

enum class ChipState : std::uint8_t { kFree = 0, kAllocated = 1, kFailed = 2 };

/// A directed electrical link: the egress of `chip` along dimension `dim`
/// in direction `sign` (+1 or -1), with torus wraparound.
struct DirectedLink {
  TpuId chip{0};
  std::uint8_t dim{0};
  std::int8_t sign{+1};
  friend constexpr auto operator<=>(const DirectedLink&, const DirectedLink&) = default;
};

/// Dense key for DirectedLink maps: chip * 6 + dim * 2 + (sign < 0).
[[nodiscard]] constexpr std::size_t link_key(const DirectedLink& l) {
  return static_cast<std::size_t>(l.chip) * 6 + static_cast<std::size_t>(l.dim) * 2 +
         (l.sign < 0 ? 1u : 0u);
}

struct ClusterConfig {
  std::int32_t racks{64};
  Shape rack_shape{{4, 4, 4}};
  /// Total egress bandwidth per chip (B in the paper's cost model).
  Bandwidth chip_bandwidth{Bandwidth::gBps(300.0)};
  /// Server grouping within the rack (2x2x1 trays of 4 chips).
  Shape server_group{{2, 2, 1}};
};

class TpuCluster {
 public:
  explicit TpuCluster(ClusterConfig config = {});

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::int32_t rack_count() const { return config_.racks; }
  [[nodiscard]] std::int32_t chips_per_rack() const { return rack_torus_.size(); }
  [[nodiscard]] std::int32_t chip_count() const {
    return config_.racks * chips_per_rack();
  }
  [[nodiscard]] std::int32_t servers_per_rack() const;

  [[nodiscard]] const Torus& rack_torus() const { return rack_torus_; }

  /// Global chip id of (rack, coordinate-within-rack).
  [[nodiscard]] TpuId chip_at(RackId rack, Coord c) const;
  [[nodiscard]] RackId rack_of(TpuId chip) const { return chip / chips_per_rack(); }
  [[nodiscard]] Coord coord_of(TpuId chip) const;

  /// Server index within the rack of the given chip (0..15 by default).
  [[nodiscard]] std::int32_t server_of(TpuId chip) const;
  /// All chips on the same server as `chip` (including itself).
  [[nodiscard]] std::vector<TpuId> server_chips(TpuId chip) const;

  [[nodiscard]] ChipState state(TpuId chip) const { return states_[static_cast<std::size_t>(chip)]; }
  /// The only writer of chip state; keeps the free counts below current.
  void set_state(TpuId chip, ChipState s) {
    ChipState& cur = states_[static_cast<std::size_t>(chip)];
    if ((cur == ChipState::kFree) != (s == ChipState::kFree)) {
      const std::int32_t delta = s == ChipState::kFree ? 1 : -1;
      rack_free_[static_cast<std::size_t>(rack_of(chip))] += delta;
      free_count_ += delta;
    }
    cur = s;
  }

  /// Number of kFree chips in `rack`, O(1).
  [[nodiscard]] std::int32_t free_in_rack(RackId rack) const {
    return rack_free_[static_cast<std::size_t>(rack)];
  }
  /// Number of kFree chips in the cluster, O(1).
  [[nodiscard]] std::int32_t free_count() const { return free_count_; }

  [[nodiscard]] std::vector<TpuId> chips_in_state(ChipState s) const;
  [[nodiscard]] std::vector<TpuId> free_chips_in_rack(RackId rack) const;

  /// Per-dimension bandwidth of the static electrical interconnect: B/3.
  [[nodiscard]] Bandwidth dim_bandwidth() const;

  /// Capacity of one directed link (equals dim_bandwidth()).
  [[nodiscard]] Bandwidth link_bandwidth() const { return dim_bandwidth(); }

  /// Whether the directed link's far end leaves the rack (i.e. it is a
  /// wraparound link realized through the face OCS).
  [[nodiscard]] bool is_wraparound(const DirectedLink& link) const;

  /// The chip at the far end of a directed link (within-rack torus
  /// semantics: wraparound stays in the same rack unless racks are joined).
  [[nodiscard]] TpuId link_target(const DirectedLink& link) const;

  /// Total number of directed links in the cluster.
  [[nodiscard]] std::size_t directed_link_count() const {
    return static_cast<std::size_t>(chip_count()) * 6;
  }

 private:
  ClusterConfig config_;
  Torus rack_torus_;
  std::vector<ChipState> states_;
  std::vector<std::int32_t> rack_free_;  ///< kFree chips per rack
  std::int32_t free_count_{0};
};

}  // namespace lp::topo
