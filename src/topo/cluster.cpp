#include "topo/cluster.hpp"

#include <cassert>

namespace lp::topo {

TpuCluster::TpuCluster(ClusterConfig config)
    : config_{config},
      rack_torus_{config.rack_shape},
      states_(static_cast<std::size_t>(config.racks) *
                  static_cast<std::size_t>(config.rack_shape.size()),
              ChipState::kFree),
      rack_free_(static_cast<std::size_t>(config.racks), config.rack_shape.size()),
      free_count_{config.racks * config.rack_shape.size()} {
  assert(config.racks > 0);
}

std::int32_t TpuCluster::servers_per_rack() const {
  return chips_per_rack() / config_.server_group.size();
}

TpuId TpuCluster::chip_at(RackId rack, Coord c) const {
  return rack * chips_per_rack() + rack_torus_.index(c);
}

Coord TpuCluster::coord_of(TpuId chip) const {
  return rack_torus_.coord(chip % chips_per_rack());
}

std::int32_t TpuCluster::server_of(TpuId chip) const {
  const Coord c = coord_of(chip);
  const Shape& g = config_.server_group;
  const Shape& r = config_.rack_shape;
  const std::int32_t gx = c[0] / g[0];
  const std::int32_t gy = c[1] / g[1];
  const std::int32_t gz = c[2] / g[2];
  const std::int32_t groups_y = r[1] / g[1];
  const std::int32_t groups_z = r[2] / g[2];
  return (gx * groups_y + gy) * groups_z + gz;
}

std::vector<TpuId> TpuCluster::server_chips(TpuId chip) const {
  const std::int32_t server = server_of(chip);
  const RackId rack = rack_of(chip);
  std::vector<TpuId> chips;
  for (std::int32_t i = 0; i < chips_per_rack(); ++i) {
    const TpuId candidate = rack * chips_per_rack() + i;
    if (server_of(candidate) == server) chips.push_back(candidate);
  }
  return chips;
}

std::vector<TpuId> TpuCluster::chips_in_state(ChipState s) const {
  std::vector<TpuId> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == s) out.push_back(static_cast<TpuId>(i));
  }
  return out;
}

std::vector<TpuId> TpuCluster::free_chips_in_rack(RackId rack) const {
  std::vector<TpuId> out;
  for (std::int32_t i = 0; i < chips_per_rack(); ++i) {
    const TpuId chip = rack * chips_per_rack() + i;
    if (state(chip) == ChipState::kFree) out.push_back(chip);
  }
  return out;
}

Bandwidth TpuCluster::dim_bandwidth() const {
  return config_.chip_bandwidth / static_cast<double>(kDims);
}

bool TpuCluster::is_wraparound(const DirectedLink& link) const {
  const Coord c = coord_of(link.chip);
  const std::int32_t e = config_.rack_shape[link.dim];
  return (link.sign > 0 && c[link.dim] == e - 1) || (link.sign < 0 && c[link.dim] == 0);
}

TpuId TpuCluster::link_target(const DirectedLink& link) const {
  const RackId rack = rack_of(link.chip);
  const Coord next = rack_torus_.neighbor(coord_of(link.chip), link.dim, link.sign);
  return chip_at(rack, next);
}

}  // namespace lp::topo
