#include "collective/alltoall.hpp"

#include <algorithm>

namespace lp::coll {

DemandMatrix uniform_all_to_all(std::size_t chips, DataSize n) {
  DemandMatrix m{chips, std::vector<DataSize>(chips * chips, DataSize::zero())};
  if (chips < 2) return m;
  const DataSize per_pair = n / static_cast<double>(chips - 1);
  for (std::size_t s = 0; s < chips; ++s) {
    for (std::size_t d = 0; d < chips; ++d) {
      if (s != d) m.set(s, d, per_pair);
    }
  }
  return m;
}

DemandMatrix moe_gating_demand(std::size_t chips, std::size_t tokens,
                               std::size_t experts_per_token, DataSize token_bytes,
                               Rng& rng) {
  DemandMatrix m{chips, std::vector<DataSize>(chips * chips, DataSize::zero())};
  for (std::size_t src = 0; src < chips; ++src) {
    for (std::size_t t = 0; t < tokens; ++t) {
      for (std::size_t e = 0; e < experts_per_token; ++e) {
        const std::size_t dst = rng.uniform_index(chips);
        if (dst == src) continue;
        m.set(src, dst, m.at(src, dst) + token_bytes);
      }
    }
  }
  return m;
}

std::vector<topo::DirectedLink> dimension_order_route(const topo::TpuCluster& cluster,
                                                      topo::TpuId from, topo::TpuId to) {
  std::vector<topo::DirectedLink> route;
  topo::Coord at = cluster.coord_of(from);
  const topo::Coord goal = cluster.coord_of(to);
  const topo::RackId rack = cluster.rack_of(from);
  const auto& torus = cluster.rack_torus();
  for (std::uint8_t d = 0; d < topo::kDims; ++d) {
    const std::int32_t e = cluster.config().rack_shape[d];
    while (at[d] != goal[d]) {
      // Signed shortest way around the ring.
      const std::int32_t forward = ((goal[d] - at[d]) % e + e) % e;
      const std::int8_t sign = forward <= e / 2 ? std::int8_t{+1} : std::int8_t{-1};
      route.push_back(topo::DirectedLink{cluster.chip_at(rack, at), d, sign});
      at = torus.neighbor(at, d, sign);
    }
  }
  return route;
}

Schedule build_all_to_all_schedule(const topo::TpuCluster& cluster,
                                   const topo::Slice& slice, const DemandMatrix& demand,
                                   Interconnect interconnect, const CostParams& params) {
  Schedule schedule;
  if (topo::outside_rack(cluster, slice)) return schedule;
  std::vector<topo::TpuId> chips;
  for (const topo::Coord& c : slice.coords()) chips.push_back(cluster.chip_at(slice.rack, c));
  const std::size_t p = chips.size();
  if (p != demand.size || p < 2) return schedule;

  // One circuit per chip per round: with every chip pairing off, the
  // redirected bandwidth per circuit is the full chip bandwidth.
  const Bandwidth circuit_rate = params.chip_bandwidth;

  for (std::size_t round = 1; round < p; ++round) {
    Phase phase;
    if (interconnect == Interconnect::kOptical) phase.pre_delay = params.reconfig;
    for (std::size_t j = 0; j < p; ++j) {
      const std::size_t k = (j + round) % p;
      const DataSize bytes = demand.at(j, k);
      if (bytes <= DataSize::zero()) continue;
      Transfer t;
      t.src = chips[j];
      t.dst = chips[k];
      t.bytes = bytes;
      if (interconnect == Interconnect::kOptical) {
        t.dedicated_rate = circuit_rate;
      } else {
        t.route = dimension_order_route(cluster, t.src, t.dst);
      }
      phase.transfers.push_back(std::move(t));
    }
    if (!phase.transfers.empty()) schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

}  // namespace lp::coll
