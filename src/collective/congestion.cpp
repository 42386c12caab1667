#include "collective/congestion.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace lp::coll {

using topo::ChipState;
using topo::DirectedLink;
using topo::TpuCluster;
using topo::TpuId;

LinkLoad::LinkLoad(std::size_t link_count) : load_(link_count, 0) {}

void LinkLoad::add(const DirectedLink& link) { ++load_[topo::link_key(link)]; }

void LinkLoad::add_all(const std::vector<DirectedLink>& links) {
  for (const auto& l : links) add(l);
}

std::uint32_t LinkLoad::load(const DirectedLink& link) const {
  return load_[topo::link_key(link)];
}

std::uint32_t LinkLoad::max_load() const {
  return load_.empty() ? 0 : *std::max_element(load_.begin(), load_.end());
}

std::size_t LinkLoad::congested_link_count() const {
  return static_cast<std::size_t>(
      std::count_if(load_.begin(), load_.end(), [](std::uint32_t l) { return l > 1; }));
}

std::size_t LinkLoad::busy_link_count() const {
  return static_cast<std::size_t>(
      std::count_if(load_.begin(), load_.end(), [](std::uint32_t l) { return l > 0; }));
}

SliceTraffic slice_traffic(const TpuCluster& cluster, const topo::Slice& slice,
                           RingSelection selection) {
  SliceTraffic traffic;
  traffic.slice = slice.id;
  if (selection == RingSelection::kUsableOnly) {
    // Realize the electrical plan: the snake stage, then the proper dims.
    for (const RingStage& stage : build_plan(slice, cluster.config().rack_shape).stages) {
      for (auto& ring : realize_stage(cluster, slice, stage))
        traffic.rings.push_back(std::move(ring));
    }
  } else {
    for (std::size_t d : active_dims(slice)) {
      for (auto& ring : rings_in_dim(cluster, slice, d))
        traffic.rings.push_back(std::move(ring));
    }
  }

  for (const auto& ring : traffic.rings) {
    traffic.links.insert(traffic.links.end(), ring.links.begin(), ring.links.end());
    traffic.transit_chips.insert(traffic.transit_chips.end(), ring.transit_chips.begin(),
                                 ring.transit_chips.end());
  }
  return traffic;
}

RackAnalysis analyze_rack(const TpuCluster& cluster, const topo::SliceAllocator& alloc,
                          topo::RackId rack, RingSelection selection) {
  RackAnalysis analysis{LinkLoad{cluster.directed_link_count()}, {}, false, 0};
  for (topo::SliceId id : alloc.active_slices()) {
    const topo::Slice* s = alloc.slice(id);
    if (s == nullptr || s->rack != rack) continue;
    SliceTraffic traffic = slice_traffic(cluster, *s, selection);
    analysis.load.add_all(traffic.links);
    for (TpuId transit : traffic.transit_chips) {
      if (alloc.owner(transit).has_value()) ++analysis.foreign_transits;
    }
    analysis.per_slice.push_back(std::move(traffic));
  }
  analysis.congestion_free = analysis.load.congestion_free() &&
                             analysis.foreign_transits == 0;
  return analysis;
}

std::optional<std::vector<TpuId>> find_uncongested_path(const TpuCluster& cluster,
                                                        const topo::SliceAllocator& alloc,
                                                        const LinkLoad& busy, TpuId from,
                                                        TpuId to) {
  // BFS over chips within the rack of `from`: a repair path may not leave
  // the failed slice's rack, so expansion is confined to it (and the parent
  // table is rack-sized, not cluster-sized).
  const topo::RackId rack = cluster.rack_of(from);
  const TpuId rack_base = rack * cluster.chips_per_rack();
  const auto local = [rack_base](TpuId chip) {
    return static_cast<std::size_t>(chip - rack_base);
  };
  std::vector<std::int32_t> parent(static_cast<std::size_t>(cluster.chips_per_rack()),
                                   -2);
  std::deque<TpuId> queue;
  parent[local(from)] = -1;
  queue.push_back(from);
  while (!queue.empty()) {
    const TpuId at = queue.front();
    queue.pop_front();
    for (std::uint8_t d = 0; d < topo::kDims; ++d) {
      for (std::int8_t sign : {std::int8_t{+1}, std::int8_t{-1}}) {
        const DirectedLink link{at, d, sign};
        if (busy.load(link) > 0) continue;  // link already carries a transfer
        const TpuId next = cluster.link_target(link);
        if (cluster.rack_of(next) != rack) continue;  // stay within the rack
        if (parent[local(next)] != -2) continue;
        if (cluster.state(next) == ChipState::kFailed) continue;
        // Intermediate chips must be free; the destination may be any
        // non-failed chip (the repair target is free by construction, but
        // callers may probe arbitrary endpoints).
        if (next != to && alloc.owner(next).has_value()) continue;
        parent[local(next)] = at;
        if (next == to) {
          std::vector<TpuId> path{to};
          TpuId walk = to;
          while (parent[local(walk)] != -1) {
            walk = parent[local(walk)];
            path.push_back(walk);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        queue.push_back(next);
      }
    }
  }
  return std::nullopt;
}

}  // namespace lp::coll
