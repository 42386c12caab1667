#include "collective/ring.hpp"

#include <algorithm>
#include <cassert>

namespace lp::coll {

namespace {

using topo::Coord;
using topo::DirectedLink;
using topo::TpuCluster;
using topo::TpuId;

/// Appends the +d walk from `from` to `to` (rack-space, torus wraparound) to
/// `links`, recording intermediate chips in `transit` when they are not ring
/// members.
void walk_plus_d(const TpuCluster& cluster, topo::RackId rack, Coord from, Coord to,
                 std::size_t d, const std::vector<TpuId>& members,
                 std::vector<DirectedLink>& links, std::vector<TpuId>& transit) {
  Coord at = from;
  const auto& torus = cluster.rack_torus();
  while (at != to) {
    const TpuId chip = cluster.chip_at(rack, at);
    links.push_back(DirectedLink{chip, static_cast<std::uint8_t>(d), +1});
    at = torus.neighbor(at, d, +1);
    const TpuId here = cluster.chip_at(rack, at);
    if (at != to && std::find(members.begin(), members.end(), here) == members.end()) {
      transit.push_back(here);
    }
  }
}

}  // namespace

std::vector<RingRealization> rings_in_dim(const TpuCluster& cluster,
                                          const topo::Slice& slice, std::size_t d) {
  std::vector<RingRealization> rings;
  if (slice.shape[d] <= 1) return rings;

  // One ring per combination of the other two dimensions.
  const std::array<std::size_t, 2> others =
      d == 0 ? std::array<std::size_t, 2>{1, 2}
             : (d == 1 ? std::array<std::size_t, 2>{0, 2} : std::array<std::size_t, 2>{0, 1});
  for (std::int32_t a = 0; a < slice.shape[others[0]]; ++a) {
    for (std::int32_t b = 0; b < slice.shape[others[1]]; ++b) {
      RingRealization ring;
      Coord base = slice.offset;
      base[others[0]] += a;
      base[others[1]] += b;
      for (std::int32_t i = 0; i < slice.shape[d]; ++i) {
        Coord c = base;
        c[d] = slice.offset[d] + i;
        ring.members.push_back(cluster.chip_at(slice.rack, c));
      }
      // Realize each cycle edge as a +d walk; the wrap edge goes around the
      // full torus dimension when the slice does not span it.
      for (std::size_t i = 0; i < ring.members.size(); ++i) {
        const Coord from = cluster.coord_of(ring.members[i]);
        const Coord to = cluster.coord_of(ring.members[(i + 1) % ring.members.size()]);
        walk_plus_d(cluster, slice.rack, from, to, d, ring.members, ring.links,
                    ring.transit_chips);
      }
      rings.push_back(std::move(ring));
    }
  }
  return rings;
}

RingRealization snake_ring(const TpuCluster& cluster, const topo::Slice& slice,
                           const std::vector<std::size_t>& dims, Coord fixed) {
  assert(!dims.empty());
  RingRealization ring;

  // Boustrophedon order over the sub-grid spanned by `dims` (local coords).
  std::vector<Coord> order;
  const std::int32_t total = [&] {
    std::int32_t t = 1;
    for (std::size_t d : dims) t *= slice.shape[d];
    return t;
  }();
  order.reserve(static_cast<std::size_t>(total));

  std::vector<std::int32_t> local(dims.size(), 0);
  // Iterate the outer dims normally and zig-zag the first dim so consecutive
  // coordinates are always grid-adjacent.
  const std::int32_t inner_extent = slice.shape[dims[0]];
  std::int32_t emitted = 0;
  bool forward = true;
  while (emitted < total) {
    for (std::int32_t i = 0; i < inner_extent; ++i) {
      local[0] = forward ? i : inner_extent - 1 - i;
      Coord c = fixed;
      for (std::size_t k = 0; k < dims.size(); ++k) c[dims[k]] = slice.offset[dims[k]] + local[k];
      order.push_back(c);
      ++emitted;
    }
    forward = !forward;
    // Increment the outer counters (odometer over dims[1..]).
    std::size_t k = 1;
    while (k < dims.size()) {
      if (++local[k] < slice.shape[dims[k]]) break;
      local[k] = 0;
      ++k;
    }
    if (k == dims.size()) break;
  }

  for (const Coord& c : order) ring.members.push_back(cluster.chip_at(slice.rack, c));

  // Realize cycle edges.  Consecutive boustrophedon coords are adjacent
  // (single +/- hop in some dim); the closing edge walks back along the
  // outer dims through slice members.
  const auto& torus = cluster.rack_torus();
  auto add_walk = [&](Coord from, Coord to) {
    // Generic greedy walk: fix dims one at a time by signed single steps.
    Coord at = from;
    while (at != to) {
      bool stepped = false;
      for (std::size_t d : dims) {
        if (at[d] == to[d]) continue;
        const std::int32_t sign = to[d] > at[d] ? +1 : -1;
        const TpuId chip = cluster.chip_at(slice.rack, at);
        ring.links.push_back(
            DirectedLink{chip, static_cast<std::uint8_t>(d), static_cast<std::int8_t>(sign)});
        at = torus.neighbor(at, d, sign);
        const TpuId here = cluster.chip_at(slice.rack, at);
        if (at != to &&
            std::find(ring.members.begin(), ring.members.end(), here) == ring.members.end())
          ring.transit_chips.push_back(here);
        stepped = true;
        break;
      }
      assert(stepped);
      if (!stepped) break;
    }
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    add_walk(order[i], order[(i + 1) % order.size()]);
  }
  return ring;
}

std::vector<RingRealization> snake_rings(const TpuCluster& cluster,
                                         const topo::Slice& slice,
                                         const std::vector<std::size_t>& dims) {
  std::vector<RingRealization> rings;
  // Remaining dims (not in `dims`) index the set of serpentine rings.
  std::vector<std::size_t> rest;
  for (std::size_t d = 0; d < topo::kDims; ++d) {
    if (std::find(dims.begin(), dims.end(), d) == dims.end()) rest.push_back(d);
  }
  std::vector<std::int32_t> counter(rest.size(), 0);
  for (;;) {
    Coord fixed = slice.offset;
    for (std::size_t k = 0; k < rest.size(); ++k) fixed[rest[k]] += counter[k];
    rings.push_back(snake_ring(cluster, slice, dims, fixed));
    std::size_t k = 0;
    while (k < rest.size()) {
      if (++counter[k] < slice.shape[rest[k]]) break;
      counter[k] = 0;
      ++k;
    }
    if (k == rest.size()) break;
  }
  return rings;
}

std::vector<RingRealization> realize_stage(const TpuCluster& cluster,
                                           const topo::Slice& slice,
                                           const RingStage& stage) {
  if (!stage.snake) {
    return rings_in_dim(cluster, slice, static_cast<std::size_t>(stage.dim));
  }
  // Recover the snake dims the plan folded: partially-spanned active dims
  // plus the first usable dim.
  const auto usable = usable_dims(slice, cluster.config().rack_shape);
  std::vector<std::size_t> snake_dims;
  for (std::size_t d : active_dims(slice)) {
    if (std::find(usable.begin(), usable.end(), d) == usable.end()) snake_dims.push_back(d);
  }
  if (!usable.empty()) snake_dims.push_back(usable.front());
  return snake_rings(cluster, slice, snake_dims);
}

}  // namespace lp::coll
