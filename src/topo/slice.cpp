#include "topo/slice.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace lp::topo {

bool Slice::contains(Coord rack_coord) const {
  for (std::size_t d = 0; d < kDims; ++d) {
    const std::int32_t rel = rack_coord[d] - offset[d];
    if (rel < 0 || rel >= shape[d]) return false;
  }
  return true;
}

std::vector<Coord> Slice::coords() const {
  std::vector<Coord> out;
  out.reserve(static_cast<std::size_t>(shape.size()));
  const Torus local{shape};
  for (std::int32_t i = 0; i < shape.size(); ++i) {
    Coord c = local.coord(i);
    for (std::size_t d = 0; d < kDims; ++d) c[d] += offset[d];
    out.push_back(c);
  }
  return out;
}

bool Slice::spans_dimension(std::size_t d, const Shape& rack_shape) const {
  return shape[d] == rack_shape[d];
}

namespace {

// Malformed requests: an extent below 1 would place an empty slice, and a
// rack outside the cluster would index past the chip table.
std::optional<Error> bad_shape(Shape shape) {
  for (std::size_t d = 0; d < kDims; ++d) {
    if (shape[d] < 1) return Err("slice extent below 1 along dim " + std::to_string(d));
  }
  return std::nullopt;
}

std::optional<Error> bad_request(const TpuCluster& cluster, RackId rack, Shape shape) {
  if (rack < 0 || rack >= cluster.rack_count())
    return Err("rack " + std::to_string(rack) + " is out of range");
  return bad_shape(shape);
}

}  // namespace

SliceAllocator::SliceAllocator(TpuCluster& cluster)
    : cluster_{cluster},
      owner_(static_cast<std::size_t>(cluster.chip_count()), -1) {
  const Shape& rs = cluster_.config().rack_shape;
  for (std::int32_t sx = 1; sx <= rs[0]; ++sx) {
    for (std::int32_t sy = 1; sy <= rs[1]; ++sy) {
      for (std::int32_t sz = 1; sz <= rs[2]; ++sz) {
        candidates_.push_back(Shape{{sx, sy, sz}});
      }
    }
  }
  std::sort(candidates_.begin(), candidates_.end(), [](const Shape& a, const Shape& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a.extent < b.extent;
  });
}

bool SliceAllocator::fits(RackId rack, Coord offset, Shape shape) const {
  const Torus& torus = cluster_.rack_torus();
  const TpuId base = rack * cluster_.chips_per_rack();
  for (std::int32_t dx = 0; dx < shape[0]; ++dx) {
    for (std::int32_t dy = 0; dy < shape[1]; ++dy) {
      for (std::int32_t dz = 0; dz < shape[2]; ++dz) {
        const TpuId chip =
            base + torus.index(Coord{{offset[0] + dx, offset[1] + dy, offset[2] + dz}});
        if (cluster_.state(chip) != ChipState::kFree) return false;
      }
    }
  }
  return true;
}

Result<SliceId> SliceAllocator::allocate_at(RackId rack, Coord offset, Shape shape) {
  if (auto bad = bad_request(cluster_, rack, shape)) return std::move(*bad);
  const Shape& rs = cluster_.config().rack_shape;
  for (std::size_t d = 0; d < kDims; ++d) {
    if (offset[d] < 0 || offset[d] + shape[d] > rs[d])
      return Err("slice does not fit in rack along dim " + std::to_string(d));
  }
  Slice s;
  s.rack = rack;
  s.offset = offset;
  s.shape = shape;
  for (Coord c : s.coords()) {
    const TpuId chip = cluster_.chip_at(rack, c);
    if (cluster_.state(chip) != ChipState::kFree)
      return Err("chip " + std::to_string(chip) + " is not free");
  }
  s.id = static_cast<SliceId>(slices_.size());
  for (Coord c : s.coords()) {
    const TpuId chip = cluster_.chip_at(rack, c);
    cluster_.set_state(chip, ChipState::kAllocated);
    owner_[static_cast<std::size_t>(chip)] = s.id;
  }
  slices_.push_back(s);
  live_.push_back(true);
  return s.id;
}

Result<SliceId> SliceAllocator::allocate_in_rack(RackId rack, Shape shape) {
  if (auto bad = bad_request(cluster_, rack, shape)) return std::move(*bad);
  const Shape& rs = cluster_.config().rack_shape;
  for (std::int32_t x = 0; x + shape[0] <= rs[0]; ++x) {
    for (std::int32_t y = 0; y + shape[1] <= rs[1]; ++y) {
      for (std::int32_t z = 0; z + shape[2] <= rs[2]; ++z) {
        const Coord offset{{x, y, z}};
        if (fits(rack, offset, shape)) return allocate_at(rack, offset, shape);
      }
    }
  }
  return Err("no free region of the requested shape in rack " + std::to_string(rack));
}

Result<SliceId> SliceAllocator::allocate(Shape shape) {
  if (auto bad = bad_shape(shape)) return std::move(*bad);
  // Best-fit total order: racks by (free chips ascending, rack id
  // ascending); a rack is skipped outright when its free count cannot cover
  // the shape.  See the header for the full contract.
  std::vector<std::pair<std::int32_t, RackId>> order;
  order.reserve(static_cast<std::size_t>(cluster_.rack_count()));
  for (RackId rack = 0; rack < cluster_.rack_count(); ++rack) {
    const std::int32_t free = free_in_rack(rack);
    if (free >= shape.size()) order.emplace_back(free, rack);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [free, rack] : order) {
    auto attempt = allocate_in_rack(rack, shape);
    if (attempt) return attempt;
  }
  return Err("no free region of the requested shape in any rack");
}

void SliceAllocator::release(SliceId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= slices_.size() ||
      !live_[static_cast<std::size_t>(id)])
    return;
  const Slice& s = slices_[static_cast<std::size_t>(id)];
  for (Coord c : s.coords()) {
    const TpuId chip = cluster_.chip_at(s.rack, c);
    // A failed chip stays failed when its slice goes away.
    if (cluster_.state(chip) == ChipState::kAllocated)
      cluster_.set_state(chip, ChipState::kFree);
    owner_[static_cast<std::size_t>(chip)] = -1;
  }
  live_[static_cast<std::size_t>(id)] = false;
}

const Slice* SliceAllocator::slice(SliceId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= slices_.size() ||
      !live_[static_cast<std::size_t>(id)])
    return nullptr;
  return &slices_[static_cast<std::size_t>(id)];
}

std::vector<SliceId> SliceAllocator::active_slices() const {
  std::vector<SliceId> out;
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    if (live_[i]) out.push_back(static_cast<SliceId>(i));
  }
  return out;
}

Shape SliceAllocator::largest_placeable(RackId rack) const {
  const std::int32_t free_total = free_in_rack(rack);
  if (free_total == 0) return Shape{{0, 0, 0}};
  const Shape& rs = cluster_.config().rack_shape;
  // Free-cell occupancy of the rack, indexed by the rack torus: one pass
  // over the rack, then every candidate probe reads bits (measured faster
  // than probing chip states through fits()).
  const std::int32_t per = cluster_.chips_per_rack();
  std::vector<bool> free_cell(static_cast<std::size_t>(per));
  for (std::int32_t i = 0; i < per; ++i) {
    free_cell[static_cast<std::size_t>(i)] =
        cluster_.state(rack * per + i) == ChipState::kFree;
  }
  // The first placeable candidate (volume descending, shape lexicographic
  // ascending) is the answer.
  const Torus& torus = cluster_.rack_torus();
  for (const Shape& s : candidates_) {
    if (s.size() > free_total) continue;
    for (std::int32_t x = 0; x + s[0] <= rs[0]; ++x) {
      for (std::int32_t y = 0; y + s[1] <= rs[1]; ++y) {
        for (std::int32_t z = 0; z + s[2] <= rs[2]; ++z) {
          bool fits = true;
          for (std::int32_t dx = 0; fits && dx < s[0]; ++dx) {
            for (std::int32_t dy = 0; fits && dy < s[1]; ++dy) {
              for (std::int32_t dz = 0; fits && dz < s[2]; ++dz) {
                const std::int32_t idx =
                    torus.index(Coord{{x + dx, y + dy, z + dz}});
                fits = free_cell[static_cast<std::size_t>(idx)];
              }
            }
          }
          if (fits) return s;
        }
      }
    }
  }
  return Shape{{0, 0, 0}};
}

FragmentationReport SliceAllocator::fragmentation() const {
  FragmentationReport report;
  report.racks.reserve(static_cast<std::size_t>(cluster_.rack_count()));
  for (RackId rack = 0; rack < cluster_.rack_count(); ++rack) {
    RackFragmentation rf;
    rf.rack = rack;
    rf.free_chips = free_in_rack(rack);
    rf.largest_shape = largest_placeable(rack);
    rf.largest_volume = rf.largest_shape.size();
    report.total_free += rf.free_chips;
    report.placeable_sum += rf.largest_volume;
    report.largest_volume = std::max(report.largest_volume, rf.largest_volume);
    report.racks.push_back(rf);
  }
  return report;
}

std::optional<SliceId> SliceAllocator::owner(TpuId chip) const {
  const std::int32_t o = owner_[static_cast<std::size_t>(chip)];
  if (o < 0) return std::nullopt;
  return o;
}

Result<Figure5Packing> pack_figure5(SliceAllocator& alloc, RackId rack) {
  auto s4 = alloc.allocate_at(rack, Coord{{0, 0, 0}}, Shape{{4, 4, 2}});
  if (!s4) return Err("slice4: " + s4.error().message);
  auto s3 = alloc.allocate_at(rack, Coord{{0, 0, 2}}, Shape{{4, 4, 1}});
  if (!s3) return Err("slice3: " + s3.error().message);
  auto s1 = alloc.allocate_at(rack, Coord{{0, 0, 3}}, Shape{{4, 2, 1}});
  if (!s1) return Err("slice1: " + s1.error().message);
  auto s2 = alloc.allocate_at(rack, Coord{{0, 2, 3}}, Shape{{4, 2, 1}});
  if (!s2) return Err("slice2: " + s2.error().message);
  return Figure5Packing{s1.value(), s2.value(), s3.value(), s4.value()};
}

}  // namespace lp::topo
