#include "topo/slice.hpp"

#include <algorithm>
#include <bit>
#include <span>
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

bool within(Shape shape, Shape rack) {
  for (std::size_t d = 0; d < kDims; ++d) {
    if (shape[d] > rack[d]) return false;
  }
  return true;
}

// In place: bit i of `m` stays set iff bits i, i + step, ...,
// i + (len - 1) * step all were.  Each pass ANDs the mask with itself
// shifted down by k * step, which turns runs of `run` into runs of
// run + k (k <= run keeps them contiguous).
void erode(std::span<std::uint64_t> m, std::size_t step, std::int32_t len) {
  const std::size_t n = m.size();
  for (std::int32_t run = 1; run < len;) {
    const std::int32_t k = std::min(run, len - run);
    const std::size_t q = static_cast<std::size_t>(k) * step / 64;
    const std::size_t r = static_cast<std::size_t>(k) * step % 64;
    // Word i reads only words i + q and i + q + 1, which this pass has not
    // written yet, so it can run ascending in place.
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t lo = i + q < n ? m[i + q] : 0;
      const std::uint64_t hi = i + q + 1 < n ? m[i + q + 1] : 0;
      // A shift by 64 is undefined: a whole-word step takes `lo` as it is.
      m[i] &= r == 0 ? lo : (lo >> r) | (hi << (64 - r));
    }
    run += k;
  }
}

}  // namespace

std::optional<Error> outside_rack(const TpuCluster& cluster, const Slice& slice) {
  if (auto bad = bad_request(cluster, slice.rack, slice.shape)) return bad;
  const Shape& rs = cluster.config().rack_shape;
  for (std::size_t d = 0; d < kDims; ++d) {
    if (slice.offset[d] < 0 || slice.offset[d] + slice.shape[d] > rs[d])
      return Err("slice does not fit in rack along dim " + std::to_string(d));
  }
  return std::nullopt;
}

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
  const std::size_t words = cluster_.free_mask(0).size();
  in_range_.assign(static_cast<std::size_t>(rs[0] + rs[1] + rs[2]) * words, 0);
  const Torus& torus = cluster_.rack_torus();
  for (std::int32_t i = 0; i < torus.size(); ++i) {
    const Coord c = torus.coord(i);
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    std::int32_t table = 0;  // the extent-1 mask of dimension d
    for (std::size_t d = 0; d < kDims; ++d) {
      for (std::int32_t e = 1; c[d] + e <= rs[d]; ++e) {
        in_range_[static_cast<std::size_t>(table + e - 1) * words +
                  static_cast<std::size_t>(i / 64)] |= bit;
      }
      table += rs[d];
    }
  }
  failed_at_.assign(static_cast<std::size_t>(rs.size()), 0);
  scratch_.assign(words, 0);
}

std::size_t SliceAllocator::shape_index(Shape shape) const {
  const Shape& rs = cluster_.config().rack_shape;
  return static_cast<std::size_t>(((shape[0] - 1) * rs[1] + shape[1] - 1) * rs[2] +
                                  shape[2] - 1);
}

template <typename Visit>
void SliceAllocator::for_each_chip(const Slice& s, Visit&& visit) const {
  // Row-major over the box is ascending in Torus::index, so in chip id.
  const Shape& rs = cluster_.config().rack_shape;
  const TpuId base = s.rack * cluster_.chips_per_rack();
  for (std::int32_t x = s.offset[0]; x < s.offset[0] + s.shape[0]; ++x) {
    for (std::int32_t y = s.offset[1]; y < s.offset[1] + s.shape[1]; ++y) {
      const TpuId row = base + (x * rs[1] + y) * rs[2];
      for (std::int32_t z = s.offset[2]; z < s.offset[2] + s.shape[2]; ++z) visit(row + z);
    }
  }
}

std::int32_t SliceAllocator::first_offset(RackId rack, Shape shape) const {
  const std::span<const std::uint64_t> free = cluster_.free_mask(rack);
  std::copy(free.begin(), free.end(), scratch_.begin());
  const Shape& rs = cluster_.config().rack_shape;
  const std::span<std::uint64_t> m{scratch_};
  erode(m, 1, shape[2]);
  erode(m, static_cast<std::size_t>(rs[2]), shape[1]);
  erode(m, static_cast<std::size_t>(rs[1] * rs[2]), shape[0]);
  // Keep the offsets at which the box stays inside the rack: the eroded
  // bits elsewhere read chips of the next row or plane.
  const std::size_t words = m.size();
  const auto mask = [&](std::int32_t table) {
    return &in_range_[static_cast<std::size_t>(table) * words];
  };
  const std::uint64_t* x = mask(shape[0] - 1);
  const std::uint64_t* y = mask(rs[0] + shape[1] - 1);
  const std::uint64_t* z = mask(rs[0] + rs[1] + shape[2] - 1);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t hits = m[w] & x[w] & y[w] & z[w];
    if (hits != 0) return static_cast<std::int32_t>(w * 64) + std::countr_zero(hits);
  }
  return -1;
}

SliceId SliceAllocator::place(RackId rack, Coord offset, Shape shape) {
  const Slice s{static_cast<SliceId>(slices_.size()), rack, offset, shape};
  for_each_chip(s, [&](TpuId chip) {
    cluster_.set_state(chip, ChipState::kAllocated);
    owner_[static_cast<std::size_t>(chip)] = s.id;
  });
  slices_.push_back(s);
  live_.push_back(true);
  return s.id;
}

Result<SliceId> SliceAllocator::allocate_at(RackId rack, Coord offset, Shape shape) {
  const Slice s{-1, rack, offset, shape};
  if (auto bad = outside_rack(cluster_, s)) return std::move(*bad);
  TpuId busy = -1;
  for_each_chip(s, [&](TpuId chip) {
    if (busy < 0 && cluster_.state(chip) != ChipState::kFree) busy = chip;
  });
  if (busy >= 0) return Err("chip " + std::to_string(busy) + " is not free");
  return place(rack, offset, shape);
}

Result<SliceId> SliceAllocator::allocate_in_rack(RackId rack, Shape shape) {
  if (auto bad = bad_request(cluster_, rack, shape)) return std::move(*bad);
  const std::int32_t at =
      within(shape, cluster_.config().rack_shape) ? first_offset(rack, shape) : -1;
  if (at < 0)
    return Err("no free region of the requested shape in rack " + std::to_string(rack));
  return place(rack, cluster_.rack_torus().coord(at), shape);
}

Result<SliceId> SliceAllocator::allocate(Shape shape) {
  if (auto bad = bad_shape(shape)) return std::move(*bad);
  if (!within(shape, cluster_.config().rack_shape))
    return Err("no free region of the requested shape in any rack");
  // The memo is exact: since the failure no chip has become free, so the
  // free set has only shrunk and nothing can fit now either.
  std::uint64_t& failed_at = failed_at_[shape_index(shape)];
  const std::uint64_t now = cluster_.free_epoch() + 1;
  if (failed_at == now) return Err("no free region of the requested shape in any rack");
  // Best-fit total order (see the header): racks that can cover the shape,
  // by (free ascending, rack ascending), then the first row-major offset.
  SliceId placed = -1;
  cluster_.racks_by_free_ascending(shape.size(), [&](RackId rack) {
    const std::int32_t at = first_offset(rack, shape);
    if (at < 0) return false;
    placed = place(rack, cluster_.rack_torus().coord(at), shape);
    return true;
  });
  if (placed >= 0) return placed;
  failed_at = now;
  return Err("no free region of the requested shape in any rack");
}

void SliceAllocator::release(SliceId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= slices_.size() ||
      !live_[static_cast<std::size_t>(id)])
    return;
  for_each_chip(slices_[static_cast<std::size_t>(id)], [&](TpuId chip) {
    // A failed chip stays failed when its slice goes away.
    if (cluster_.state(chip) == ChipState::kAllocated)
      cluster_.set_state(chip, ChipState::kFree);
    owner_[static_cast<std::size_t>(chip)] = -1;
  });
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

std::vector<TpuId> SliceAllocator::chips(SliceId id) const {
  std::vector<TpuId> out;
  const Slice* s = slice(id);
  if (s == nullptr) return out;
  out.reserve(static_cast<std::size_t>(s->chip_count()));
  for_each_chip(*s, [&](TpuId chip) { out.push_back(chip); });
  return out;
}

Shape SliceAllocator::largest_placeable(RackId rack) const {
  if (rack < 0 || rack >= cluster_.rack_count()) return Shape{{0, 0, 0}};
  // The first placeable candidate (volume descending, shape lexicographic
  // ascending) is the answer.
  const std::int32_t free_total = free_in_rack(rack);
  for (const Shape& s : candidates_) {
    if (s.size() <= free_total && first_offset(rack, s) >= 0) return s;
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
