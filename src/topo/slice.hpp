// Slices: sub-tori of a rack allocated to one tenant.
//
// "A slice consists of a subset of TPU chips allocated to a single cloud
// tenant.  Typically, slices can only be allocated in regular shapes,
// forming tori of specific dimensions" (§4.1).  The Figure 5b/5c scenario
// packs one rack with Slice-1 (4x2x1), Slice-2 (4x2x1), Slice-3 (4x4x1) and
// Slice-4 (4x4x2); helpers below construct exactly that packing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topo/cluster.hpp"
#include "topo/torus.hpp"
#include "util/result.hpp"

namespace lp::topo {

using SliceId = std::int32_t;

struct Slice {
  SliceId id{-1};
  RackId rack{0};
  Coord offset{};  ///< lowest-corner coordinate within the rack
  Shape shape{};

  [[nodiscard]] std::int32_t chip_count() const { return shape.size(); }

  /// True if the rack-space coordinate lies inside this slice.
  [[nodiscard]] bool contains(Coord rack_coord) const;

  /// All rack-space coordinates of the slice, row-major over its shape.
  [[nodiscard]] std::vector<Coord> coords() const;

  /// Whether the slice spans the full rack extent in dimension `d` — the
  /// precondition for running a congestion-free direction-uniform ring in
  /// that dimension on the electrical torus.
  [[nodiscard]] bool spans_dimension(std::size_t d, const Shape& rack_shape) const;
};

/// Why `slice` is not a box inside one rack of `cluster`: its rack is out of
/// range, an extent is below 1, or it leaves the rack along some dimension.
/// nullopt when it fits.  SliceAllocator::allocate_at and the slice-level
/// collective builders decide with this one check.
[[nodiscard]] std::optional<Error> outside_rack(const TpuCluster& cluster,
                                                const Slice& slice);

/// Free-space accounting for one rack: how many chips are free and the
/// largest slice shape still placeable there.  The gap between the two is
/// fragmentation — free chips stranded in holes no regular slice can use.
struct RackFragmentation {
  RackId rack{0};
  std::int32_t free_chips{0};
  /// Largest-volume free sub-cuboid (ties broken by lexicographically
  /// smallest shape); {0,0,0} when nothing is placeable.
  Shape largest_shape{{0, 0, 0}};
  std::int32_t largest_volume{0};
};

struct FragmentationReport {
  std::vector<RackFragmentation> racks;
  std::int32_t total_free{0};
  /// Largest placeable volume anywhere (max over racks).
  std::int32_t largest_volume{0};
  /// Sum of per-rack largest placeable volumes.
  std::int32_t placeable_sum{0};

  /// Fraction of free chips stranded outside each rack's largest placeable
  /// cuboid: 0 = perfectly compact, -> 1 = free capacity exists but no
  /// regular slice can use most of it.
  [[nodiscard]] double stranding() const {
    return total_free == 0
               ? 0.0
               : 1.0 - static_cast<double>(placeable_sum) / static_cast<double>(total_free);
  }
};

/// Tracks slice placement within a cluster and answers "who owns chip X".
///
/// Placement search is bit-parallel over TpuCluster's per-rack free masks.
/// Torus::index is row-major and linear, so the offsets at which a shape
/// (sx, sy, sz) lies on free chips are the free mask ANDed with itself
/// shifted by every z, y * Z and x * Y * Z step of the box, then ANDed with
/// the offsets at which the box stays inside the rack.  The lowest set bit
/// is the first row-major offset.  The searches share one scratch mask, so
/// an allocator serves one thread at a time, const calls included.
class SliceAllocator {
 public:
  explicit SliceAllocator(TpuCluster& cluster);

  /// Place a slice at an explicit offset (used to reconstruct the paper's
  /// figures).  Fails if the rack is out of range, an extent is below 1,
  /// the slice leaves the rack, or any covered chip is not free.
  Result<SliceId> allocate_at(RackId rack, Coord offset, Shape shape);

  /// Best-fit scan with a documented deterministic total order:
  ///
  ///   1. candidate racks are visited in (free-chip count ascending,
  ///      rack id ascending) order — the tightest rack that still fits
  ///      wins, which packs the cluster and preserves large holes;
  ///   2. within a rack, offsets are scanned row-major ascending
  ///      (x outermost, then y, then z);
  ///   3. the first feasible (rack, offset) under that order is taken.
  ///
  /// The choice is a pure function of the current chip-state multiset: two
  /// allocators whose racks hold identical free/allocated/failed sets place
  /// the next slice identically, no matter what alloc/release history
  /// produced those sets (permutation-invariance regression in topo_test).
  ///
  /// Racks come from TpuCluster's free-count index, walked upward from
  /// shape.size().  A shape that failed at the current free_epoch() fails
  /// in O(1): no chip has become free since, so nothing can fit.
  Result<SliceId> allocate(Shape shape);

  /// The within-rack leg of allocate()'s order: first row-major offset at
  /// which `shape` fits entirely on free chips of `rack`.
  Result<SliceId> allocate_in_rack(RackId rack, Shape shape);

  /// Release a slice, freeing its chips.  Idempotent.
  void release(SliceId id);

  [[nodiscard]] const Slice* slice(SliceId id) const;
  [[nodiscard]] std::vector<SliceId> active_slices() const;

  /// Chips of a live slice in ascending id order; empty for a dead id.
  [[nodiscard]] std::vector<TpuId> chips(SliceId id) const;

  /// Owning slice of a chip, or nullopt if free/failed/unowned.
  [[nodiscard]] std::optional<SliceId> owner(TpuId chip) const;

  /// Number of kFree chips in `rack` (TpuCluster's O(1) count).
  [[nodiscard]] std::int32_t free_in_rack(RackId rack) const {
    return cluster_.free_in_rack(rack);
  }

  /// Largest-volume shape placeable entirely on free chips of `rack`
  /// (ties broken by lexicographically smallest shape); {0,0,0} if none or
  /// if the rack is out of range.
  [[nodiscard]] Shape largest_placeable(RackId rack) const;

  /// Full free/fragmentation accounting, one entry per rack.  O(racks x
  /// shapes x mask words) word operations; callers that need it per-event
  /// should cache per rack and recompute only racks whose chips changed
  /// state.
  [[nodiscard]] FragmentationReport fragmentation() const;

  [[nodiscard]] TpuCluster& cluster() { return cluster_; }
  [[nodiscard]] const TpuCluster& cluster() const { return cluster_; }

 private:
  /// Lowest rack-torus index at which `shape` lies on free chips of
  /// `rack`, or -1.  The caller has checked the rack and that every extent
  /// is in 1..rack extent.  Allocates nothing.
  [[nodiscard]] std::int32_t first_offset(RackId rack, Shape shape) const;
  /// Records a slice at an offset the caller has checked is free.
  SliceId place(RackId rack, Coord offset, Shape shape);
  /// Calls visit(chip) for every chip of `s` in ascending id order.
  template <typename Visit>
  void for_each_chip(const Slice& s, Visit&& visit) const;
  /// Dense index of a shape that fits the rack, for failed_at_.
  [[nodiscard]] std::size_t shape_index(Shape shape) const;

  TpuCluster& cluster_;
  /// Every shape that fits a rack, in largest_placeable's (volume
  /// descending, extent ascending) order.
  std::vector<Shape> candidates_;
  /// For each dimension d and extent e, the offsets at which e chips fit
  /// along d (bit i set iff coord(i)[d] + e <= rack extent), one free
  /// mask's words each: x extents first, then y, then z.
  std::vector<std::uint64_t> in_range_;
  /// Per shape_index(), free_epoch() + 1 when allocate() last failed for
  /// the shape; 0 if it never did.
  std::vector<std::uint64_t> failed_at_;
  /// One free mask's words, eroded in place by first_offset().
  mutable std::vector<std::uint64_t> scratch_;
  std::vector<Slice> slices_;
  std::vector<bool> live_;
  std::vector<std::int32_t> owner_;  ///< per chip, -1 = none
};

/// Builds the exact rack packing of Figure 5b/5c on rack 0 of `alloc`:
/// Slice-4 (4x4x2) at z in {0,1}, Slice-3 (4x4x1) at z=2, Slice-1 (4x2x1)
/// at y in {0,1}, z=3 and Slice-2 (4x2x1) at y in {2,3}, z=3.
/// Returns ids in paper order: {slice1, slice2, slice3, slice4}.
struct Figure5Packing {
  SliceId slice1, slice2, slice3, slice4;
};
[[nodiscard]] Result<Figure5Packing> pack_figure5(SliceAllocator& alloc, RackId rack = 0);

}  // namespace lp::topo
