#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "topo/cluster.hpp"
#include "topo/slice.hpp"
#include "topo/torus.hpp"
#include "util/rng.hpp"

namespace lp::topo {
namespace {

TEST(Torus, IndexCoordRoundTrip) {
  const Torus t{Shape{{4, 4, 4}}};
  EXPECT_EQ(t.size(), 64);
  for (std::int32_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t.index(t.coord(i)), i);
  }
}

TEST(Torus, NeighborWraparound) {
  const Torus t{Shape{{4, 4, 4}}};
  const Coord edge{{3, 0, 0}};
  EXPECT_EQ(t.neighbor(edge, 0, +1), (Coord{{0, 0, 0}}));
  EXPECT_EQ(t.neighbor(Coord{{0, 0, 0}}, 0, -1), (Coord{{3, 0, 0}}));
  EXPECT_EQ(t.neighbor(Coord{{1, 2, 3}}, 2, +1), (Coord{{1, 2, 0}}));
}

TEST(Torus, RingThroughVisitsFullDimension) {
  const Torus t{Shape{{4, 2, 3}}};
  const auto ring = t.ring_through(Coord{{1, 1, 2}}, 0);
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring[0], (Coord{{1, 1, 2}}));
  EXPECT_EQ(ring[1], (Coord{{2, 1, 2}}));
  EXPECT_EQ(ring[3], (Coord{{0, 1, 2}}));
}

TEST(Torus, AllCoordsComplete) {
  const Torus t{Shape{{2, 3, 4}}};
  const auto coords = t.all_coords();
  EXPECT_EQ(coords.size(), 24u);
  std::set<std::int32_t> seen;
  for (const Coord& c : coords) seen.insert(t.index(c));
  EXPECT_EQ(seen.size(), 24u);
}

TEST(Cluster, DefaultsMatchTpuV4) {
  const TpuCluster cluster;
  EXPECT_EQ(cluster.rack_count(), 64);
  EXPECT_EQ(cluster.chips_per_rack(), 64);
  EXPECT_EQ(cluster.chip_count(), 4096);
  EXPECT_EQ(cluster.servers_per_rack(), 16);
}

TEST(Cluster, ChipIdRoundTrip) {
  const TpuCluster cluster;
  for (RackId r : {0, 17, 63}) {
    for (std::int32_t i = 0; i < 64; i += 7) {
      const Coord c = cluster.rack_torus().coord(i);
      const TpuId chip = cluster.chip_at(r, c);
      EXPECT_EQ(cluster.rack_of(chip), r);
      EXPECT_EQ(cluster.coord_of(chip), c);
    }
  }
}

TEST(Cluster, ServerGrouping2x2x1) {
  const TpuCluster cluster;
  // Chips (0,0,0), (1,0,0), (0,1,0), (1,1,0) share a server.
  const TpuId base = cluster.chip_at(0, Coord{{0, 0, 0}});
  const auto chips = cluster.server_chips(base);
  EXPECT_EQ(chips.size(), 4u);
  std::set<std::int32_t> servers;
  for (std::int32_t i = 0; i < cluster.chips_per_rack(); ++i) servers.insert(cluster.server_of(i));
  EXPECT_EQ(servers.size(), 16u);
  // A different z belongs to a different server (groups are 2x2x1).
  EXPECT_NE(cluster.server_of(cluster.chip_at(0, Coord{{0, 0, 0}})),
            cluster.server_of(cluster.chip_at(0, Coord{{0, 0, 1}})));
}

TEST(Cluster, StateTracking) {
  TpuCluster cluster;
  EXPECT_EQ(cluster.state(100), ChipState::kFree);
  cluster.set_state(100, ChipState::kFailed);
  EXPECT_EQ(cluster.state(100), ChipState::kFailed);
  EXPECT_EQ(cluster.chips_in_state(ChipState::kFailed).size(), 1u);
  EXPECT_EQ(cluster.free_chips_in_rack(1).size(), 63u);
  EXPECT_EQ(cluster.free_chips_in_rack(0).size(), 64u);
}

// set_state keeps the free counts, the per-rack free masks, the free-count
// rack index and free_epoch(); they must equal a recount after any sequence
// of writes, same-state writes and failed -> free included, and the index's
// rack walks must follow the recounts.  The second config has two-word free
// masks (4x4x8 racks) and two words of rack ids.
TEST(Cluster, FreeCountsTrackEveryStateChange) {
  for (const auto& [racks, rack_shape] :
       {std::pair{3, Shape{{4, 4, 4}}}, std::pair{70, Shape{{4, 4, 8}}}}) {
    ClusterConfig config;
    config.racks = racks;
    config.rack_shape = rack_shape;
    TpuCluster cluster{config};
    Rng rng{0xf7ee};
    const std::int32_t per = cluster.chips_per_rack();
    const auto recount = [&](RackId rack) {
      return static_cast<std::int32_t>(cluster.free_chips_in_rack(rack).size());
    };
    // Bit i of the mask is chip rack * per + i being free; bits past the
    // rack are clear.
    const auto mask_matches = [&](RackId rack) {
      const std::span<const std::uint64_t> mask = cluster.free_mask(rack);
      if (mask.size() != static_cast<std::size_t>(per + 63) / 64) return false;
      for (std::int32_t i = 0; i < static_cast<std::int32_t>(mask.size()) * 64; ++i) {
        const bool bit = ((mask[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1u) != 0;
        const bool free = i < per && cluster.state(rack * per + i) == ChipState::kFree;
        if (bit != free) return false;
      }
      return true;
    };
    // Recounted free chips per rack: a rack's entry is refreshed whenever
    // one of its chips is written.
    std::vector<std::int32_t> free(static_cast<std::size_t>(racks), per);
    // The count index must walk the recounts in (free ascending, rack
    // ascending) order from any floor, and in (free descending, rack
    // ascending) order over racks with a free chip.
    const auto walks_match = [&](std::int32_t min_free) {
      std::vector<std::pair<std::int32_t, RackId>> up;
      std::vector<std::pair<std::int32_t, RackId>> down;
      for (RackId r = 0; r < racks; ++r) {
        const std::int32_t f = free[static_cast<std::size_t>(r)];
        if (f >= min_free) up.emplace_back(f, r);
        if (f > 0) down.emplace_back(-f, r);
      }
      std::sort(up.begin(), up.end());
      std::sort(down.begin(), down.end());
      std::vector<RackId> want_up;
      std::vector<RackId> want_down;
      for (const auto& e : up) want_up.push_back(e.second);
      for (const auto& e : down) want_down.push_back(e.second);
      std::vector<RackId> got_up;
      std::vector<RackId> got_down;
      const bool stopped_up = cluster.racks_by_free_ascending(min_free, [&](RackId r) {
        got_up.push_back(r);
        return false;
      });
      const bool stopped_down = cluster.racks_by_free_descending([&](RackId r) {
        got_down.push_back(r);
        return false;
      });
      return !stopped_up && !stopped_down && got_up == want_up && got_down == want_down;
    };
    // The index itself: racks_with_free(n) holds exactly the racks whose
    // recount is n, and free_counts() has bit n iff some rack does.
    const auto bit = [](std::span<const std::uint64_t> words, std::size_t i) {
      return i < words.size() * 64 && ((words[i / 64] >> (i % 64)) & 1u) != 0;
    };
    const auto index_matches = [&](std::int32_t n) {
      const std::span<const std::uint64_t> racks_n = cluster.racks_with_free(n);
      if (racks_n.size() != static_cast<std::size_t>(racks + 63) / 64) return false;
      bool used = false;
      for (std::size_t r = 0; r < racks_n.size() * 64; ++r) {
        const bool want =
            r < static_cast<std::size_t>(racks) && free[r] == n;
        if (bit(racks_n, r) != want) return false;
        used = used || want;
      }
      return bit(cluster.free_counts(), static_cast<std::size_t>(n)) == used;
    };
    const auto counts_past_rack_clear = [&] {
      const std::span<const std::uint64_t> counts = cluster.free_counts();
      for (std::size_t n = static_cast<std::size_t>(per) + 1; n < counts.size() * 64; ++n) {
        if (bit(counts, n)) return false;
      }
      return true;
    };
    constexpr std::array<ChipState, 3> kStates{ChipState::kFree, ChipState::kAllocated,
                                               ChipState::kFailed};
    std::uint64_t epoch = 0;
    for (int step = 0; step < 5000; ++step) {
      // Half the writes hit a small hot set, so same-state writes and every
      // transition (failed -> free too) happen often.
      const auto chips = static_cast<std::uint64_t>(cluster.chip_count());
      const auto chip =
          static_cast<TpuId>(rng.uniform_index(rng.bernoulli(0.5) ? 8 : chips));
      const ChipState to = kStates[rng.uniform_index(kStates.size())];
      if (cluster.state(chip) != ChipState::kFree && to == ChipState::kFree) ++epoch;
      cluster.set_state(chip, to);
      const RackId rack = cluster.rack_of(chip);
      const std::int32_t before = free[static_cast<std::size_t>(rack)];
      free[static_cast<std::size_t>(rack)] = recount(rack);
      ASSERT_EQ(cluster.free_in_rack(rack), recount(rack)) << racks << " step " << step;
      ASSERT_TRUE(mask_matches(rack)) << racks << " step " << step;
      ASSERT_EQ(cluster.free_epoch(), epoch) << racks << " step " << step;
      // The write can only have moved `rack` out of bucket `before`.
      ASSERT_TRUE(index_matches(before)) << racks << " step " << step;
      ASSERT_TRUE(index_matches(free[static_cast<std::size_t>(rack)]))
          << racks << " step " << step;
      const auto floor = static_cast<std::int32_t>(rng.uniform_index(
          static_cast<std::uint64_t>(per) + 2));
      ASSERT_TRUE(walks_match(0)) << racks << " step " << step;
      ASSERT_TRUE(walks_match(floor)) << racks << " step " << step << " floor " << floor;
      if (step % 97 == 0) {
        std::int32_t total = 0;
        for (RackId r = 0; r < cluster.rack_count(); ++r) {
          ASSERT_EQ(cluster.free_in_rack(r), recount(r)) << racks << " step " << step;
          ASSERT_TRUE(mask_matches(r)) << racks << " step " << step << " rack " << r;
          total += recount(r);
        }
        ASSERT_EQ(cluster.free_count(), total) << racks << " step " << step;
        for (std::int32_t n = 0; n <= per; ++n) {
          ASSERT_TRUE(index_matches(n)) << racks << " step " << step << " count " << n;
        }
        ASSERT_TRUE(counts_past_rack_clear()) << racks << " step " << step;
      }
    }
  }
}

TEST(Cluster, DimBandwidthIsThirdOfChip) {
  const TpuCluster cluster;
  EXPECT_NEAR(cluster.dim_bandwidth().to_gBps(), 100.0, 1e-9);
}

TEST(Cluster, WraparoundDetection) {
  const TpuCluster cluster;
  const TpuId interior = cluster.chip_at(0, Coord{{1, 1, 1}});
  EXPECT_FALSE(cluster.is_wraparound(DirectedLink{interior, 0, +1}));
  const TpuId face = cluster.chip_at(0, Coord{{3, 1, 1}});
  EXPECT_TRUE(cluster.is_wraparound(DirectedLink{face, 0, +1}));
  EXPECT_FALSE(cluster.is_wraparound(DirectedLink{face, 0, -1}));
  const TpuId origin = cluster.chip_at(0, Coord{{0, 1, 1}});
  EXPECT_TRUE(cluster.is_wraparound(DirectedLink{origin, 0, -1}));
}

TEST(Cluster, LinkTargetWraps) {
  const TpuCluster cluster;
  const TpuId face = cluster.chip_at(2, Coord{{3, 1, 1}});
  EXPECT_EQ(cluster.link_target(DirectedLink{face, 0, +1}),
            cluster.chip_at(2, Coord{{0, 1, 1}}));
}

TEST(Cluster, LinkKeyDense) {
  std::set<std::size_t> keys;
  for (TpuId chip = 0; chip < 4; ++chip) {
    for (std::uint8_t d = 0; d < 3; ++d) {
      for (std::int8_t s : {std::int8_t{+1}, std::int8_t{-1}}) {
        keys.insert(link_key(DirectedLink{chip, d, s}));
      }
    }
  }
  EXPECT_EQ(keys.size(), 24u);
  EXPECT_EQ(*keys.rbegin(), 23u);
}

TEST(Slice, ContainsAndCoords) {
  const Slice s{0, 0, Coord{{0, 2, 3}}, Shape{{4, 2, 1}}};
  EXPECT_EQ(s.chip_count(), 8);
  EXPECT_TRUE(s.contains(Coord{{0, 2, 3}}));
  EXPECT_TRUE(s.contains(Coord{{3, 3, 3}}));
  EXPECT_FALSE(s.contains(Coord{{0, 1, 3}}));
  EXPECT_FALSE(s.contains(Coord{{0, 2, 2}}));
  EXPECT_EQ(s.coords().size(), 8u);
}

TEST(Slice, SpansDimension) {
  const Shape rack{{4, 4, 4}};
  const Slice s{0, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 1}}};
  EXPECT_TRUE(s.spans_dimension(0, rack));
  EXPECT_FALSE(s.spans_dimension(1, rack));
  EXPECT_FALSE(s.spans_dimension(2, rack));
}

TEST(Allocator, AllocateAtMarksChips) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  const auto id = alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 1}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(cluster.chips_in_state(ChipState::kAllocated).size(), 16u);
  EXPECT_EQ(alloc.owner(cluster.chip_at(0, Coord{{1, 1, 0}})), id.value());
  EXPECT_FALSE(alloc.owner(cluster.chip_at(0, Coord{{0, 0, 1}})).has_value());
}

TEST(Allocator, RejectsOverlapAndOutOfBounds) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 2}}).ok());
  EXPECT_FALSE(alloc.allocate_at(0, Coord{{0, 0, 1}}, Shape{{4, 4, 1}}).ok());
  EXPECT_FALSE(alloc.allocate_at(0, Coord{{2, 0, 0}}, Shape{{4, 1, 1}}).ok());
}

TEST(OutOfRack, NamesTheFirstViolationAsAllocateAtDoes) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  struct Case {
    Slice slice;
    const char* message;
  };
  const Case cases[] = {
      {{-1, 64, Coord{{0, 0, 0}}, Shape{{1, 1, 1}}}, "rack 64 is out of range"},
      {{-1, -1, Coord{{0, 0, 0}}, Shape{{1, 1, 1}}}, "rack -1 is out of range"},
      {{-1, 0, Coord{{0, 0, 0}}, Shape{{1, 0, 1}}}, "slice extent below 1 along dim 1"},
      {{-1, 0, Coord{{1, 0, 0}}, Shape{{4, 4, 4}}}, "slice does not fit in rack along dim 0"},
      {{-1, 0, Coord{{0, 0, 3}}, Shape{{4, 2, 2}}}, "slice does not fit in rack along dim 2"},
      {{-1, 0, Coord{{0, -1, 0}}, Shape{{2, 2, 2}}}, "slice does not fit in rack along dim 1"},
  };
  for (const Case& c : cases) {
    const std::optional<Error> why = outside_rack(cluster, c.slice);
    ASSERT_TRUE(why.has_value()) << c.message;
    EXPECT_EQ(why->message, c.message);
    const auto placed = alloc.allocate_at(c.slice.rack, c.slice.offset, c.slice.shape);
    ASSERT_FALSE(placed.ok()) << c.message;
    EXPECT_EQ(placed.error().message, c.message);
  }
  EXPECT_EQ(cluster.free_count(), cluster.chip_count());
  // Flush against the last rack's far corner is inside.
  EXPECT_FALSE(outside_rack(cluster, Slice{-1, 63, Coord{{2, 0, 3}}, Shape{{2, 4, 1}}}));
}

TEST(Allocator, ReleaseFreesChips) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  const auto id = alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{2, 2, 2}});
  ASSERT_TRUE(id.ok());
  alloc.release(id.value());
  EXPECT_EQ(cluster.chips_in_state(ChipState::kAllocated).size(), 0u);
  EXPECT_EQ(alloc.slice(id.value()), nullptr);
  alloc.release(id.value());  // idempotent
  // Region can be re-allocated.
  EXPECT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{2, 2, 2}}).ok());
}

TEST(Allocator, ReleaseKeepsFailedChipsFailed) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  const auto id = alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{2, 2, 1}});
  ASSERT_TRUE(id.ok());
  const TpuId failed = cluster.chip_at(0, Coord{{0, 0, 0}});
  cluster.set_state(failed, ChipState::kFailed);
  alloc.release(id.value());
  EXPECT_EQ(cluster.state(failed), ChipState::kFailed);
}

TEST(Allocator, FirstFitFindsSpace) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 3}}).ok());
  // 4x4x2 no longer fits in rack 0 but fits in rack 1.
  const auto id = alloc.allocate(Shape{{4, 4, 2}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(alloc.slice(id.value())->rack, 1);
  // 4x4x1 still fits in rack 0's remaining z=3 layer.
  const auto id2 = alloc.allocate(Shape{{4, 4, 1}});
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(alloc.slice(id2.value())->rack, 0);
}

TEST(Allocator, AllocationExhaustion) {
  ClusterConfig config;
  config.racks = 1;
  TpuCluster cluster{config};
  SliceAllocator alloc{cluster};
  ASSERT_TRUE(alloc.allocate(Shape{{4, 4, 4}}).ok());
  EXPECT_FALSE(alloc.allocate(Shape{{1, 1, 1}}).ok());
}

TEST(Allocator, FragmentationReportAccountsFreeAndPlaceable) {
  ClusterConfig config;
  config.racks = 2;
  TpuCluster cluster{config};
  SliceAllocator alloc{cluster};

  // Empty cluster: everything free, everything placeable, no stranding.
  FragmentationReport r = alloc.fragmentation();
  EXPECT_EQ(r.total_free, 128);
  EXPECT_EQ(r.largest_volume, 64);
  EXPECT_EQ(r.placeable_sum, 128);
  EXPECT_DOUBLE_EQ(r.stranding(), 0.0);

  // Rack 0: z layers 0..2 allocated, z=3 free -> the free layer is exactly
  // one placeable 4x4x1.
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 3}}).ok());
  r = alloc.fragmentation();
  EXPECT_EQ(r.racks[0].free_chips, 16);
  EXPECT_EQ(r.racks[0].largest_volume, 16);
  EXPECT_EQ(r.racks[0].largest_shape, (Shape{{4, 4, 1}}));
  EXPECT_EQ(r.total_free, 16 + 64);
  EXPECT_EQ(r.placeable_sum, 16 + 64);
  EXPECT_DOUBLE_EQ(r.stranding(), 0.0);

  // Rack 1: fail the corner chip.  63 chips are free but the largest free
  // cuboid is 48 -- 15 free chips are stranded.
  cluster.set_state(cluster.chip_at(1, Coord{{0, 0, 0}}), ChipState::kFailed);
  r = alloc.fragmentation();
  EXPECT_EQ(r.racks[1].free_chips, 63);
  EXPECT_EQ(r.racks[1].largest_volume, 48);
  EXPECT_EQ(r.total_free, 16 + 63);
  EXPECT_EQ(r.placeable_sum, 16 + 48);
  EXPECT_GT(r.stranding(), 0.0);
  EXPECT_DOUBLE_EQ(r.stranding(), 1.0 - (16.0 + 48.0) / (16.0 + 63.0));
  std::int32_t free_sum = 0;
  for (RackId rack = 0; rack < config.racks; ++rack) free_sum += alloc.free_in_rack(rack);
  EXPECT_EQ(free_sum, r.total_free);
}

// allocate()'s documented total order is a pure function of the chip-state
// multiset: two allocators whose racks hold identical free/allocated/failed
// sets place the next slice identically, regardless of the alloc/release
// history that produced those sets.
TEST(Allocator, PlacementIsInvariantToAllocationHistory) {
  ClusterConfig config;
  config.racks = 3;

  // History A: place in racks 0 and 1, then release the rack-1 slice.
  TpuCluster ca{config};
  SliceAllocator a{ca};
  ASSERT_TRUE(a.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 2}}).ok());
  const auto tmp_a = a.allocate_at(1, Coord{{0, 0, 0}}, Shape{{2, 2, 2}});
  ASSERT_TRUE(tmp_a.ok());
  a.release(tmp_a.value());

  // History B: same final state via the opposite order (and an extra
  // alloc/release pair in rack 2).
  TpuCluster cb{config};
  SliceAllocator b{cb};
  const auto tmp_b = b.allocate_at(1, Coord{{0, 0, 0}}, Shape{{2, 2, 2}});
  ASSERT_TRUE(tmp_b.ok());
  const auto tmp_b2 = b.allocate_at(2, Coord{{1, 1, 1}}, Shape{{2, 2, 1}});
  ASSERT_TRUE(tmp_b2.ok());
  ASSERT_TRUE(b.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 2}}).ok());
  b.release(tmp_b.value());
  b.release(tmp_b2.value());

  for (TpuId chip = 0; chip < ca.chip_count(); ++chip) {
    ASSERT_EQ(ca.state(chip), cb.state(chip)) << "histories diverged at " << chip;
  }

  // The next placements must now coincide exactly, shape by shape.
  for (const Shape shape :
       {Shape{{4, 4, 1}}, Shape{{2, 2, 2}}, Shape{{4, 2, 1}}, Shape{{1, 1, 1}}}) {
    const auto ia = a.allocate(shape);
    const auto ib = b.allocate(shape);
    ASSERT_EQ(ia.ok(), ib.ok());
    if (!ia.ok()) continue;
    const Slice* sa = a.slice(ia.value());
    const Slice* sb = b.slice(ib.value());
    EXPECT_EQ(sa->rack, sb->rack) << shape.extent[0];
    EXPECT_EQ(sa->offset, sb->offset);
    EXPECT_EQ(sa->shape, sb->shape);
  }
}

// Out-of-range racks used to index past the chip table, and extents below
// 1 used to "place" an empty slice; every entry point now refuses both, and
// largest_placeable() reports nothing placeable in a rack that is not there.
TEST(Allocator, RejectsOutOfRangeRackAndEmptyShapes) {
  ClusterConfig config;
  config.racks = 2;
  TpuCluster cluster{config};
  SliceAllocator alloc{cluster};
  const Coord origin{{0, 0, 0}};
  const Shape tray{{2, 2, 1}};
  for (const RackId rack : {-1, 2, 1000}) {
    EXPECT_FALSE(alloc.allocate_at(rack, origin, tray).ok()) << rack;
    EXPECT_FALSE(alloc.allocate_in_rack(rack, tray).ok()) << rack;
    EXPECT_EQ(alloc.largest_placeable(rack), (Shape{{0, 0, 0}})) << rack;
  }
  for (const Shape shape : {Shape{{0, 4, 4}}, Shape{{-2, -2, 4}}, Shape{{4, 4, 0}},
                            Shape{{1, -1, 1}}}) {
    EXPECT_FALSE(alloc.allocate_at(0, origin, shape).ok()) << shape.extent[0];
    EXPECT_FALSE(alloc.allocate_in_rack(0, shape).ok()) << shape.extent[0];
    EXPECT_FALSE(alloc.allocate(shape).ok()) << shape.extent[0];
  }
  EXPECT_TRUE(alloc.active_slices().empty());
  EXPECT_EQ(cluster.free_count(), cluster.chip_count());
  // Valid requests still work at both ends of the rack range.
  EXPECT_TRUE(alloc.allocate_at(1, origin, tray).ok());
  EXPECT_TRUE(alloc.allocate_in_rack(0, tray).ok());
}

// allocate() and largest_placeable() against an exhaustive search written
// from their documented contracts, on random free/allocated/failed racks:
// 4x4x4 racks, unequal extents, free masks of two to four words (4x4x8,
// 4x6x8 and 4x8x8 racks: steps that cross words, and whole-word steps) and
// two words of rack ids (70 racks).  Each trial then frees a chip behind the
// allocator's back and re-probes a shape that just failed: allocate()'s
// failure memo must notice a free it did not cause.
TEST(Allocator, SearchMatchesBruteForce) {
  struct Placement {
    RackId rack;
    Coord offset;
  };
  const auto fits = [](const TpuCluster& c, RackId rack, Coord o, Shape s) {
    for (std::int32_t x = 0; x < s[0]; ++x) {
      for (std::int32_t y = 0; y < s[1]; ++y) {
        for (std::int32_t z = 0; z < s[2]; ++z) {
          const Coord at{{o[0] + x, o[1] + y, o[2] + z}};
          if (c.state(c.chip_at(rack, at)) != ChipState::kFree) return false;
        }
      }
    }
    return true;
  };
  // Every offset of `s` inside the rack, row-major (x outermost).
  const auto offsets = [](Shape rs, Shape s) {
    std::vector<Coord> out;
    for (std::int32_t x = 0; x + s[0] <= rs[0]; ++x) {
      for (std::int32_t y = 0; y + s[1] <= rs[1]; ++y) {
        for (std::int32_t z = 0; z + s[2] <= rs[2]; ++z) out.push_back(Coord{{x, y, z}});
      }
    }
    return out;
  };
  const auto free_chips = [](const TpuCluster& c, RackId rack) {
    std::int32_t n = 0;
    for (std::int32_t i = 0; i < c.chips_per_rack(); ++i) {
      n += c.state(rack * c.chips_per_rack() + i) == ChipState::kFree ? 1 : 0;
    }
    return n;
  };
  // Racks by (free ascending, id ascending), then offsets row-major.
  const auto brute_allocate = [&](const TpuCluster& c,
                                  Shape s) -> std::optional<Placement> {
    std::vector<std::pair<std::int32_t, RackId>> racks;
    for (RackId r = 0; r < c.rack_count(); ++r) racks.emplace_back(free_chips(c, r), r);
    std::sort(racks.begin(), racks.end());
    for (const auto& [free, rack] : racks) {
      for (const Coord o : offsets(c.config().rack_shape, s)) {
        if (fits(c, rack, o, s)) return Placement{rack, o};
      }
    }
    return std::nullopt;
  };
  // Largest volume, then lexicographically smallest extents.
  const auto brute_largest = [&](const TpuCluster& c, RackId rack) {
    const Shape rs = c.config().rack_shape;
    Shape best{{0, 0, 0}};
    for (std::int32_t sx = 1; sx <= rs[0]; ++sx) {
      for (std::int32_t sy = 1; sy <= rs[1]; ++sy) {
        for (std::int32_t sz = 1; sz <= rs[2]; ++sz) {
          const Shape s{{sx, sy, sz}};
          if (s.size() <= best.size()) continue;  // lexicographic order: first wins
          for (const Coord o : offsets(rs, s)) {
            if (fits(c, rack, o, s)) {
              best = s;
              break;
            }
          }
        }
      }
    }
    return best;
  };

  // The busy chip of the first box (by rack id, then row-major offset) that
  // has exactly one busy chip; freeing it makes `s` placeable.
  const auto sole_blocker = [&](const TpuCluster& c, Shape s) -> std::optional<TpuId> {
    for (RackId r = 0; r < c.rack_count(); ++r) {
      for (const Coord o : offsets(c.config().rack_shape, s)) {
        std::vector<TpuId> busy;
        for (std::int32_t x = 0; x < s[0]; ++x) {
          for (std::int32_t y = 0; y < s[1]; ++y) {
            for (std::int32_t z = 0; z < s[2]; ++z) {
              const TpuId chip = c.chip_at(r, Coord{{o[0] + x, o[1] + y, o[2] + z}});
              if (c.state(chip) != ChipState::kFree) busy.push_back(chip);
            }
          }
        }
        if (busy.size() == 1) return busy.front();
      }
    }
    return std::nullopt;
  };
  const auto fits_rack = [](Shape rs, Shape s) {
    return s[0] <= rs[0] && s[1] <= rs[1] && s[2] <= rs[2];
  };

  const std::vector<Shape> probes{Shape{{2, 2, 1}}, Shape{{4, 2, 1}}, Shape{{2, 4, 1}},
                                  Shape{{1, 1, 1}}, Shape{{4, 4, 1}}, Shape{{2, 2, 2}},
                                  Shape{{1, 3, 2}}, Shape{{4, 4, 4}}, Shape{{2, 1, 8}}};
  Rng rng{0xb207e};
  std::size_t placed = 0;
  std::size_t reprobed = 0;
  std::size_t reopened = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ClusterConfig config;
    config.racks = 4;
    if (trial % 4 == 3) config.rack_shape = Shape{{3, 2, 4}};  // unequal extents
    if (trial >= 240 && trial % 4 == 0) config.rack_shape = Shape{{4, 4, 8}};
    if (trial >= 240 && trial % 4 == 1) config.racks = 70;
    if (trial >= 240 && trial % 4 == 2) config.rack_shape = Shape{{4, 6, 8}};
    if (trial >= 240 && trial % 4 == 3) config.rack_shape = Shape{{4, 8, 8}};
    TpuCluster cluster{config};
    SliceAllocator alloc{cluster};
    // Per-rack free fractions from nearly empty to nearly full.
    for (RackId r = 0; r < cluster.rack_count(); ++r) {
      const double p_free = rng.uniform(0.2, 1.0);
      for (std::int32_t i = 0; i < cluster.chips_per_rack(); ++i) {
        if (rng.bernoulli(p_free)) continue;
        cluster.set_state(r * cluster.chips_per_rack() + i,
                          rng.bernoulli(0.5) ? ChipState::kAllocated : ChipState::kFailed);
      }
    }
    for (RackId r = 0; r < cluster.rack_count(); ++r) {
      ASSERT_EQ(alloc.largest_placeable(r), brute_largest(cluster, r))
          << "trial " << trial << " rack " << r;
    }
    for (const Shape& s : probes) {
      const std::optional<Placement> want = brute_allocate(cluster, s);
      const auto got = alloc.allocate(s);
      ASSERT_EQ(got.ok(), want.has_value()) << "trial " << trial << " shape " << s.extent[0]
                                            << "x" << s.extent[1] << "x" << s.extent[2];
      if (!got.ok()) continue;
      ++placed;
      const Slice* slice = alloc.slice(got.value());
      EXPECT_EQ(slice->rack, want->rack) << "trial " << trial;
      EXPECT_EQ(slice->offset, want->offset) << "trial " << trial;
      alloc.release(got.value());
    }
    // The first probe that fails now: fail it twice (the second answer comes
    // from the memo), free its sole blocker (else the lowest busy chip)
    // straight through set_state, and re-probe.
    for (const Shape& s : probes) {
      if (!fits_rack(config.rack_shape, s) || brute_allocate(cluster, s)) continue;
      ASSERT_FALSE(alloc.allocate(s).ok()) << "trial " << trial;
      ASSERT_FALSE(alloc.allocate(s).ok()) << "trial " << trial;
      TpuId chip = sole_blocker(cluster, s).value_or(-1);
      for (TpuId c = 0; chip < 0; ++c) {
        if (cluster.state(c) != ChipState::kFree) chip = c;
      }
      cluster.set_state(chip, ChipState::kFree);
      ++reprobed;
      const std::optional<Placement> want = brute_allocate(cluster, s);
      const auto got = alloc.allocate(s);
      ASSERT_EQ(got.ok(), want.has_value()) << "trial " << trial << " re-probe";
      if (got.ok()) {
        ++reopened;
        EXPECT_EQ(alloc.slice(got.value())->rack, want->rack) << "trial " << trial;
        EXPECT_EQ(alloc.slice(got.value())->offset, want->offset) << "trial " << trial;
      }
      break;
    }
  }
  EXPECT_GT(placed, 500u);
  EXPECT_GT(reprobed, 150u);
  EXPECT_GT(reopened, 75u);
}

TEST(Figure5, PackingMatchesPaper) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  const auto packing = pack_figure5(alloc);
  ASSERT_TRUE(packing.ok()) << packing.error().message;
  const auto& p = packing.value();
  EXPECT_EQ(alloc.slice(p.slice1)->shape, (Shape{{4, 2, 1}}));
  EXPECT_EQ(alloc.slice(p.slice2)->shape, (Shape{{4, 2, 1}}));
  EXPECT_EQ(alloc.slice(p.slice3)->shape, (Shape{{4, 4, 1}}));
  EXPECT_EQ(alloc.slice(p.slice4)->shape, (Shape{{4, 4, 2}}));
  // The rack is exactly full.
  EXPECT_EQ(cluster.chips_in_state(ChipState::kAllocated).size(), 64u);
  EXPECT_TRUE(cluster.free_chips_in_rack(0).empty());
}

}  // namespace
}  // namespace lp::topo
