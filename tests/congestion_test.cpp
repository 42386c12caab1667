// Congestion analysis tests reproducing the mechanics of Figures 5b and 6.
#include <gtest/gtest.h>

#include "collective/congestion.hpp"
#include "topo/cluster.hpp"
#include "topo/slice.hpp"

namespace lp::coll {
namespace {

using topo::ChipState;
using topo::Coord;
using topo::Shape;
using topo::Slice;
using topo::SliceAllocator;
using topo::TpuCluster;
using topo::TpuId;

TEST(LinkLoad, CountsAndQueries) {
  LinkLoad load{60};
  const topo::DirectedLink l{3, 1, +1};
  EXPECT_EQ(load.load(l), 0u);
  load.add(l);
  load.add(l);
  EXPECT_EQ(load.load(l), 2u);
  EXPECT_EQ(load.max_load(), 2u);
  EXPECT_FALSE(load.congestion_free());
  EXPECT_EQ(load.congested_link_count(), 1u);
  EXPECT_EQ(load.busy_link_count(), 1u);
}

class Figure5 : public ::testing::Test {
 protected:
  void SetUp() override {
    auto packing = topo::pack_figure5(alloc_);
    ASSERT_TRUE(packing.ok());
    packing_ = packing.value();
  }

  TpuCluster cluster_;
  SliceAllocator alloc_{cluster_};
  topo::Figure5Packing packing_{};
};

TEST_F(Figure5, UsableOnlyPolicyIsCongestionFree) {
  const auto analysis = analyze_rack(cluster_, alloc_, 0, RingSelection::kUsableOnly);
  EXPECT_TRUE(analysis.congestion_free);
  EXPECT_EQ(analysis.load.max_load(), 1u);
  EXPECT_EQ(analysis.foreign_transits, 0u);
  EXPECT_EQ(analysis.per_slice.size(), 4u);
}

TEST_F(Figure5, AllActivePolicyCongests) {
  // Naive tenants ringing every active dim: Slice-4's Z rings wrap through
  // Slice-3 and Slice-1/2's z-layers -> congestion (Figure 5b's shared-Z).
  const auto analysis = analyze_rack(cluster_, alloc_, 0, RingSelection::kAllActive);
  EXPECT_FALSE(analysis.congestion_free);
  EXPECT_GT(analysis.foreign_transits, 0u);
}

TEST_F(Figure5, Slice1YRingLeavesSlice) {
  const Slice* s1 = alloc_.slice(packing_.slice1);
  ASSERT_NE(s1, nullptr);
  const auto traffic = slice_traffic(cluster_, *s1, RingSelection::kAllActive);
  std::size_t foreign = 0;
  for (TpuId t : traffic.transit_chips) {
    if (alloc_.owner(t).has_value()) ++foreign;
  }
  EXPECT_GT(foreign, 0u) << "Y wrap of Slice-1 must cross Slice-2 chips";
}

TEST_F(Figure5, UsableOnlyTrafficStaysInsideEachSlice) {
  for (topo::SliceId id :
       {packing_.slice1, packing_.slice2, packing_.slice3, packing_.slice4}) {
    const Slice* s = alloc_.slice(id);
    ASSERT_NE(s, nullptr);
    const auto traffic = slice_traffic(cluster_, *s, RingSelection::kUsableOnly);
    EXPECT_TRUE(traffic.transit_chips.empty()) << "slice " << id;
    for (const auto& link : traffic.links) {
      EXPECT_TRUE(s->contains(cluster_.coord_of(link.chip))) << "slice " << id;
    }
  }
}

TEST(Congestion, TwoSlicesSharingPartialDimCollide) {
  TpuCluster cluster;
  SliceAllocator alloc{cluster};
  // Two 4x2x1 slices side by side in Y at z=0.
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 2, 1}}).ok());
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 2, 0}}, Shape{{4, 2, 1}}).ok());
  const auto analysis = analyze_rack(cluster, alloc, 0, RingSelection::kAllActive);
  // Each slice's Y wrap traverses the other slice's Y links.
  EXPECT_FALSE(analysis.congestion_free);
  EXPECT_GT(analysis.load.congested_link_count(), 0u);
}

class PathSearch : public ::testing::Test {
 protected:
  TpuCluster cluster_;
  SliceAllocator alloc_{cluster_};
  LinkLoad no_busy_{cluster_.directed_link_count()};
};

TEST_F(PathSearch, DirectNeighborReachable) {
  const TpuId a = cluster_.chip_at(0, Coord{{0, 0, 0}});
  const TpuId b = cluster_.chip_at(0, Coord{{1, 0, 0}});
  const auto path = find_uncongested_path(cluster_, alloc_, no_busy_, a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 2u);
}

TEST_F(PathSearch, RoutesAroundAllocatedWall) {
  // Wall off x=1 plane except it can wrap x=3->x=0.
  ASSERT_TRUE(alloc_.allocate_at(0, Coord{{1, 0, 0}}, Shape{{1, 4, 4}}).ok());
  const TpuId a = cluster_.chip_at(0, Coord{{0, 0, 0}});
  const TpuId b = cluster_.chip_at(0, Coord{{2, 0, 0}});
  const auto path = find_uncongested_path(cluster_, alloc_, no_busy_, a, b);
  ASSERT_TRUE(path.has_value());
  // Must go the wraparound way: 0 -> 3 -> 2.
  EXPECT_EQ(path->size(), 3u);
  EXPECT_EQ((*path)[1], cluster_.chip_at(0, Coord{{3, 0, 0}}));
}

TEST_F(PathSearch, FullyWalledIsImpossible) {
  // Both x=1 and x=3 planes allocated: x=0 cannot reach x=2 without transit
  // through allocated chips (the Figure 6a outcome).
  ASSERT_TRUE(alloc_.allocate_at(0, Coord{{1, 0, 0}}, Shape{{1, 4, 4}}).ok());
  ASSERT_TRUE(alloc_.allocate_at(0, Coord{{3, 0, 0}}, Shape{{1, 4, 4}}).ok());
  const TpuId a = cluster_.chip_at(0, Coord{{0, 0, 0}});
  const TpuId b = cluster_.chip_at(0, Coord{{2, 0, 0}});
  EXPECT_FALSE(find_uncongested_path(cluster_, alloc_, no_busy_, a, b).has_value());
}

TEST_F(PathSearch, BusyLinksAvoided) {
  const TpuId a = cluster_.chip_at(0, Coord{{0, 0, 0}});
  const TpuId b = cluster_.chip_at(0, Coord{{1, 0, 0}});
  LinkLoad busy{cluster_.directed_link_count()};
  busy.add(topo::DirectedLink{a, 0, +1});  // the direct hop is taken
  const auto path = find_uncongested_path(cluster_, alloc_, busy, a, b);
  ASSERT_TRUE(path.has_value());
  EXPECT_GT(path->size(), 2u) << "must detour around the busy link";
}

TEST_F(PathSearch, FailedChipsExcluded) {
  const TpuId a = cluster_.chip_at(0, Coord{{0, 0, 0}});
  const TpuId mid = cluster_.chip_at(0, Coord{{1, 0, 0}});
  const TpuId b = cluster_.chip_at(0, Coord{{2, 0, 0}});
  cluster_.set_state(mid, ChipState::kFailed);
  const auto path = find_uncongested_path(cluster_, alloc_, no_busy_, a, b);
  ASSERT_TRUE(path.has_value());
  for (TpuId t : *path) EXPECT_NE(t, mid);
}

// Regression: the repair-path BFS must stay inside the rack of `from`.  A
// spare in another rack is unreachable by construction, and every hop of a
// successful path lies in the source's rack even when the search detours.
TEST_F(PathSearch, CrossRackTargetUnreachable) {
  const TpuId a = cluster_.chip_at(0, Coord{{0, 0, 0}});
  const TpuId other = cluster_.chip_at(1, Coord{{0, 0, 0}});
  EXPECT_FALSE(find_uncongested_path(cluster_, alloc_, no_busy_, a, other).has_value());
}

TEST_F(PathSearch, PathNeverLeavesSourceRack) {
  const topo::RackId rack = 3;
  const TpuId from = cluster_.chip_at(rack, Coord{{0, 0, 0}});
  const TpuId to = cluster_.chip_at(rack, Coord{{2, 3, 1}});
  // Wall off the straight X corridor so the search has to detour.
  cluster_.set_state(cluster_.chip_at(rack, Coord{{1, 0, 0}}), ChipState::kFailed);
  const auto path = find_uncongested_path(cluster_, alloc_, no_busy_, from, to);
  ASSERT_TRUE(path.has_value());
  for (TpuId hop : *path) EXPECT_EQ(cluster_.rack_of(hop), rack);
}

}  // namespace
}  // namespace lp::coll
