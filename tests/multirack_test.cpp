// Tests of the OCS layer and multi-rack joined tori (Figure 5a / 6b
// substrate).
#include <gtest/gtest.h>

#include "collective/congestion.hpp"
#include "collective/cost_model.hpp"
#include "topo/multirack.hpp"
#include "topo/ocs.hpp"
#include "topo/slice.hpp"

namespace lp::topo {
namespace {

bool core_attempt(TpuCluster& cluster, const SliceAllocator& alloc, TpuId failed);

TEST(Ocs, PortAccounting) {
  OcsBank bank{OcsParams{}, 2};
  EXPECT_EQ(bank.total_ports(), 272u);
  EXPECT_TRUE(bank.reserve(100));
  EXPECT_EQ(bank.ports_free(), 172u);
  EXPECT_FALSE(bank.reserve(200));
  EXPECT_EQ(bank.ports_used(), 100u) << "failed reserve must not consume";
  bank.release(50);
  EXPECT_EQ(bank.ports_used(), 50u);
  bank.release(1000);  // clamps
  EXPECT_EQ(bank.ports_used(), 0u);
}

TEST(Ocs, ReconfigurationLatencyIsMilliseconds) {
  OcsBank bank;
  const Duration d = bank.reconfigure();
  EXPECT_GT(d.to_millis(), 1.0) << "MEMS OCS reconfig is ms-scale, vs 3.7 us MZIs";
  EXPECT_EQ(bank.reconfigurations(), 1u);
}

TEST(JoinedTorus, JoinsTwoRacksAlongZ) {
  OcsBank bank;
  const auto joined = JoinedTorus::join(ClusterConfig{}, 2, 2, bank);
  ASSERT_TRUE(joined.ok()) << joined.error().message;
  const auto& j = joined.value();
  EXPECT_EQ(j.cluster().config().rack_shape, (Shape{{4, 4, 8}}));
  EXPECT_EQ(j.cluster().chips_per_rack(), 128);
  EXPECT_EQ(j.racks_joined(), 2);
  // 16 face links per seam x 2 seams.
  EXPECT_EQ(j.ocs_ports_used(), 32u);
  EXPECT_EQ(bank.ports_used(), 32u);
  EXPECT_GT(j.join_latency().to_millis(), 1.0);
}

TEST(JoinedTorus, RejectsBadArguments) {
  OcsBank bank;
  EXPECT_FALSE(JoinedTorus::join(ClusterConfig{}, 1, 2, bank).ok());
  EXPECT_FALSE(JoinedTorus::join(ClusterConfig{}, 2, 5, bank).ok());
}

TEST(JoinedTorus, FailsWhenOcsExhausted) {
  OcsBank bank{OcsParams{}, 0};  // zero switches, zero ports
  EXPECT_FALSE(JoinedTorus::join(ClusterConfig{}, 2, 2, bank).ok());
}

TEST(JoinedTorus, PhysicalRackMapping) {
  OcsBank bank;
  const auto j = JoinedTorus::join(ClusterConfig{}, 4, 2, bank);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().physical_rack(Coord{{0, 0, 0}}), 0);
  EXPECT_EQ(j.value().physical_rack(Coord{{0, 0, 3}}), 0);
  EXPECT_EQ(j.value().physical_rack(Coord{{0, 0, 4}}), 1);
  EXPECT_EQ(j.value().physical_rack(Coord{{0, 0, 15}}), 3);
}

TEST(JoinedTorus, OcsLinkDetection) {
  OcsBank bank;
  const auto joined = JoinedTorus::join(ClusterConfig{}, 2, 2, bank);
  ASSERT_TRUE(joined.ok());
  const auto& j = joined.value();
  const auto& cluster = j.cluster();
  // z=3 -> z=4 crosses the rack seam.
  const TpuId seam = cluster.chip_at(0, Coord{{0, 0, 3}});
  EXPECT_TRUE(j.is_ocs_link(DirectedLink{seam, 2, +1}));
  // z=1 -> z=2 stays within rack 0.
  const TpuId inner = cluster.chip_at(0, Coord{{0, 0, 1}});
  EXPECT_FALSE(j.is_ocs_link(DirectedLink{inner, 2, +1}));
  // Joined wraparound z=7 -> z=0 crosses via OCS.
  const TpuId wrap = cluster.chip_at(0, Coord{{0, 0, 7}});
  EXPECT_TRUE(j.is_ocs_link(DirectedLink{wrap, 2, +1}));
  // Perpendicular wraparound (x face) is still OCS-realized.
  const TpuId xface = cluster.chip_at(0, Coord{{3, 0, 0}});
  EXPECT_TRUE(j.is_ocs_link(DirectedLink{xface, 0, +1}));
  // Perpendicular interior link is electrical.
  const TpuId xinner = cluster.chip_at(0, Coord{{1, 0, 0}});
  EXPECT_FALSE(j.is_ocs_link(DirectedLink{xinner, 0, +1}));
}

TEST(JoinedTorus, SlicesAndRingsWorkOnJoinedShape) {
  // A 4x4x8 slice spanning both racks runs all three dimensions — the
  // payoff of joining cubes into larger tori.
  OcsBank bank;
  auto joined = JoinedTorus::join(ClusterConfig{}, 2, 2, bank);
  ASSERT_TRUE(joined.ok());
  auto& cluster = joined.value().cluster();
  SliceAllocator alloc{cluster};
  const auto id = alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 8}});
  ASSERT_TRUE(id.ok());
  const auto usable = coll::usable_dims(*alloc.slice(id.value()),
                                        cluster.config().rack_shape);
  EXPECT_EQ(usable.size(), 3u) << "multi-rack slice uses every dimension";
  const auto analysis =
      coll::analyze_rack(cluster, alloc, 0, coll::RingSelection::kAllActive);
  EXPECT_TRUE(analysis.congestion_free);
}

TEST(JoinedTorus, Figure6bCrossRackRepairCongests) {
  // Figure 6b: Slice-2 (8 chips) in rack 1's z-layers; rack 1 otherwise
  // full; rack 2 holds Slice-1 (2x4x4) plus other tenants, with 4 free
  // chips.  The failed chip's repair must reach rack 2 through the joined
  // Z dimension, but every candidate path transits allocated chips or
  // busy ring links -> infeasible, as the paper argues.
  OcsBank bank;
  auto joined = JoinedTorus::join(ClusterConfig{}, 2, 2, bank);
  ASSERT_TRUE(joined.ok());
  auto& cluster = joined.value().cluster();
  SliceAllocator alloc{cluster};

  // Rack 1 (z 0..3): Slice-2 = 2x4x1 at z=0; the rest of rack 1 allocated.
  const auto slice2 = alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{2, 4, 1}});
  ASSERT_TRUE(slice2.ok());
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{2, 0, 0}}, Shape{{2, 4, 1}}).ok());
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 1}}, Shape{{4, 4, 3}}).ok());
  // Rack 2 (z 4..7): Slice-1 = 2x4x4 at x 0..1; another tenant at x 2..3
  // except one free 2x2x1 corner.
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 4}}, Shape{{2, 4, 4}}).ok());
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{2, 0, 4}}, Shape{{2, 4, 3}}).ok());
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{2, 0, 7}}, Shape{{2, 2, 1}}).ok());
  // Free: (2..3, 2..3, 7) — four chips in rack 2.
  EXPECT_EQ(cluster.chips_in_state(ChipState::kFree).size(), 4u);

  const TpuId failed = cluster.chip_at(0, Coord{{1, 1, 0}});
  const auto attempt = core_attempt(cluster, alloc, failed);
  EXPECT_FALSE(attempt);
}

// The placement search on the joined 4x4x8 shape: its 128-chip free masks
// take two words, and a box four chips deep in x steps 32 and then 64 chips
// (a whole word) through them.
TEST(JoinedTorus, PlacementSearchSpansBothRacks) {
  OcsBank bank;
  auto joined = JoinedTorus::join(ClusterConfig{}, 2, 2, bank);
  ASSERT_TRUE(joined.ok());
  const JoinedTorus& j = joined.value();
  auto& cluster = joined.value().cluster();
  SliceAllocator alloc{cluster};

  const auto whole = alloc.allocate(Shape{{4, 4, 8}});
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(alloc.slice(whole.value())->offset, (Coord{{0, 0, 0}}));
  EXPECT_EQ(alloc.largest_placeable(0), (Shape{{0, 0, 0}}));
  alloc.release(whole.value());

  // z 0..2 taken: the first free 4x4x4 starts at z = 3 and straddles the
  // seam between the two physical racks.
  ASSERT_TRUE(alloc.allocate_at(0, Coord{{0, 0, 0}}, Shape{{4, 4, 3}}).ok());
  EXPECT_EQ(alloc.largest_placeable(0), (Shape{{4, 4, 5}}));
  const auto cube = alloc.allocate(Shape{{4, 4, 4}});
  ASSERT_TRUE(cube.ok());
  const Slice* s = alloc.slice(cube.value());
  EXPECT_EQ(s->offset, (Coord{{0, 0, 3}}));
  EXPECT_NE(j.physical_rack(Coord{{0, 0, 3}}), j.physical_rack(Coord{{0, 0, 6}}));
  // Only the z = 7 layer is left.
  EXPECT_EQ(alloc.largest_placeable(0), (Shape{{4, 4, 1}}));
  EXPECT_FALSE(alloc.allocate(Shape{{4, 4, 2}}).ok());
}

// Local helper mirroring core::attempt_electrical_repair's feasibility via
// the congestion toolkit (topo tests must not depend on lp_core).
bool core_attempt(TpuCluster& cluster, const SliceAllocator& alloc, TpuId failed) {
  const auto owner = alloc.owner(failed);
  if (!owner) return false;
  const Slice* slice = alloc.slice(*owner);
  const auto traffic =
      coll::slice_traffic(cluster, *slice, coll::RingSelection::kUsableOnly);
  std::vector<TpuId> neighbors;
  for (const auto& ring : traffic.rings) {
    for (std::size_t i = 0; i < ring.members.size(); ++i) {
      if (ring.members[i] != failed) continue;
      neighbors.push_back(ring.members[(i + 1) % ring.members.size()]);
      neighbors.push_back(
          ring.members[(i + ring.members.size() - 1) % ring.members.size()]);
    }
  }
  const auto analysis =
      coll::analyze_rack(cluster, alloc, 0, coll::RingSelection::kUsableOnly);
  coll::LinkLoad busy{cluster.directed_link_count()};
  for (const auto& st : analysis.per_slice) busy.add_all(st.links);
  for (TpuId spare : cluster.chips_in_state(ChipState::kFree)) {
    bool all_ok = !neighbors.empty();
    for (TpuId n : neighbors) {
      if (!coll::find_uncongested_path(cluster, alloc, busy, n, spare)) {
        all_ok = false;
        break;
      }
    }
    if (all_ok) return true;
  }
  return false;
}

}  // namespace
}  // namespace lp::topo
