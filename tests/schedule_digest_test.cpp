// Bit-exact pins of every schedule builder's output.
//
// The other schedule tests check phase counts and byte totals, which a
// reordered transfer or a last-bit byte change passes.  Each test here
// folds whole schedules: the phase count, every pre-delay's bits, and
// every transfer's endpoints, byte bits, rate bits and route links, in
// order.  A refactor of the slice-level or member-list builders must leave
// the pinned values unchanged; a deliberate output change records new
// ones and says why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "collective/alltoall.hpp"
#include "collective/autotuner.hpp"
#include "collective/schedule.hpp"
#include "lightpath/types.hpp"
#include "topo/slice.hpp"
#include "util/rng.hpp"

namespace lp::coll {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Running fold of schedules; `count` is how many went in.
struct Digest {
  std::uint64_t h{0};
  std::size_t count{0};
  std::size_t transfers{0};

  void mix(std::uint64_t v) { h = fabric::splitmix64(h ^ v); }

  void add(const Schedule& s) {
    ++count;
    mix(s.phases.size());
    for (const Phase& phase : s.phases) {
      mix(bits(phase.pre_delay.to_seconds()));
      mix(phase.transfers.size());
      for (const Transfer& t : phase.transfers) {
        ++transfers;
        mix(static_cast<std::uint32_t>(t.src));
        mix(static_cast<std::uint32_t>(t.dst));
        mix(bits(t.bytes.to_bytes()));
        mix(bits(t.dedicated_rate.to_bps()));
        mix(t.route.size());
        for (const topo::DirectedLink& l : t.route) mix(topo::link_key(l));
      }
    }
  }
};

/// In-rack slices on the default 4x4x4 pod and on two 4x4x8 racks: every
/// listed shape at the rack origin (rack 0) and pushed against the far
/// corner (last rack), so offsets and rack bases both reach the builders.
struct SliceSet {
  topo::TpuCluster cluster;
  std::vector<topo::Slice> slices;

  SliceSet(topo::ClusterConfig config, const std::vector<std::int32_t>& xs,
           const std::vector<std::int32_t>& ys, const std::vector<std::int32_t>& zs)
      : cluster{config} {
    const topo::Shape& rs = config.rack_shape;
    for (const std::int32_t x : xs) {
      for (const std::int32_t y : ys) {
        for (const std::int32_t z : zs) {
          const topo::Shape shape{{x, y, z}};
          slices.push_back(topo::Slice{0, 0, topo::Coord{{0, 0, 0}}, shape});
          const topo::Coord far{{rs[0] - x, rs[1] - y, rs[2] - z}};
          slices.push_back(topo::Slice{1, config.racks - 1, far, shape});
        }
      }
    }
  }
};

std::vector<SliceSet> slice_sets() {
  std::vector<SliceSet> sets;
  sets.emplace_back(topo::ClusterConfig{}, std::vector<std::int32_t>{1, 2, 3, 4},
                    std::vector<std::int32_t>{1, 2, 3, 4},
                    std::vector<std::int32_t>{1, 2, 3, 4});
  topo::ClusterConfig tall;
  tall.racks = 2;
  tall.rack_shape = topo::Shape{{4, 4, 8}};
  sets.emplace_back(tall, std::vector<std::int32_t>{1, 2, 4},
                    std::vector<std::int32_t>{1, 3, 4},
                    std::vector<std::int32_t>{1, 2, 5, 8});
  return sets;
}

const DataSize kSizes[] = {DataSize::kib(1.0), DataSize::mib(64.0), DataSize::gib(1.0)};
const Interconnect kInterconnects[] = {Interconnect::kElectrical, Interconnect::kOptical};

TEST(ScheduleDigests, SliceRingCollectives) {
  const CostParams params;
  Digest d;
  for (const SliceSet& set : slice_sets()) {
    for (const topo::Slice& slice : set.slices) {
      for (const DataSize n : kSizes) {
        for (const Interconnect ic : kInterconnects) {
          for (const RedirectStrategy strategy :
               {RedirectStrategy::kStaticSplit, RedirectStrategy::kPerStageFull}) {
            d.add(build_reduce_scatter_schedule(set.cluster, slice, n, ic, params,
                                                strategy));
            d.add(build_all_gather_schedule(set.cluster, slice, n, ic, params, strategy));
            d.add(build_all_reduce_schedule(set.cluster, slice, n, ic, params, strategy));
          }
        }
      }
    }
  }
  EXPECT_EQ(d.count, 7200u);
  EXPECT_EQ(d.transfers, 3257472u);
  EXPECT_EQ(d.h, 5100943723875482525ULL);
}

TEST(ScheduleDigests, SliceBroadcast) {
  const CostParams params;
  Digest d;
  for (const SliceSet& set : slice_sets()) {
    for (const topo::Slice& slice : set.slices) {
      for (const DataSize n : kSizes) {
        for (const Interconnect ic : kInterconnects) {
          for (const unsigned chunks : {0u, 1u, 4u, 16u, 32u}) {
            d.add(build_broadcast_schedule(set.cluster, slice, n, chunks, ic, params));
          }
        }
      }
    }
  }
  EXPECT_EQ(d.count, 6000u);
  EXPECT_EQ(d.transfers, 1142256u);
  EXPECT_EQ(d.h, 13179203135822930173ULL);
}

TEST(ScheduleDigests, SliceAllToAll) {
  const CostParams params;
  Digest d;
  for (const SliceSet& set : slice_sets()) {
    for (const topo::Slice& slice : set.slices) {
      const auto p = static_cast<std::size_t>(slice.chip_count());
      for (const DataSize n : kSizes) {
        Rng rng{0xa11 + p};
        const DemandMatrix demands[] = {
            uniform_all_to_all(p, n),
            moe_gating_demand(p, 8, 2, n / 64.0, rng),
            uniform_all_to_all(p + 1, n),  // wrong size: no schedule
        };
        for (const Interconnect ic : kInterconnects) {
          for (const DemandMatrix& demand : demands) {
            d.add(build_all_to_all_schedule(set.cluster, slice, demand, ic, params));
          }
        }
      }
    }
  }
  EXPECT_EQ(d.count, 3600u);
  EXPECT_EQ(d.transfers, 1173888u);
  EXPECT_EQ(d.h, 17149752247942409069ULL);
}

TEST(ScheduleDigests, AutotunerBuildCandidates) {
  const Autotuner tuner;
  const Bandwidth rate = Bandwidth::gbps(224.0);
  Digest d;
  for (std::size_t m = 0; m <= 40; ++m) {
    // Non-contiguous, descending ids: builders index the member list.
    std::vector<topo::TpuId> members;
    for (std::size_t i = 0; i < m; ++i) {
      members.push_back(static_cast<topo::TpuId>(4000 - 7 * i));
    }
    for (const DataSize n : {DataSize::zero(), DataSize::kib(3.0), DataSize::mib(64.0)}) {
      for (const Duration r : {Duration::zero(), Duration::micros(3.7)}) {
        for (const CollOp op : {CollOp::kReduceScatter, CollOp::kAllGather,
                                CollOp::kAllReduce, CollOp::kBroadcast,
                                CollOp::kAllToAll, CollOp::kTransfer}) {
          for (const Algorithm algo : Autotuner::candidates(op)) {
            d.add(tuner.build(op, algo, members, n, rate, r));
          }
        }
      }
    }
  }
  EXPECT_EQ(d.count, 3198u);
  EXPECT_EQ(d.transfers, 926802u);
  EXPECT_EQ(d.h, 17371763547980838433ULL);
}

}  // namespace
}  // namespace lp::coll
