#include "collective/schedule.hpp"

#include <algorithm>

#include "collective/lowering.hpp"

namespace lp::coll {

DataSize Schedule::total_bytes() const {
  DataSize total = DataSize::zero();
  for (const auto& p : phases) {
    for (const auto& t : p.transfers) total += t.bytes;
  }
  return total;
}

namespace {

/// The directed links of one cycle edge of a realized ring.  The realized
/// link list is ordered edge-by-edge, so recover edge boundaries by walking.
std::vector<std::vector<topo::DirectedLink>> edge_routes(const topo::TpuCluster& cluster,
                                                         const RingRealization& ring) {
  std::vector<std::vector<topo::DirectedLink>> routes(ring.members.size());
  std::size_t li = 0;
  for (std::size_t e = 0; e < ring.members.size(); ++e) {
    const topo::TpuId target = ring.members[(e + 1) % ring.members.size()];
    topo::TpuId at = ring.members[e];
    while (at != target && li < ring.links.size()) {
      routes[e].push_back(ring.links[li]);
      at = cluster.link_target(ring.links[li]);
      ++li;
    }
  }
  return routes;
}

/// One plan stage: ring_size - 1 phases in which every edge of every ring
/// sends `per_step`.  Electrical transfers follow their edge's links, found
/// once per ring; optical ones ride a dedicated circuit at `rate`, and
/// `reconfig` precedes the stage's first phase.
void append_stage(Schedule& schedule, const topo::TpuCluster& cluster,
                  const std::vector<RingRealization>& rings, DataSize per_step,
                  Interconnect interconnect, Bandwidth rate, Duration reconfig) {
  std::vector<std::vector<std::vector<topo::DirectedLink>>> routes;
  if (interconnect == Interconnect::kElectrical) {
    for (const RingRealization& ring : rings) routes.push_back(edge_routes(cluster, ring));
  }
  const std::size_t steps = rings.empty() ? 0 : rings.front().members.size() - 1;
  for (std::size_t step = 0; step < steps; ++step) {
    Phase phase;
    if (step == 0) phase.pre_delay = reconfig;
    for (std::size_t r = 0; r < rings.size(); ++r) {
      const std::vector<topo::TpuId>& members = rings[r].members;
      for (std::size_t e = 0; e < members.size(); ++e) {
        Transfer t;
        t.src = members[e];
        t.dst = members[(e + 1) % members.size()];
        t.bytes = per_step;
        t.dedicated_rate = rate;
        if (!routes.empty()) t.route = routes[r][e];
        phase.transfers.push_back(std::move(t));
      }
    }
    schedule.phases.push_back(std::move(phase));
  }
}

/// Appends the slice plan's stages, first to last for a ReduceScatter or
/// last to first for an AllGather.  Optical stages ride the redirected
/// per-stage bandwidth and, if `reconfigure`, pay r on their first phase.
void append_stages(Schedule& schedule, const topo::TpuCluster& cluster,
                   const topo::Slice& slice, DataSize n, Interconnect interconnect,
                   const CostParams& params, RedirectStrategy strategy, bool gather,
                   bool reconfigure) {
  if (topo::outside_rack(cluster, slice)) return;
  const CollectivePlan plan = build_plan(slice, cluster.config().rack_shape);
  const std::size_t stages = plan.stages.size();
  Bandwidth rate = Bandwidth::zero();
  Duration reconfig = Duration::zero();
  if (interconnect == Interconnect::kOptical) {
    rate = strategy == RedirectStrategy::kPerStageFull
               ? params.chip_bandwidth
               : params.chip_bandwidth / static_cast<double>(std::max<std::size_t>(1, stages));
    if (reconfigure) reconfig = params.reconfig;
  }
  for (std::size_t i = 0; i < stages; ++i) {
    const RingStage& stage = plan.stages[gather ? stages - 1 - i : i];
    // Each chip's shard of this stage: buffer_fraction * N split over the
    // ring, sent once per step.
    const DataSize per_step =
        n * (stage.buffer_fraction / static_cast<double>(stage.ring_size));
    append_stage(schedule, cluster, realize_stage(cluster, slice, stage), per_step,
                 interconnect, rate, reconfig);
  }
}

}  // namespace

Schedule build_reduce_scatter_schedule(const topo::TpuCluster& cluster,
                                       const topo::Slice& slice, DataSize n,
                                       Interconnect interconnect,
                                       const CostParams& params,
                                       RedirectStrategy strategy) {
  Schedule schedule;
  append_stages(schedule, cluster, slice, n, interconnect, params, strategy,
                /*gather=*/false, /*reconfigure=*/true);
  return schedule;
}

Schedule build_all_gather_schedule(const topo::TpuCluster& cluster,
                                   const topo::Slice& slice, DataSize n,
                                   Interconnect interconnect, const CostParams& params,
                                   RedirectStrategy strategy) {
  Schedule schedule;
  append_stages(schedule, cluster, slice, n, interconnect, params, strategy,
                /*gather=*/true, /*reconfigure=*/true);
  return schedule;
}

Schedule build_all_reduce_schedule(const topo::TpuCluster& cluster,
                                   const topo::Slice& slice, DataSize n,
                                   Interconnect interconnect, const CostParams& params,
                                   RedirectStrategy strategy) {
  Schedule schedule;
  append_stages(schedule, cluster, slice, n, interconnect, params, strategy,
                /*gather=*/false, /*reconfigure=*/true);
  // Under the static split the circuits stay up between the two halves.
  append_stages(schedule, cluster, slice, n, interconnect, params, strategy,
                /*gather=*/true, strategy != RedirectStrategy::kStaticSplit);
  return schedule;
}

Schedule build_broadcast_schedule(const topo::TpuCluster& cluster,
                                  const topo::Slice& slice, DataSize n, unsigned chunks,
                                  Interconnect interconnect, const CostParams& params) {
  if (chunks == 0 || topo::outside_rack(cluster, slice)) return Schedule{};
  const auto dims = active_dims(slice);
  if (dims.empty()) return Schedule{};
  // A serpentine over every active dim is one ring covering the slice.
  const RingRealization ring = snake_ring(cluster, slice, dims, slice.offset);
  if (interconnect == Interconnect::kOptical) {
    // A single ring: the full chip bandwidth is redirected to it.
    return lower_schedule(CollOp::kBroadcast, Algorithm::kPipeline, ring.members,
                          params.chip_bandwidth,
                          {.n = n, .reconfig = params.reconfig, .chunks = chunks});
  }
  Schedule schedule = lower_schedule(CollOp::kBroadcast, Algorithm::kPipeline,
                                     ring.members, Bandwidth::zero(),
                                     {.n = n, .chunks = chunks});
  // Edge j carries members[j] -> members[j + 1], so its source names it.
  const auto routes = edge_routes(cluster, ring);
  for (Phase& phase : schedule.phases) {
    for (Transfer& t : phase.transfers) {
      const auto j = std::find(ring.members.begin(), ring.members.end(), t.src) -
                     ring.members.begin();
      t.route = routes[static_cast<std::size_t>(j)];
    }
  }
  return schedule;
}

}  // namespace lp::coll
