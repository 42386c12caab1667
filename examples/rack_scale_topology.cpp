// Rack-scale topology engineering: join TPU cubes through OCSes into a
// larger torus, then compare collective performance of a multi-rack slice
// on the electrical fabric vs server-scale photonics.
//
//   $ ./build/examples/rack_scale_topology
#include <cstdio>

#include "collective/cost_model.hpp"
#include "collective/schedule.hpp"
#include "sim/flow_sim.hpp"
#include "topo/multirack.hpp"
#include "topo/slice.hpp"

int main() {
  using namespace lp;

  // Join two 4x4x4 cubes along Z (Figure 5a's "larger tori").
  topo::OcsBank bank;
  auto joined = topo::JoinedTorus::join(topo::ClusterConfig{}, /*racks=*/2,
                                        /*dim=*/2, bank);
  if (!joined) {
    std::printf("join failed: %s\n", joined.error().message.c_str());
    return 1;
  }
  auto& torus = joined.value();
  std::printf("joined 2 racks into a %dx%dx%d torus (%d chips)\n",
              torus.cluster().config().rack_shape[0],
              torus.cluster().config().rack_shape[1],
              torus.cluster().config().rack_shape[2], torus.cluster().chips_per_rack());
  std::printf("OCS: %u port pairs, %.0f ms to re-mirror (vs 3.7 us per MZI batch)\n\n",
              torus.ocs_ports_used(), torus.join_latency().to_millis());

  // A tenant takes half the joined torus: 4x4x4 worth of chips shaped
  // 4x2x8 — full X and Z, half Y.
  topo::SliceAllocator alloc{torus.cluster()};
  const auto id = alloc.allocate_at(0, topo::Coord{{0, 0, 0}}, topo::Shape{{4, 2, 8}});
  if (!id) {
    std::printf("allocation failed: %s\n", id.error().message.c_str());
    return 1;
  }
  const topo::Slice* slice = alloc.slice(id.value());
  const auto usable = coll::usable_dims(*slice, torus.cluster().config().rack_shape);
  std::printf("slice 4x2x8 (64 chips): %zu of 3 dims ring-usable electrically\n",
              usable.size());

  const auto plan = coll::build_plan(*slice, torus.cluster().config().rack_shape);
  coll::CostParams params;
  const DataSize n = DataSize::gib(1);
  const sim::FlowSimulator fsim{torus.cluster().dim_bandwidth()};

  const auto elec = fsim.run(coll::build_all_reduce_schedule(
      torus.cluster(), *slice, n, coll::Interconnect::kElectrical, params));
  const auto opt = fsim.run(coll::build_all_reduce_schedule(
      torus.cluster(), *slice, n, coll::Interconnect::kOptical, params));
  std::printf("\nAllReduce of 1 GiB over the multi-rack slice:\n");
  std::printf("  electrical torus:     %.2f ms\n", elec.total.to_millis());
  std::printf("  photonic redirection: %.2f ms (%.2fx, %zu plan stages)\n",
              opt.total.to_millis(), elec.total / opt.total, plan.stages.size());

  // Broadcast the updated weights back out, pipelined.
  const auto bcast = fsim.run(coll::build_broadcast_schedule(
      torus.cluster(), *slice, n, /*chunks=*/32, coll::Interconnect::kOptical, params));
  std::printf("  pipelined optical broadcast of 1 GiB: %.2f ms\n",
              bcast.total.to_millis());
  return 0;
}
