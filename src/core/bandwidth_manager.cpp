#include "core/bandwidth_manager.hpp"

#include <algorithm>
#include <string>

namespace lp::core {

BandwidthManager::BandwidthManager(PhotonicRack& rack) : rack_{rack} {}

Result<StageCircuits> BandwidthManager::provision_stage(const topo::Slice& slice,
                                                        const coll::CollectivePlan& plan,
                                                        std::size_t stage_index,
                                                        coll::RedirectStrategy strategy) {
  if (stage_index >= plan.stages.size()) return Err("stage index out of range");
  const topo::TpuCluster& cluster = rack_.cluster();

  // Wavelength budget per circuit: the tile's lasers split across the
  // stages that hold circuits concurrently (static split), or all of them
  // for the one live stage (per-stage-full).
  const std::uint32_t total_lambdas =
      rack_.fabric().config().wafer.tile.tx_wavelengths;
  const std::uint32_t divisor =
      strategy == coll::RedirectStrategy::kPerStageFull
          ? 1u
          : static_cast<std::uint32_t>(std::max<std::size_t>(1, plan.stages.size()));
  const std::uint32_t lambdas = std::max(1u, total_lambdas / divisor);

  StageCircuits stage;
  stage.wavelengths = lambdas;
  stage.edge_rate = rack_.per_wavelength_rate() * static_cast<double>(lambdas);

  const auto rings = coll::realize_stage(cluster, slice, plan.stages[stage_index]);
  const std::uint64_t mzis_before = rack_.fabric().reconfig().mzis_programmed();
  for (const auto& ring : rings) {
    for (std::size_t i = 0; i < ring.members.size(); ++i) {
      const topo::TpuId src = ring.members[i];
      const topo::TpuId dst = ring.members[(i + 1) % ring.members.size()];
      auto placed =
          rack_.fabric().connect(rack_.tile_of(src), rack_.tile_of(dst), lambdas);
      if (!placed) {
        release_stage(stage);
        return Err("ring edge " + std::to_string(src) + "->" + std::to_string(dst) +
                   ": " + placed.error().message);
      }
      stage.circuits.push_back(placed.value());
    }
  }
  const std::uint64_t mzis_after = rack_.fabric().reconfig().mzis_programmed();
  stage.reconfig_latency = rack_.fabric().reconfig().batch_latency(
      static_cast<unsigned>(mzis_after - mzis_before));
  return stage;
}

void BandwidthManager::release_stage(const StageCircuits& stage) {
  for (fabric::CircuitId id : stage.circuits) rack_.fabric().disconnect(id);
}

Result<std::vector<StageCircuits>> BandwidthManager::provision_all(
    const topo::Slice& slice, const coll::CollectivePlan& plan) {
  std::vector<StageCircuits> stages;
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    auto stage = provision_stage(slice, plan, i, coll::RedirectStrategy::kStaticSplit);
    if (!stage) {
      for (const auto& s : stages) release_stage(s);
      return Err("stage " + std::to_string(i) + ": " + stage.error().message);
    }
    stages.push_back(std::move(stage).value());
  }
  return stages;
}

}  // namespace lp::core
