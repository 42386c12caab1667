#include "routing/wdm_planner.hpp"

#include "lightpath/fabric.hpp"
#include "routing/router.hpp"

namespace lp::routing {

using fabric::Direction;
using fabric::Fabric;
using fabric::Wafer;

WdmPlanner::WdmPlanner(const Wafer& wafer, std::uint32_t channels)
    : wafer_{wafer}, ledger_{wafer, channels} {}

Result<WdmCircuit> WdmPlanner::place(const Demand& demand) {
  if (demand.src.wafer != demand.dst.wafer)
    return Err("WdmPlanner handles same-wafer demands only");

  std::vector<std::vector<Direction>> candidates;
  candidates.push_back(Fabric::xy_route(wafer_, demand.src.tile, demand.dst.tile));
  candidates.push_back(
      Fabric::xy_route(wafer_, demand.src.tile, demand.dst.tile, /*rows_first=*/true));
  if (const auto routed = find_route(wafer_, demand.src.tile, demand.dst.tile)) {
    candidates.push_back(*routed);
  }

  bool any_path = false;
  for (const auto& hops : candidates) {
    any_path = true;
    auto channels = ledger_.assign(demand.src.tile, hops, demand.wavelengths);
    if (channels) {
      ++stats_.placed;
      return WdmCircuit{demand, hops, std::move(channels).value()};
    }
  }
  if (any_path) {
    ++stats_.blocked_continuity;
    return Err("wavelength continuity blocked all candidate paths");
  }
  ++stats_.blocked_no_path;
  return Err("no candidate path");
}

void WdmPlanner::release(const WdmCircuit& circuit) {
  ledger_.release(circuit.demand.src.tile, circuit.hops, circuit.channels);
}

}  // namespace lp::routing
