#include "routing/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace lp::routing {

using fabric::Fabric;
using fabric::GlobalTile;

CircuitPlanner::CircuitPlanner(Fabric& fab, RouteOptions options)
    : fabric_{fab}, options_{options} {}

std::vector<Demand> plan_order(const Fabric& fab, std::vector<Demand> demands) {
  // Longest demands first: long circuits are the hardest to route around
  // existing reservations, so give them first pick of the lanes.  Ties are
  // broken by ascending (src, dst, wavelengths) so the order — and hence
  // the whole plan — is a pure function of the demand *set*, not of the
  // order the caller happened to supply it in.
  auto manhattan = [&](const Demand& d) {
    // An endpoint off the fabric has no distance; it sorts with the
    // cross-wafer demands, and place_one fails it.
    if (d.src.wafer != d.dst.wafer || !fab.contains(d.src) || !fab.contains(d.dst)) {
      return std::numeric_limits<std::int32_t>::max();
    }
    const auto& w = fab.wafer(d.src.wafer);
    const auto a = w.coord_of(d.src.tile);
    const auto b = w.coord_of(d.dst.tile);
    return std::abs(a.row - b.row) + std::abs(a.col - b.col);
  };
  std::vector<std::pair<std::int32_t, Demand>> keyed;
  keyed.reserve(demands.size());
  for (const Demand& d : demands) keyed.emplace_back(manhattan(d), d);
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  for (std::size_t i = 0; i < keyed.size(); ++i) demands[i] = keyed[i].second;
  return demands;
}

Result<fabric::CircuitId> CircuitPlanner::place_one(const Demand& demand) {
  if (!fabric_.contains(demand.src) || !fabric_.contains(demand.dst)) {
    return Err("wafer or tile id out of range");
  }
  if (demand.src.wafer != demand.dst.wafer) {
    return fabric_.connect(demand.src, demand.dst, demand.wavelengths);
  }
  RouteOptions opts = options_;
  opts.lanes = demand.wavelengths;
  auto hops =
      find_route(fabric_.wafer(demand.src.wafer), demand.src.tile, demand.dst.tile, opts);
  if (!hops) return Err("no feasible waveguide path");
  return fabric_.connect_via(demand.src, demand.dst, *hops, demand.wavelengths);
}

PlanReport CircuitPlanner::place_all(const std::vector<Demand>& demands) {
  return place_ordered(plan_order(fabric_, demands));
}

PlanReport CircuitPlanner::place_ordered(const std::vector<Demand>& ordered) {
  PlanReport report;
  for (const Demand& d : ordered) {
    auto placed = place_one(d);
    if (placed) {
      const fabric::Circuit* c = fabric_.circuit(placed.value());
      report.mzis_programmed += c != nullptr ? c->mzi_count : 0;
      report.placed.push_back(PlacedCircuit{d, placed.value()});
    } else {
      report.failed.push_back(d);
    }
  }
  // The whole batch settles in parallel after serial programming.
  report.reconfig_latency = fabric_.reconfig().batch_latency(report.mzis_programmed);
  return report;
}

void CircuitPlanner::release_all(const PlanReport& report) {
  for (const auto& placed : report.placed) fabric_.disconnect(placed.id);
}

}  // namespace lp::routing
