// Multi-demand circuit planning: establish a whole set of chip-to-chip
// circuits on non-overlapping waveguides.
//
// This is the centralized controller of §5 ("a centralized controller
// tracking the state of every waveguide to avoid overlaps"): it sees the
// full lane ledger and places demands one by one, longest first, using the
// capacity-aware router with fallback re-ordering.  Non-overlap is
// guaranteed by construction because every circuit reserves dedicated
// lanes.  The decentralized protocol in decentralized.hpp is the contrast.
#pragma once

#include <vector>

#include "lightpath/fabric.hpp"
#include "routing/router.hpp"
#include "util/result.hpp"

namespace lp::routing {

struct Demand {
  fabric::GlobalTile src{};
  fabric::GlobalTile dst{};
  std::uint32_t wavelengths{1};
  friend constexpr auto operator<=>(const Demand&, const Demand&) = default;
};

/// The planner's total placement order: Manhattan distance descending
/// (cross-wafer, or an endpoint off the fabric, counts as infinite), ties
/// broken by ascending (src, dst, wavelengths).  A *total* order, so the
/// resulting plan is invariant under permutation of the input demand set —
/// which also makes demand sets safely comparable for plan-cache lookups.
[[nodiscard]] std::vector<Demand> plan_order(const fabric::Fabric& fab,
                                             std::vector<Demand> demands);

struct PlacedCircuit {
  Demand demand{};
  fabric::CircuitId id{0};
};

struct PlanReport {
  std::vector<PlacedCircuit> placed;
  std::vector<Demand> failed;
  /// Total MZIs programmed across all placed circuits.
  unsigned mzis_programmed{0};
  /// Latency to program the whole batch at once (parallel settle).
  Duration reconfig_latency{Duration::zero()};

  [[nodiscard]] bool complete() const { return failed.empty(); }
};

class CircuitPlanner {
 public:
  explicit CircuitPlanner(fabric::Fabric& fab, RouteOptions options = {});

  /// Places all demands (longest Manhattan distance first).  Demands that
  /// cannot be placed are reported in `failed`; placed circuits stay
  /// established in the fabric (use release_all or Fabric::disconnect to
  /// undo).  Same-wafer demands use the capacity-aware router; cross-wafer
  /// demands fall back to Fabric::connect's fiber selection.
  [[nodiscard]] PlanReport place_all(const std::vector<Demand>& demands);

  /// place_all for demands already in plan_order (PlanCache has sorted them
  /// for its lookup, so a miss does not sort them again).
  [[nodiscard]] PlanReport place_ordered(const std::vector<Demand>& ordered);

  /// Tears down everything a report placed.
  void release_all(const PlanReport& report);

  /// Places a single demand (the primitive place_all iterates).  Fails
  /// without side effects, as Fabric::connect does, when either endpoint is
  /// off the fabric.
  Result<fabric::CircuitId> place_one(const Demand& demand);

 private:
  fabric::Fabric& fabric_;
  RouteOptions options_;
};

}  // namespace lp::routing
