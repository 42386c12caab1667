// Capacity-aware waveguide routing on one wafer.
//
// Fabric::connect uses fixed XY routing; this router searches for *any*
// path with enough free lanes, preferring short paths with few turns
// (every turn adds an MZI traversal and a crossing to the loss budget).
// It is the building block for the multi-demand planner and the repair
// planner, and the subject of the §5 "exploding paths" scalability bench.
#pragma once

#include <optional>
#include <vector>

#include "lightpath/wafer.hpp"

namespace lp::routing {

struct RouteOptions {
  /// Lanes the circuit needs on every edge.
  std::uint32_t lanes{1};
  /// Extra cost per turn, in hop units (0 = pure shortest path).
  double turn_penalty{0.25};
};

/// Minimum-cost path over (tile, incoming-direction) states, using only
/// edges with at least `options.lanes` free lanes.  A step costs 1, plus
/// `turn_penalty` when it changes direction.  Returns the hop sequence from
/// `from` to `to`, or nullopt when no feasible path exists.
///
/// The search is A* with the bound "Manhattan distance + turn_penalty if at
/// least one more turn is needed" (the tile is off `to`'s row and column, or
/// on it but not heading at `to`).  It holds on an empty wafer, and occupied
/// lanes only remove edges, so the bound never overestimates and is
/// consistent.  The search keeps popping until the smallest key
/// exceeds the best cost at `to`, which settles every state on every
/// minimum-cost path.
///
/// Tie-break contract: among equal-cost paths the route ends in the lowest
/// incoming direction at `to` (Direction order N, E, S, W), and walking back
/// each step takes the lowest-incoming-direction predecessor that lies on a
/// minimum-cost path.  The route is therefore a pure function of (lane
/// ledger, from, to, options), independent of heap pop order and portable
/// across standard libraries.  Thread-safe: search buffers are per thread.
[[nodiscard]] std::optional<std::vector<fabric::Direction>> find_route(
    const fabric::Wafer& wafer, fabric::TileId from, fabric::TileId to,
    const RouteOptions& options = {});

}  // namespace lp::routing
