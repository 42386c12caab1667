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
  /// Extra cost per turn, in hop units (0 = pure shortest path).  Must be
  /// finite and >= 0; find_route returns nullopt for any other value.
  double turn_penalty{0.25};
};

/// Minimum-cost path over (tile, incoming-direction) states, using only
/// edges with at least `options.lanes` free lanes.  A step costs 1, plus
/// `turn_penalty` when it changes direction.  Returns the hop sequence from
/// `from` to `to`, or nullopt when no feasible path exists, when `from` or
/// `to` is not a tile of the wafer (an id >= tile_count(); no lane is read),
/// or when the penalty is negative, NaN or infinite (a negative penalty
/// makes the bound below overestimate, and 0 x inf is NaN).
///
/// Costs are counted, not accumulated: a path's cost is the pair (hops,
/// turns), and every comparison uses its value hops + turns * turn_penalty
/// evaluated from the counts.  Two paths with the same counts therefore
/// compare equal bit for bit, whatever the penalty; summing 1 + penalty
/// step by step does not (for 1/3, say), and the back-trace of the tie-break
/// contract below could then find no matching predecessor.
///
/// The search is A* with the bound "Manhattan hops, plus one turn if at
/// least one more turn is needed" (the tile is off `to`'s row and column, or
/// on it but not heading at `to`), counted the same way.  It holds on an
/// empty wafer, and occupied lanes only remove edges, so the bound never
/// overestimates; along every edge both counts of (cost + bound) are
/// non-decreasing, so it is consistent.  A key is value(cost + bound).  The
/// search keeps popping until the smallest key exceeds the best cost at
/// `to`, which settles every state on every minimum-cost path.
///
/// Before searching, find_route walks the two dimension-ordered paths
/// (columns then rows, and rows then columns; one straight path for an
/// aligned pair).  Let M be the Manhattan hop count.  A free one is returned
/// without searching when it is the unique minimum-cost route:
///   - an aligned pair's straight path costs (M, 0).  Every other path has
///     at least M + 2 hops (it leaves the line and comes back, or turns
///     around), so it is the unique minimum for every finite penalty >= 0.
///   - a non-aligned pair's two L's are its only one-turn paths, and each
///     costs (M, 1); every other path has at least M hops and two turns,
///     and since rounding is monotone its value is at least value(M, 2).
///     So when value(M, 2) > value(M, 1), the free L's are the only
///     minimum-cost routes.  If both are free, the tie-break below takes the
///     one whose last hop has the lower direction: rows first iff the
///     column direction is below the row direction.
/// The condition compares values, not the penalty with 0: at penalty 0
/// every monotone staircase ties with the L's, and at a penalty so small
/// that M + penalty and M + 2 x penalty round to the same double (1e-15 at
/// M = 8) a two-turn staircase can win the tie-break.  Those calls search.
///
/// When a free dimension-ordered path is not known to be the unique
/// minimum, the search still uses it as a cap: no state keyed above
/// value(bound at `from`) is queued or recorded.  This is exact:
///   - the free path costs exactly the start's bound (Manhattan hops, plus
///     one turn unless aligned), so the best cost is at most that value;
///   - a state on any minimum-cost path has a key at most the best cost;
///   - every state on the free path carries the same totals (Manhattan hops
///     and the start's turn term), so its key equals that value bit for
///     bit and it is never cut;
/// so the search still reaches `to` and settles every minimum-cost state,
/// and the back-trace sees what it would have seen without the cut.  With
/// no free dimension-ordered path nothing is cut.
///
/// Tie-break contract: among equal-cost paths the route ends in the lowest
/// incoming direction at `to` (Direction order N, E, S, W), and walking back
/// each step takes the lowest-incoming-direction reached predecessor whose
/// counts plus the step have the value of the state it leads to.  The route
/// is therefore a pure function of (lane ledger, from, to, options),
/// independent of heap pop order and portable across standard libraries.
/// Thread-safe: search buffers are per thread.
[[nodiscard]] std::optional<std::vector<fabric::Direction>> find_route(
    const fabric::Wafer& wafer, fabric::TileId from, fabric::TileId to,
    const RouteOptions& options = {});

}  // namespace lp::routing
