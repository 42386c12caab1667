// Optical circuit representation and its physical profile.
//
// A circuit is a dedicated, contention-free light path from one tile's
// transmitter to another tile's receiver (paper §3, Figure 2c): a sequence
// of bus-waveguide hops within a wafer, optionally chained across wafers by
// attached fibers.  Its capacity is wavelengths x per-wavelength line rate
// (16 x 224 Gbps at most with prototype parameters).
#pragma once

#include <cstdint>
#include <vector>

#include "lightpath/types.hpp"
#include "lightpath/wafer.hpp"
#include "phys/link_budget.hpp"
#include "util/units.hpp"

namespace lp::fabric {

struct Circuit {
  /// One contiguous on-wafer stretch of the circuit.
  struct Segment {
    WaferId wafer{0};
    TileId from{0};
    std::vector<Direction> hops;
  };

  CircuitId id{0};
  GlobalTile src{};
  GlobalTile dst{};
  std::uint32_t wavelengths{0};
  std::vector<Segment> segments;
  unsigned fiber_hops{0};
  Length fiber_length{Length::zero()};
  /// mzis_to_program(), stored by Fabric when it commits the circuit so
  /// teardown and the planners' reports do not walk the hops again.  A
  /// circuit built by hand carries 0 here.
  unsigned mzi_count{0};

  /// Total on-wafer hop count across segments.
  [[nodiscard]] std::size_t waveguide_hop_count() const;

  /// Number of turns (direction changes) across all segments.
  [[nodiscard]] unsigned turn_count() const;

  /// MZI switches that must be programmed to establish this circuit: one
  /// per tile the light enters or leaves through a switch, plus one extra
  /// per turn (a turn couples two of the tile's four switches).
  [[nodiscard]] unsigned mzis_to_program() const;

  /// Capacity at the given per-wavelength line rate.
  [[nodiscard]] Bandwidth bandwidth(Bandwidth per_wavelength) const;
};

/// Derives the loss-relevant physical profile of a circuit.
///
/// Conventions (documented so the budget numbers are reproducible):
///  * waveguide length = on-wafer hops x tile pitch;
///  * every inter-tile hop crosses one reticle boundary -> one stitch;
///  * every intermediate tile passed straight through crosses the tile's
///    perpendicular bus once, and every turn adds one more crossing;
///  * MZI traversals as in Circuit::mzis_to_program().
[[nodiscard]] phys::CircuitProfile profile_of(const Circuit& circuit,
                                              const TileParams& tile);

}  // namespace lp::fabric
