#include "lightpath/fabric.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace lp::fabric {

Fabric::Fabric(FabricConfig config)
    : config_{config},
      per_wavelength_rate_{phys::Modulator{config.modulator}.line_rate()},
      link_budget_{config.budget},
      wafers_(config.wafer_count, Wafer{config.wafer}),
      reconfig_{config.reconfig} {}

std::size_t Fabric::add_fiber_link(GlobalTile a, GlobalTile b, std::uint32_t fibers,
                                   Length length) {
  fiber_links_.push_back(FiberLink{.a = a, .b = b, .fibers = fibers, .used = 0,
                                   .length = length, .down = false});
  return fiber_links_.size() - 1;
}

void Fabric::set_fiber_link_down(std::size_t index, bool down) {
  if (index < fiber_links_.size() && fiber_links_[index].down != down) {
    fiber_links_[index].down = down;
    bump_epoch();
  }
}

std::uint64_t Fabric::ledger_digest() const {
  std::uint64_t h = 0x6c69676874ULL;  // arbitrary non-zero start
  for (const Wafer& w : wafers_) h = w.ledger_digest(h);
  for (const FiberLink& link : fiber_links_) {
    h = hash_mix(h, link.used);
    h = hash_mix(h, link.down ? 1u : 0u);
  }
  return h;
}

std::uint64_t Fabric::ledger_key() const {
  // A chain of bijections: for a fixed prefix, every next value gives a
  // distinct key, so wafer and link positions are part of the key.
  std::uint64_t h = 0;
  for (const Wafer& w : wafers_) h = splitmix64(h ^ w.ledger_key());
  for (const FiberLink& link : fiber_links_) {
    h = splitmix64(h ^ (std::uint64_t{link.used} << 1 | (link.down ? 1u : 0u)));
  }
  return h;
}

void Fabric::write_xy_route(const Wafer& wafer, TileId from, TileId to, bool rows_first,
                            std::vector<Direction>& hops) {
  const TileCoord c = wafer.coord_of(from);
  const TileCoord goal = wafer.coord_of(to);
  const auto cols = static_cast<std::size_t>(std::abs(goal.col - c.col));
  const auto rows = static_cast<std::size_t>(std::abs(goal.row - c.row));
  const Direction col_dir = c.col < goal.col ? Direction::kEast : Direction::kWest;
  const Direction row_dir = c.row < goal.row ? Direction::kSouth : Direction::kNorth;
  hops.clear();
  hops.reserve(cols + rows);
  if (rows_first) hops.insert(hops.end(), rows, row_dir);
  hops.insert(hops.end(), cols, col_dir);
  if (!rows_first) hops.insert(hops.end(), rows, row_dir);
}

std::vector<Direction> Fabric::xy_route(const Wafer& wafer, TileId from, TileId to,
                                        bool rows_first) {
  std::vector<Direction> hops;
  write_xy_route(wafer, from, to, rows_first, hops);
  return hops;
}

template <typename WriteRoute>
Result<CircuitId> Fabric::commit_same_wafer(GlobalTile a, GlobalTile b,
                                            std::uint32_t wavelengths,
                                            WriteRoute&& write_route) {
  Wafer& w = wafers_[a.wafer];
  if (!w.reserve_tx(a.tile, wavelengths))
    return Err("tile " + std::to_string(a.tile) + ": not enough free Tx wavelengths");
  if (!w.reserve_rx(b.tile, wavelengths)) {
    w.release_tx(a.tile, wavelengths);
    return Err("tile " + std::to_string(b.tile) + ": not enough free Rx wavelengths");
  }
  write_route(route_[0]);
  if (auto reserved = w.reserve_path(a.tile, route_[0], wavelengths); !reserved) {
    w.release_tx(a.tile, wavelengths);
    w.release_rx(b.tile, wavelengths);
    return Err("lane reservation failed: " + reserved.error().message);
  }
  return register_circuit(a, b, wavelengths, std::nullopt);
}

Result<CircuitId> Fabric::connect(GlobalTile a, GlobalTile b, std::uint32_t wavelengths) {
  if (wavelengths == 0) return Err("zero wavelengths requested");
  if (!contains(a) || !contains(b)) return Err("wafer or tile id out of range");
  if (a == b) return Err("source and destination tile are the same");
  if (a.wafer == b.wafer) {
    return commit_same_wafer(a, b, wavelengths, [&](std::vector<Direction>& hops) {
      write_xy_route(wafers_[a.wafer], a.tile, b.tile, false, hops);
    });
  }
  return connect_cross_wafer(a, b, wavelengths);
}

Result<CircuitId> Fabric::connect_via(GlobalTile a, GlobalTile b,
                                      std::span<const Direction> hops,
                                      std::uint32_t wavelengths) {
  if (wavelengths == 0) return Err("zero wavelengths requested");
  if (a.wafer != b.wafer) return Err("connect_via requires a same-wafer path");
  if (!contains(a) || !contains(b)) return Err("wafer or tile id out of range");
  if (a == b) return Err("source and destination tile are the same");
  const Wafer& w = wafers_[a.wafer];
  // Validate the path endpoint.
  TileId at = a.tile;
  for (Direction d : hops) {
    const auto next = w.neighbor(at, d);
    if (!next) return Err("path leaves the wafer");
    at = *next;
  }
  if (at != b.tile) return Err("path does not end at the destination tile");
  return commit_same_wafer(a, b, wavelengths, [&](std::vector<Direction>& out) {
    out.assign(hops.begin(), hops.end());
  });
}

std::optional<Fabric::FiberChoice> Fabric::find_fiber(WaferId from, WaferId to,
                                                      std::uint32_t fibers) const {
  for (std::size_t i = 0; i < fiber_links_.size(); ++i) {
    const FiberLink& link = fiber_links_[i];
    if (link.down || link.fibers - link.used < fibers) continue;
    // A link declared with an endpoint off its wafer carries nothing.
    if (!contains(link.a) || !contains(link.b)) continue;
    if (link.a.wafer == from && link.b.wafer == to) return FiberChoice{i, true};
    if (link.b.wafer == from && link.a.wafer == to) return FiberChoice{i, false};
  }
  return std::nullopt;
}

Result<CircuitId> Fabric::connect_cross_wafer(GlobalTile a, GlobalTile b,
                                              std::uint32_t wavelengths) {
  // Each wavelength rides its own fiber in the bundle (no WDM mux across the
  // attach in this model, mirroring one-laser-one-fiber attach).
  const auto choice = find_fiber(a.wafer, b.wafer, wavelengths);
  if (!choice)
    return Err("no fiber link with " + std::to_string(wavelengths) +
               " spare fibers between wafers " + std::to_string(a.wafer) + " and " +
               std::to_string(b.wafer));
  FiberLink& link = fiber_links_[choice->link_index];
  const GlobalTile exit = choice->forward ? link.a : link.b;
  const GlobalTile entry = choice->forward ? link.b : link.a;

  Wafer& wa = wafers_[a.wafer];
  Wafer& wb = wafers_[b.wafer];
  if (!wa.reserve_tx(a.tile, wavelengths))
    return Err("source tile: not enough free Tx wavelengths");
  if (!wb.reserve_rx(b.tile, wavelengths)) {
    wa.release_tx(a.tile, wavelengths);
    return Err("destination tile: not enough free Rx wavelengths");
  }

  write_xy_route(wa, a.tile, exit.tile, false, route_[0]);
  write_xy_route(wb, entry.tile, b.tile, false, route_[1]);
  if (auto r = wa.reserve_path(a.tile, route_[0], wavelengths); !r) {
    wa.release_tx(a.tile, wavelengths);
    wb.release_rx(b.tile, wavelengths);
    return Err("source wafer lanes: " + r.error().message);
  }
  if (auto r = wb.reserve_path(entry.tile, route_[1], wavelengths); !r) {
    wa.release_path(a.tile, route_[0], wavelengths);
    wa.release_tx(a.tile, wavelengths);
    wb.release_rx(b.tile, wavelengths);
    return Err("destination wafer lanes: " + r.error().message);
  }
  link.used += wavelengths;
  return register_circuit(a, b, wavelengths, Crossing{choice->link_index, entry});
}

CircuitId Fabric::register_circuit(GlobalTile a, GlobalTile b, std::uint32_t wavelengths,
                                   std::optional<Crossing> crossing) {
  const CircuitId id = next_id_++;
  CircuitSlot& slot = circuits_.insert(id);
  Circuit& c = slot.circuit;
  c.id = id;
  c.src = a;
  c.dst = b;
  c.wavelengths = wavelengths;
  const std::array<GlobalTile, 2> starts{a, crossing ? crossing->entry : GlobalTile{}};
  c.segments.resize(crossing ? 2 : 1);
  for (std::size_t k = 0; k < c.segments.size(); ++k) {
    c.segments[k].wafer = starts[k].wafer;
    c.segments[k].from = starts[k].tile;
    c.segments[k].hops.swap(route_[k]);
  }
  c.fiber_hops = crossing ? 1 : 0;
  c.fiber_length = crossing ? fiber_links_[crossing->link_index].length : Length::zero();
  c.mzi_count = c.mzis_to_program();
  slot.fiber_link =
      crossing ? std::optional<std::size_t>{crossing->link_index} : std::nullopt;
  reconfig_.reconfigure(c.mzi_count);
  return id;
}

void Fabric::disconnect(CircuitId id) {
  const CircuitSlot* slot = circuits_.find(id);
  if (slot == nullptr) return;
  const Circuit& c = slot->circuit;
  for (const auto& seg : c.segments) {
    wafers_[seg.wafer].release_path(seg.from, seg.hops, c.wavelengths);
  }
  wafers_[c.src.wafer].release_tx(c.src.tile, c.wavelengths);
  wafers_[c.dst.wafer].release_rx(c.dst.tile, c.wavelengths);
  if (slot->fiber_link) {
    FiberLink& link = fiber_links_[*slot->fiber_link];
    link.used -= std::min(link.used, c.wavelengths);
  }
  // Tearing down also programs switches (back to a parked state).
  reconfig_.reconfigure(c.mzi_count);
  circuits_.erase(id);
}

std::vector<CircuitId> Fabric::circuit_ids() const {
  std::vector<CircuitId> ids;
  ids.reserve(circuits_.size());
  circuits_.for_each([&](CircuitId id, const CircuitSlot&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<std::size_t> Fabric::fiber_link_of(CircuitId id) const {
  const CircuitSlot* slot = circuits_.find(id);
  return slot == nullptr ? std::nullopt : slot->fiber_link;
}

const Circuit* Fabric::circuit(CircuitId id) const {
  const CircuitSlot* slot = circuits_.find(id);
  return slot == nullptr ? nullptr : &slot->circuit;
}

Bandwidth Fabric::circuit_bandwidth(CircuitId id) const {
  const Circuit* c = circuit(id);
  if (c == nullptr) return Bandwidth::zero();
  return c->bandwidth(per_wavelength_rate());
}

phys::LinkBudgetReport Fabric::circuit_budget(CircuitId id) const {
  const Circuit* c = circuit(id);
  if (c == nullptr) return {};  // no circuit, no light: closes == false
  return link_budget_.evaluate(profile_of(*c, config_.wafer.tile));
}

}  // namespace lp::fabric
