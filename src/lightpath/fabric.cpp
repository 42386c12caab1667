#include "lightpath/fabric.hpp"

#include <algorithm>
#include <string>

namespace lp::fabric {

Fabric::Fabric(FabricConfig config)
    : config_{config},
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

Bandwidth Fabric::per_wavelength_rate() const {
  return phys::Modulator{config_.modulator}.line_rate();
}

std::vector<Direction> Fabric::xy_route(const Wafer& wafer, TileId from, TileId to,
                                        bool rows_first) {
  std::vector<Direction> hops;
  TileCoord c = wafer.coord_of(from);
  const TileCoord goal = wafer.coord_of(to);
  const auto cols = [&] {
    while (c.col != goal.col) {
      hops.push_back(c.col < goal.col ? Direction::kEast : Direction::kWest);
      c.col += c.col < goal.col ? 1 : -1;
    }
  };
  const auto rows = [&] {
    while (c.row != goal.row) {
      hops.push_back(c.row < goal.row ? Direction::kSouth : Direction::kNorth);
      c.row += c.row < goal.row ? 1 : -1;
    }
  };
  if (rows_first) rows();
  cols();
  rows();
  return hops;
}

template <typename Route>
Result<CircuitId> Fabric::commit_same_wafer(GlobalTile a, GlobalTile b,
                                            std::uint32_t wavelengths, Route&& route) {
  Wafer& w = wafers_[a.wafer];
  if (!w.reserve_tx(a.tile, wavelengths))
    return Err("tile " + std::to_string(a.tile) + ": not enough free Tx wavelengths");
  if (!w.reserve_rx(b.tile, wavelengths)) {
    w.release_tx(a.tile, wavelengths);
    return Err("tile " + std::to_string(b.tile) + ": not enough free Rx wavelengths");
  }
  std::vector<Direction> hops = route();
  if (auto reserved = w.reserve_path(a.tile, hops, wavelengths); !reserved) {
    w.release_tx(a.tile, wavelengths);
    w.release_rx(b.tile, wavelengths);
    return Err("lane reservation failed: " + reserved.error().message);
  }

  Circuit c;
  c.src = a;
  c.dst = b;
  c.wavelengths = wavelengths;
  c.segments.push_back(Circuit::Segment{a.wafer, a.tile, std::move(hops)});
  reconfig_.reconfigure(c.mzis_to_program());
  return register_circuit(std::move(c));
}

Result<CircuitId> Fabric::connect(GlobalTile a, GlobalTile b, std::uint32_t wavelengths) {
  if (wavelengths == 0) return Err("zero wavelengths requested");
  if (!contains(a) || !contains(b)) return Err("wafer or tile id out of range");
  if (a == b) return Err("source and destination tile are the same");
  if (a.wafer == b.wafer) {
    return commit_same_wafer(a, b, wavelengths,
                             [&] { return xy_route(wafers_[a.wafer], a.tile, b.tile); });
  }
  return connect_cross_wafer(a, b, wavelengths);
}

Result<CircuitId> Fabric::connect_via(GlobalTile a, GlobalTile b,
                                      std::vector<Direction> hops,
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
  return commit_same_wafer(a, b, wavelengths, [&] { return std::move(hops); });
}

std::optional<Fabric::FiberChoice> Fabric::find_fiber(WaferId from, WaferId to,
                                                      std::uint32_t fibers) const {
  for (std::size_t i = 0; i < fiber_links_.size(); ++i) {
    const FiberLink& link = fiber_links_[i];
    if (link.down || link.fibers - link.used < fibers) continue;
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

  auto hops_a = xy_route(wa, a.tile, exit.tile);
  auto hops_b = xy_route(wb, entry.tile, b.tile);
  if (auto r = wa.reserve_path(a.tile, hops_a, wavelengths); !r) {
    wa.release_tx(a.tile, wavelengths);
    wb.release_rx(b.tile, wavelengths);
    return Err("source wafer lanes: " + r.error().message);
  }
  if (auto r = wb.reserve_path(entry.tile, hops_b, wavelengths); !r) {
    wa.release_path(a.tile, hops_a, wavelengths);
    wa.release_tx(a.tile, wavelengths);
    wb.release_rx(b.tile, wavelengths);
    return Err("destination wafer lanes: " + r.error().message);
  }
  link.used += wavelengths;

  Circuit c;
  c.src = a;
  c.dst = b;
  c.wavelengths = wavelengths;
  c.segments.push_back(Circuit::Segment{a.wafer, a.tile, std::move(hops_a)});
  c.segments.push_back(Circuit::Segment{b.wafer, entry.tile, std::move(hops_b)});
  c.fiber_hops = 1;
  c.fiber_length = link.length;
  reconfig_.reconfigure(c.mzis_to_program());

  const CircuitId id = register_circuit(std::move(c));
  circuit_fiber_[id] = choice->link_index;
  return id;
}

CircuitId Fabric::register_circuit(Circuit&& circuit) {
  const CircuitId id = next_id_++;
  circuit.id = id;
  circuits_.emplace(id, std::move(circuit));
  return id;
}

void Fabric::disconnect(CircuitId id) {
  const auto it = circuits_.find(id);
  if (it == circuits_.end()) return;
  const Circuit& c = it->second;
  for (const auto& seg : c.segments) {
    wafers_[seg.wafer].release_path(seg.from, seg.hops, c.wavelengths);
  }
  wafers_[c.src.wafer].release_tx(c.src.tile, c.wavelengths);
  wafers_[c.dst.wafer].release_rx(c.dst.tile, c.wavelengths);
  if (const auto fit = circuit_fiber_.find(id); fit != circuit_fiber_.end()) {
    FiberLink& link = fiber_links_[fit->second];
    link.used -= std::min(link.used, c.wavelengths);
    circuit_fiber_.erase(fit);
  }
  // Tearing down also programs switches (back to a parked state).
  reconfig_.reconfigure(c.mzis_to_program());
  circuits_.erase(it);
}

std::vector<CircuitId> Fabric::circuit_ids() const {
  std::vector<CircuitId> ids;
  ids.reserve(circuits_.size());
  for (const auto& [id, c] : circuits_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::optional<std::size_t> Fabric::fiber_link_of(CircuitId id) const {
  const auto it = circuit_fiber_.find(id);
  if (it == circuit_fiber_.end()) return std::nullopt;
  return it->second;
}

const Circuit* Fabric::circuit(CircuitId id) const {
  const auto it = circuits_.find(id);
  return it == circuits_.end() ? nullptr : &it->second;
}

Bandwidth Fabric::circuit_bandwidth(CircuitId id) const {
  const Circuit* c = circuit(id);
  if (c == nullptr) return Bandwidth::zero();
  return c->bandwidth(per_wavelength_rate());
}

phys::LinkBudgetReport Fabric::circuit_budget(CircuitId id) const {
  const Circuit* c = circuit(id);
  if (c == nullptr) return {};  // no circuit, no light: closes == false
  const phys::LinkBudget budget{config_.budget};
  return budget.evaluate(profile_of(*c, config_.wafer.tile));
}

}  // namespace lp::fabric
