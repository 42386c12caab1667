#include "fault/fault.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace lp::fault {

using fabric::Direction;
using fabric::GlobalTile;

// --- FaultSet -------------------------------------------------------------

void FaultSet::add(const Fault& f) {
  faults_.push_back(f);
  switch (f.kind) {
    case FaultKind::kMziStuck:
      stuck_[edge_key(f.tile, f.direction)] = f.stuck_port;
      break;
    case FaultKind::kMziDrift: {
      auto [it, inserted] =
          drift_.try_emplace(edge_key(f.tile, f.direction), f.excess_loss.value(),
                             f.tau_factor);
      if (!inserted) {
        it->second.first += f.excess_loss.value();
        it->second.second *= f.tau_factor;
      }
      break;
    }
    case FaultKind::kWaveguideLoss:
      wg_excess_[edge_key(f.tile, f.direction)] += f.excess_loss.value();
      break;
    case FaultKind::kFiberCut:
      cut_links_.insert(f.fiber_link);
      break;
    case FaultKind::kLaserLoss:
      lasers_[tile_key(f.tile)] += f.dead_lasers;
      break;
    case FaultKind::kChipDeath:
      dead_chips_.insert(tile_key(f.tile));
      break;
  }
}

void FaultSet::add_all(const std::vector<Fault>& faults) {
  for (const Fault& f : faults) add(f);
}

bool FaultSet::chip_dead(GlobalTile t) const {
  return dead_chips_.count(tile_key(t)) != 0;
}

bool FaultSet::mzi_stuck(GlobalTile t, Direction d) const {
  return stuck_.count(edge_key(t, d)) != 0;
}

Decibel FaultSet::mzi_drift_excess(GlobalTile t, Direction d) const {
  const auto it = drift_.find(edge_key(t, d));
  return it == drift_.end() ? Decibel::zero() : Decibel::db(it->second.first);
}

Decibel FaultSet::waveguide_excess(GlobalTile t, Direction d) const {
  const auto it = wg_excess_.find(edge_key(t, d));
  return it == wg_excess_.end() ? Decibel::zero() : Decibel::db(it->second);
}

std::uint32_t FaultSet::dead_lasers(GlobalTile t) const {
  const auto it = lasers_.find(tile_key(t));
  return it == lasers_.end() ? 0 : it->second;
}

bool FaultSet::fiber_cut(std::size_t link_index) const {
  return cut_links_.count(link_index) != 0;
}

void FaultSet::quarantine_edge(fabric::Fabric& fab, fabric::WaferId w,
                               fabric::TileId t, Direction d) {
  const std::uint32_t free = fab.wafer(w).lanes_free(t, d);
  if (free == 0) return;  // boundary edge, or already fully occupied/quarantined
  if (fab.wafer(w).reserve_lanes(t, d, free)) {
    reserved_edges_.push_back(ReservedEdge{w, t, d, free});
  }
}

void FaultSet::apply_to(fabric::Fabric& fab, Decibel quarantine_threshold) {
  if (applied_) return;

  // Cut bundles refuse new placements.
  for (std::size_t idx : cut_links_) {
    if (idx >= fab.fiber_links().size() || fab.fiber_links()[idx].down) continue;
    fab.set_fiber_link_down(idx, true);
    downed_links_.push_back(idx);
  }

  // A stuck switch blocks the edge in both directions: light can neither
  // leave the tile through it nor enter from the neighbor.
  for (const auto& [key, port] : stuck_) {
    const auto& [w, t, d8] = key;
    const auto d = static_cast<Direction>(d8);
    quarantine_edge(fab, w, t, d);
    if (const auto n = fab.wafer(w).neighbor(t, d)) {
      quarantine_edge(fab, w, *n, opposite(d));
    }
    auto& mzi = fab.wafer(w).mzi(t, d);
    mzi_restore_.push_back(
        MziRestore{GlobalTile{w, t}, d, mzi.params().tau, mzi.target_port()});
    mzi.program(port, TimePoint{});
  }

  // Drifted switches stay routable but settle slowly.
  for (const auto& [key, sev] : drift_) {
    const auto& [w, t, d8] = key;
    const auto d = static_cast<Direction>(d8);
    auto& mzi = fab.wafer(w).mzi(t, d);
    mzi_restore_.push_back(
        MziRestore{GlobalTile{w, t}, d, mzi.params().tau, mzi.target_port()});
    mzi.set_tau(mzi.params().tau * sev.second);
  }

  // Waveguide drift past the threshold is too lossy to route new circuits
  // over; below it, the edge stays open and the budget absorbs the hit.
  for (const auto& [key, excess_db] : wg_excess_) {
    if (excess_db < quarantine_threshold.value()) continue;
    const auto& [w, t, d8] = key;
    quarantine_edge(fab, w, t, static_cast<Direction>(d8));
  }

  // Dead chips cannot terminate circuits; park their remaining endpoint
  // wavelengths so planners pick other tiles.
  for (const auto& [w, t] : dead_chips_) {
    fabric::Wafer& wafer = fab.wafer(w);
    const std::uint32_t txf = wafer.tile(t).tx_free();
    const std::uint32_t rxf = wafer.tile(t).rx_free();
    if (txf > 0) wafer.reserve_tx(t, txf);
    if (rxf > 0) wafer.reserve_rx(t, rxf);
    if (txf > 0 || rxf > 0) {
      reserved_endpoints_.push_back(ReservedEndpoint{GlobalTile{w, t}, txf, rxf});
    }
  }

  // Dark lasers leave the free Tx pool (a retune must find *healthy* spares;
  // see RepairRung::kRetune).
  for (const auto& [key, k] : lasers_) {
    const auto& [w, t] = key;
    const std::uint32_t take = std::min(k, fab.wafer(w).tile(t).tx_free());
    if (take == 0) continue;
    fab.wafer(w).reserve_tx(t, take);
    reserved_endpoints_.push_back(ReservedEndpoint{GlobalTile{w, t}, take, 0});
  }

  applied_ = true;
  // Quarantines and parked endpoints changed what is routable: any plan
  // memoized before the faults landed must not replay.
  fab.bump_epoch();
}

void FaultSet::revert(fabric::Fabric& fab) {
  if (!applied_) return;
  for (auto it = reserved_edges_.rbegin(); it != reserved_edges_.rend(); ++it) {
    fab.wafer(it->wafer).release_lanes(it->tile, it->dir, it->lanes);
  }
  for (auto it = reserved_endpoints_.rbegin(); it != reserved_endpoints_.rend(); ++it) {
    fabric::Wafer& wafer = fab.wafer(it->tile.wafer);
    if (it->tx > 0) wafer.release_tx(it->tile.tile, it->tx);
    if (it->rx > 0) wafer.release_rx(it->tile.tile, it->rx);
  }
  for (auto it = mzi_restore_.rbegin(); it != mzi_restore_.rend(); ++it) {
    auto& mzi = fab.wafer(it->tile.wafer).mzi(it->tile.tile, it->dir);
    mzi.set_tau(it->tau);
    mzi.program(it->target, TimePoint{});
  }
  for (std::size_t idx : downed_links_) fab.set_fiber_link_down(idx, false);
  reserved_edges_.clear();
  reserved_endpoints_.clear();
  mzi_restore_.clear();
  downed_links_.clear();
  applied_ = false;
  // Restored capacity is just as plan-invalidating as lost capacity.
  fab.bump_epoch();
}

// --- FaultInjector --------------------------------------------------------

FaultInjector::FaultInjector(const fabric::Fabric& fab, FaultModelParams params,
                             std::uint64_t seed)
    : fab_{&fab}, params_{params}, seed_{seed} {}

std::vector<Fault> FaultInjector::sample_trial(std::uint64_t trial) const {
  Rng rng{util::task_seed(seed_, trial)};
  return sample(rng);
}

SampledFaults FaultInjector::sample_trial_with_domain(std::uint64_t trial) const {
  Rng rng{util::task_seed(seed_, trial)};
  return sample_with_domain(rng);
}

std::vector<Fault> FaultInjector::sample(Rng& rng) const {
  return sample_with_domain(rng).faults;
}

SampledFaults FaultInjector::sample_with_domain(Rng& rng) const {
  SampledFaults out;
  out.faults.push_back(sample_one(rng));
  if (rng.bernoulli(params_.burst_probability)) {
    const std::uint32_t lo = params_.burst_extra_min;
    const std::uint32_t hi = std::max(params_.burst_extra_max, lo);
    const std::uint32_t extra =
        lo + static_cast<std::uint32_t>(rng.uniform_index(hi - lo + 1));
    // The domain draw happens even when a single-wafer fabric forces the
    // per-wafer fallback, so the stream consumed per burst is fixed and the
    // same (seed, trial) yields the same severities on any geometry.
    const bool rack_power = rng.bernoulli(params_.rack_power_probability) &&
                            fab_->wafer_count() > 1;
    out.domain = rack_power ? BurstDomain::kRackPower : BurstDomain::kWafer;
    const fabric::WaferId burst_wafer = out.faults.front().tile.wafer;
    const auto wafers = static_cast<fabric::WaferId>(fab_->wafer_count());
    for (std::uint32_t i = 0; i < extra; ++i) {
      const fabric::WaferId confine =
          rack_power
              ? static_cast<fabric::WaferId>(
                    (burst_wafer + 1 + static_cast<fabric::WaferId>(i)) % wafers)
              : burst_wafer;
      out.faults.push_back(sample_one(rng, confine));
    }
  }
  return out;
}

Fault FaultInjector::sample_one(Rng& rng,
                                std::optional<fabric::WaferId> confine) const {
  // Fiber cuts (optionally confined to links touching one wafer).
  std::vector<std::size_t> cuttable;
  for (std::size_t i = 0; i < fab_->fiber_links().size(); ++i) {
    const fabric::FiberLink& link = fab_->fiber_links()[i];
    if (confine && link.a.wafer != *confine && link.b.wafer != *confine) continue;
    cuttable.push_back(i);
  }

  std::array<double, 6> weights{
      params_.mzi_stuck_weight,      params_.mzi_drift_weight,
      params_.waveguide_drift_weight, cuttable.empty() ? 0.0 : params_.fiber_cut_weight,
      params_.laser_loss_weight,     params_.chip_death_weight,
  };
  double total = 0.0;
  for (double w : weights) total += std::max(w, 0.0);

  auto kind = FaultKind::kWaveguideLoss;
  if (total > 0.0) {
    double u = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      u -= std::max(weights[i], 0.0);
      if (u < 0.0) {
        kind = static_cast<FaultKind>(i);
        break;
      }
    }
  }

  const auto pick_tile = [&] {
    const fabric::WaferId w =
        confine ? *confine
                : static_cast<fabric::WaferId>(rng.uniform_index(fab_->wafer_count()));
    const auto t =
        static_cast<fabric::TileId>(rng.uniform_index(fab_->wafer(w).tile_count()));
    return GlobalTile{w, t};
  };
  // A direction whose edge actually exists (falls back to the raw draw on a
  // degenerate 1x1 wafer).
  const auto pick_direction = [&](GlobalTile t) {
    const std::size_t d0 = rng.uniform_index(4);
    for (std::size_t i = 0; i < 4; ++i) {
      const auto d = static_cast<Direction>((d0 + i) % 4);
      if (fab_->wafer(t.wafer).neighbor(t.tile, d)) return d;
    }
    return static_cast<Direction>(d0);
  };
  const auto severity = [&](double mean, double sigma) {
    return Decibel::db(std::max(0.05, rng.normal(mean, sigma)));
  };

  Fault f;
  f.kind = kind;
  switch (kind) {
    case FaultKind::kMziStuck:
      f.tile = pick_tile();
      f.direction = pick_direction(f.tile);
      f.stuck_port = rng.uniform_index(2) == 0 ? phys::MziPort::kBar
                                               : phys::MziPort::kCross;
      break;
    case FaultKind::kMziDrift:
      f.tile = pick_tile();
      f.direction = pick_direction(f.tile);
      f.excess_loss =
          severity(params_.mzi_drift_excess_mean_db, params_.mzi_drift_excess_sigma_db);
      f.tau_factor = params_.mzi_drift_tau_factor;
      break;
    case FaultKind::kWaveguideLoss:
      f.tile = pick_tile();
      f.direction = pick_direction(f.tile);
      f.excess_loss =
          severity(params_.waveguide_drift_mean_db, params_.waveguide_drift_sigma_db);
      break;
    case FaultKind::kFiberCut: {
      f.fiber_link = cuttable[rng.uniform_index(cuttable.size())];
      f.tile = fab_->fiber_links()[f.fiber_link].a;
      break;
    }
    case FaultKind::kLaserLoss:
      f.tile = pick_tile();
      f.dead_lasers = 1 + static_cast<std::uint32_t>(
                              rng.uniform_index(std::max(params_.max_dead_lasers, 1u)));
      break;
    case FaultKind::kChipDeath:
      f.tile = pick_tile();
      break;
  }
  return f;
}

}  // namespace lp::fault
