#include "fault/gray.hpp"

#include <algorithm>
#include <cassert>

#include "util/parallel.hpp"

namespace lp::fault {

using fabric::Direction;
using fabric::GlobalTile;

FlapTrace::FlapTrace(std::vector<double> toggles_s) : toggles_s_{std::move(toggles_s)} {
  assert(toggles_s_.size() % 2 == 0);
  assert(std::is_sorted(toggles_s_.begin(), toggles_s_.end()));
}

bool FlapTrace::down_at(double t_s) const {
  // The index of the first toggle strictly after t_s has odd parity exactly
  // when t_s sits inside a [down, up) interval.
  const auto it = std::upper_bound(toggles_s_.begin(), toggles_s_.end(), t_s);
  return (it - toggles_s_.begin()) % 2 == 1;
}

double FlapTrace::down_seconds() const {
  double total = 0.0;
  for (std::size_t k = 0; k < dips(); ++k) total += dip_seconds(k);
  return total;
}

FlapTrace make_flap_trace(Rng& rng, const GrayModelParams& params) {
  const double down_rate = 1.0 / std::max(params.mean_down_seconds, 1e-9);
  const double up_rate = 1.0 / std::max(params.mean_up_seconds, 1e-9);
  double t = 0.0;
  const std::uint32_t cap = std::max<std::uint32_t>(params.max_dips, 1);
  // Two toggles per dip, reserved once for up to kReservedDips dips: the
  // cap is a caller's number, and a longer trace grows past the reserve.
  std::vector<double> toggles;
  toggles.reserve(2 * std::size_t{std::min(cap, kReservedDips)});
  for (std::uint32_t dip = 0; dip < cap; ++dip) {
    toggles.push_back(t);  // down-transition
    t += rng.exponential(down_rate);
    toggles.push_back(t);  // re-lock
    if (!rng.bernoulli(params.continue_probability)) break;
    t += rng.exponential(up_rate);
  }
  return FlapTrace{std::move(toggles)};
}

bool settle_transient_failure(std::uint64_t seed, std::uint64_t attempt,
                              double probability) {
  if (probability <= 0.0) return false;
  Rng rng{util::task_seed(seed, attempt)};
  return rng.bernoulli(probability);
}

std::uint64_t gray_component_key(GlobalTile t, Direction d) {
  std::uint64_t h = fabric::hash_mix(0, t.wafer);
  h = fabric::hash_mix(h, t.tile);
  return fabric::hash_mix(h, static_cast<std::uint64_t>(d));
}

// --- FaultInjector gray sampling (declared in fault/fault.hpp) ------------

GrayEpisode FaultInjector::sample_gray(Rng& rng, const GrayModelParams& params) const {
  // Component pick mirrors sample_one's tile/direction idiom: uniform tile,
  // then a direction whose edge exists (raw draw on a degenerate wafer).
  const auto w = static_cast<fabric::WaferId>(rng.uniform_index(fab_->wafer_count()));
  const auto t =
      static_cast<fabric::TileId>(rng.uniform_index(fab_->wafer(w).tile_count()));
  const GlobalTile tile{w, t};
  const std::size_t d0 = rng.uniform_index(4);
  Direction dir = static_cast<Direction>(d0);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto d = static_cast<Direction>((d0 + i) % 4);
    if (fab_->wafer(w).neighbor(t, d)) {
      dir = d;
      break;
    }
  }
  return sample_gray_at(rng, params, tile, dir);
}

GrayEpisode FaultInjector::sample_gray_at(Rng& rng, const GrayModelParams& params,
                                          fabric::GlobalTile tile,
                                          fabric::Direction direction) const {
  GrayEpisode ep;
  ep.tile = tile;
  ep.direction = direction;
  ep.trace = make_flap_trace(rng, params);
  ep.settle_failure_probability = params.settle_failure_probability;
  // The BER rider draws unconditionally so an episode's trace is identical
  // whether or not the burst fires (adding a rider never perturbs the dips).
  const bool burst = rng.bernoulli(params.ber_burst_probability);
  const double burst_s =
      rng.exponential(1.0 / std::max(params.mean_ber_burst_seconds, 1e-9));
  if (burst) {
    ep.ber_burst = true;
    ep.ber_seconds = burst_s;
    ep.ber_excess = params.ber_excess;
    ep.ber_goodput_factor = params.ber_goodput_factor;
  }
  return ep;
}

GrayEpisode FaultInjector::sample_gray_trial(std::uint64_t trial,
                                             const GrayModelParams& params) const {
  // A distinct stream family from sample_trial's so gray and permanent
  // draws can never alias for the same trial index.
  Rng rng{util::task_seed(seed_ ^ 0x6772617966617ULL, trial)};
  return sample_gray(rng, params);
}

}  // namespace lp::fault
