#include "cluster/scheduler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace lp::cluster {
namespace {

fabric::FabricConfig pricing_fabric_config(std::uint32_t wafers) {
  fabric::FabricConfig config;
  config.wafer_count = std::clamp(wafers, 1u, 64u);  // tile_cursor_ is 64 wide
  return config;
}

std::vector<ShapeMix> default_mix() {
  return {
      {topo::Shape{{2, 2, 1}}, 4.0}, {topo::Shape{{4, 2, 1}}, 3.0},
      {topo::Shape{{4, 4, 1}}, 2.0}, {topo::Shape{{4, 4, 2}}, 1.0},
      {topo::Shape{{4, 4, 4}}, 0.5},
  };
}

}  // namespace

ClusterScheduler::ClusterScheduler(const ClusterParams& params)
    : params_{params},
      cluster_{params.cluster},
      alloc_{cluster_},
      ocs_{params.ocs, params.ocs_switches},
      fab_{pricing_fabric_config(params.fabric_wafers)},
      injector_{fab_, params.fault_model, params.seed},
      cache_{fab_},
      arrivals_{util::task_seed(params.seed, 0)},
      attrs_{util::task_seed(params.seed, 1)},
      fault_clock_{util::task_seed(params.seed, 2)},
      fault_body_{util::task_seed(params.seed, 3)},
      victims_{util::task_seed(params.seed, 4)},
      gray_clock_{util::task_seed(params.seed, 5)},
      gray_victims_{util::task_seed(params.seed, 6)},
      damper_{params.damper} {
  if (params_.mix.empty()) params_.mix = default_mix();
  const auto chips = static_cast<std::size_t>(cluster_.chip_count());
  chip_owner_.assign(chips, -1);
  rack_largest_.assign(static_cast<std::size_t>(cluster_.rack_count()),
                       cluster_.chips_per_rack());
  placeable_sum_ = cluster_.chip_count();
}

// ---------------------------------------------------------------------------
// Bookkeeping.
// ---------------------------------------------------------------------------

void ClusterScheduler::fold_digest(std::uint64_t v) {
  report_.digest = fabric::hash_mix(report_.digest, v);
}

void ClusterScheduler::mark_rack_dirty(topo::RackId rack) {
  dirty_racks_.insert(rack);
}

void ClusterScheduler::refresh_racks() {
  for (const topo::RackId rack : dirty_racks_) {
    const auto r = static_cast<std::size_t>(rack);
    placeable_sum_ -= rack_largest_[r];
    rack_largest_[r] = alloc_.largest_placeable(rack).size();
    placeable_sum_ += rack_largest_[r];
  }
  dirty_racks_.clear();
}

void ClusterScheduler::accumulate_metrics(TimePoint to) {
  refresh_racks();
  const double dt = (to - metrics_at_).to_seconds();
  if (dt > 0.0) {
    const std::int32_t total_free = cluster_.free_count();
    const double free = static_cast<double>(total_free);
    const double stranding =
        total_free == 0 ? 0.0 : 1.0 - static_cast<double>(placeable_sum_) / free;
    const double chips = static_cast<double>(cluster_.chip_count());
    const double failed = static_cast<double>(report_.fatal_chip_failures);
    const double util = (chips - free - failed) / chips;
    frag_integral_ += stranding * dt;
    util_integral_ += util * dt;
    metrics_at_ = to;
  }
}

std::uint64_t ClusterScheduler::flapping_population() const {
  const auto chips = static_cast<std::uint64_t>(cluster_.chip_count());
  return params_.flappy_chips == 0 ? chips
                                   : std::min<std::uint64_t>(params_.flappy_chips, chips);
}

bool ClusterScheduler::chip_usable(topo::TpuId chip) {
  if (params_.flap_rate_per_hour <= 0.0 || !params_.gray_hysteresis) return true;
  const fault::LinkState s =
      damper_.state(static_cast<std::uint64_t>(chip),
                    Duration::seconds(engine_.now().to_seconds()));
  return s != fault::LinkState::kQuarantined && s != fault::LinkState::kProbation;
}

fabric::GlobalTile ClusterScheduler::cursor_tile(fabric::WaferId wafer) {
  const auto w = static_cast<std::size_t>(wafer);
  const auto tiles = static_cast<std::uint32_t>(fab_.wafer(wafer).tile_count());
  const std::uint32_t tile = tile_cursor_[w] % tiles;
  tile_cursor_[w] = (tile + 1) % tiles;
  return {wafer, static_cast<fabric::TileId>(tile)};
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

void ClusterScheduler::start_job(Job& job, TimePoint at) {
  job.running = true;
  job.started = at;
  ++job.generation;
  if (!job.ever_placed) {
    job.ever_placed = true;
    ++report_.admitted;
    queue_delays_.push_back((at - job.arrival).to_seconds());
  }
  ++running_;
  report_.peak_running = std::max(report_.peak_running, running_);
  const Duration remaining = (job.service - job.progress) / job.rate;
  const std::uint64_t id = job.id;
  const std::uint32_t gen = job.generation;
  engine_.schedule_at(at + remaining, [this, id, gen] { on_completion(id, gen); });
}

bool ClusterScheduler::place_contiguous(Job& job) {
  auto placed = alloc_.allocate(job.shape);
  if (!placed) return false;
  job.slice = placed.value();
  job.morphed = false;
  job.chips = alloc_.chips(job.slice);  // ascending
  for (const topo::TpuId c : job.chips) {
    chip_owner_[static_cast<std::size_t>(c)] = static_cast<std::int64_t>(job.id);
  }
  mark_rack_dirty(alloc_.slice(job.slice)->rack);
  ++report_.placed_contiguous;
  return true;
}

std::vector<ClusterScheduler::Fragment> ClusterScheduler::harvest(
    std::int32_t volume) {
  // Racks in (free descending, rack ascending) order: the fewest fragments
  // cover the volume, and ties resolve identically on every run.  A dry run
  // picks the chips and takes them only once they cover the volume, so a
  // failed harvest changes no chip.  It asks chip_usable() about exactly the
  // chips that taking them one by one would visit: the flap damper rescales
  // a chip's score on every query, so one query more or less can move a
  // digest.
  picks_.clear();
  std::int32_t remaining = volume;
  std::uint32_t fragments = 0;
  cluster_.racks_by_free_descending([&](topo::RackId rack) {
    if (remaining <= 0 || fragments >= params_.max_fragments) return true;
    const std::size_t before = picks_.size();
    cluster_.for_each_free_chip(rack, [&](topo::TpuId chip) {
      if (!chip_usable(chip)) {
        ++report_.morph_deferrals;
        return false;
      }
      picks_.push_back(chip);
      return --remaining == 0;
    });
    if (picks_.size() > before) ++fragments;
    return false;
  });
  std::vector<Fragment> out;
  if (remaining > 0) return out;
  // Take the picks; consecutive picks from one rack form its fragment.
  for (const topo::TpuId chip : picks_) {
    const topo::RackId rack = cluster_.rack_of(chip);
    if (out.empty() || out.back().rack != rack) {
      out.push_back(Fragment{rack, {}});
      mark_rack_dirty(rack);
    }
    out.back().chips.push_back(chip);
    cluster_.set_state(chip, topo::ChipState::kAllocated);
  }
  return out;
}

void ClusterScheduler::unharvest(const std::vector<Fragment>& fragments) {
  for (const Fragment& f : fragments) {
    for (const topo::TpuId chip : f.chips) {
      cluster_.set_state(chip, topo::ChipState::kFree);
    }
    mark_rack_dirty(f.rack);
  }
}

std::vector<routing::Demand> ClusterScheduler::stitch_demands(
    const std::vector<Fragment>& fragments) {
  // All stitch endpoints live on the wafer serving the first fragment's
  // rack: the optical splice plane that face's OCS bank switches.  Same-
  // wafer demands go through the capacity-aware router, which is the path
  // the PlanCache memoizes.
  std::vector<routing::Demand> out;
  const std::size_t k = fragments.size();
  if (k < 2) return out;
  const auto wafer = static_cast<fabric::WaferId>(
      static_cast<std::uint32_t>(fragments.front().rack) % fab_.wafer_count());
  std::vector<fabric::GlobalTile> endpoints;
  endpoints.reserve(k);
  for (std::size_t i = 0; i < k; ++i) endpoints.push_back(cursor_tile(wafer));
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(routing::Demand{endpoints[i], endpoints[(i + 1) % k],
                                  params_.morph_wavelengths});
  }
  return out;
}

void ClusterScheduler::take_chips(Job& job, const std::vector<Fragment>& fragments) {
  for (const Fragment& f : fragments) {
    for (const topo::TpuId chip : f.chips) {
      job.chips.push_back(chip);
      chip_owner_[static_cast<std::size_t>(chip)] = static_cast<std::int64_t>(job.id);
    }
  }
  std::sort(job.chips.begin(), job.chips.end());
}

void ClusterScheduler::release_placement(Job& job) {
  for (const topo::TpuId chip : job.chips) {
    chip_owner_[static_cast<std::size_t>(chip)] = -1;
    mark_rack_dirty(cluster_.rack_of(chip));
  }
  if (job.slice >= 0) {
    alloc_.release(job.slice);  // failed chips stay failed
    job.slice = -1;
  } else {
    for (const topo::TpuId chip : job.chips) {
      if (cluster_.state(chip) == topo::ChipState::kAllocated) {
        cluster_.set_state(chip, topo::ChipState::kFree);
      }
    }
  }
  job.chips.clear();
  for (const fabric::CircuitId id : job.stitch_circuits) fab_.disconnect(id);
  job.stitch_circuits.clear();
  if (job.ocs_ports > 0) {
    ocs_.release(job.ocs_ports);
    job.ocs_ports = 0;
  }
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

void ClusterScheduler::try_admit() {
  const TimePoint now = engine_.now();
  struct MorphCandidate {
    std::uint64_t id{0};
    std::vector<Fragment> fragments;
    std::uint32_t ports{0};
    std::vector<routing::Demand> demands;
  };
  std::vector<MorphCandidate> batch;
  const bool can_morph = params_.policy == SchedulerPolicy::kPhotonicMorph &&
                         params_.morph_enabled;
  // Contiguous placements start during the pass; staged morphs start after
  // the batch plan, in stage order.
  queue_.pass(
      can_morph,
      [&](std::uint64_t id) {
        Job& job = jobs_.at(id);
        if (!place_contiguous(job)) return false;
        start_job(job, now);
        return true;
      },
      [&](std::uint64_t id) {
        std::vector<Fragment> frags = harvest(jobs_.at(id).shape.size());
        if (frags.empty()) return false;
        const auto ports = static_cast<std::uint32_t>(frags.size());
        if (!ocs_.reserve(ports)) {
          unharvest(frags);
          return false;
        }
        MorphCandidate c;
        c.id = id;
        c.fragments = std::move(frags);
        c.ports = ports;
        c.demands = stitch_demands(c.fragments);
        batch.push_back(std::move(c));
        return true;
      });

  // Plan the staged stitch rings in stage order, one job at a time,
  // through the PlanCache (repeated demand sets against an unchanged ledger
  // replay without route search).  A job whose ring cannot fully place
  // releases what it placed and stays queued.
  std::vector<bool> started(batch.size(), false);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const MorphCandidate& c = batch[i];
    Job& job = jobs_.at(c.id);
    const routing::PlanReport plan = cache_.place_all(c.demands);
    if (!plan.complete()) {
      cache_.release_all(plan);
      unharvest(c.fragments);
      ocs_.release(c.ports);
      continue;
    }
    take_chips(job, c.fragments);
    job.morphed = true;
    job.ocs_ports = c.ports;
    for (const routing::PlacedCircuit& p : plan.placed) {
      job.stitch_circuits.push_back(p.id);
    }
    ++report_.placed_morphed;
    start_job(job, now);
    started[i] = true;
  }
  queue_.settle(started);
}

// ---------------------------------------------------------------------------
// Fault events.
// ---------------------------------------------------------------------------

ScriptedClusterFault ClusterScheduler::draw_fault() {
  const fault::SampledFaults sf = injector_.sample_with_domain(fault_body_);
  ScriptedClusterFault s;
  s.anchor = static_cast<topo::TpuId>(
      victims_.uniform_index(static_cast<std::uint64_t>(cluster_.chip_count())));
  s.kind = sf.faults.front().kind;
  switch (sf.domain) {
    case fault::BurstDomain::kNone: s.domain = FaultDomain::kChip; break;
    case fault::BurstDomain::kWafer: s.domain = FaultDomain::kServer; break;
    case fault::BurstDomain::kRackPower: s.domain = FaultDomain::kRackPower; break;
  }
  // A rack-power burst takes down one server per sampled fault.
  s.servers = static_cast<std::int32_t>(sf.faults.size());
  return s;
}

ClusterScheduler::FaultEvent ClusterScheduler::fault_event(
    const ScriptedClusterFault& s) const {
  FaultEvent ev;
  ev.kind = s.kind;
  ev.domain = s.domain;
  switch (s.domain) {
    case FaultDomain::kChip:
      ev.fatal = s.kind == fault::FaultKind::kChipDeath;
      ev.victims = {s.anchor};
      break;
    case FaultDomain::kServer:
      ev.fatal = true;
      ev.victims = cluster_.server_chips(s.anchor);
      break;
    case FaultDomain::kRackPower: {
      ev.fatal = true;
      const std::int32_t spr = cluster_.servers_per_rack();
      const std::int32_t span = std::min(std::max(s.servers, 1), spr);
      const std::int32_t first = cluster_.server_of(s.anchor);
      const topo::RackId rack = cluster_.rack_of(s.anchor);
      const std::int32_t per = cluster_.chips_per_rack();
      for (std::int32_t i = 0; i < per; ++i) {
        const topo::TpuId chip = rack * per + i;
        const std::int32_t rel =
            ((cluster_.server_of(chip) - first) % spr + spr) % spr;
        if (rel < span) ev.victims.push_back(chip);
      }
      break;
    }
  }
  std::sort(ev.victims.begin(), ev.victims.end());
  return ev;
}

void ClusterScheduler::apply_fault(const FaultEvent& ev) {
  if (!ev.fatal) return;
  for (const topo::TpuId chip : ev.victims) {
    if (cluster_.state(chip) == topo::ChipState::kFailed) continue;
    cluster_.set_state(chip, topo::ChipState::kFailed);
    ++report_.fatal_chip_failures;
    mark_rack_dirty(cluster_.rack_of(chip));
  }
}

Duration ClusterScheduler::price_recovery(fault::FaultKind flags_kind, bool fatal) {
  // Price the optical response on the pricing fabric: a probe circuit
  // stands in for the job's degraded ring edge, the sampled kind selects
  // the degradation the health monitor would report, and drive_recovery
  // climbs the actual ladder (through the PlanCache) to produce a rung and
  // a wall-clock charge.  The probe and any replacement circuits are torn
  // down afterwards — a transient overlay, never accumulated state.
  const auto wafer = static_cast<fabric::WaferId>(
      report_.fault_events % std::max<std::uint64_t>(1, fab_.wafer_count()));
  const fabric::GlobalTile a = cursor_tile(wafer);
  const fabric::GlobalTile b = cursor_tile(wafer);
  auto probe = fab_.connect(a, b, 1);
  if (!probe) return params_.recovery.detection_latency;

  routing::DegradedCircuit victim;
  victim.id = probe.value();
  switch (flags_kind) {
    case fault::FaultKind::kMziStuck:
    case fault::FaultKind::kFiberCut: victim.hard_down = true; break;
    case fault::FaultKind::kMziDrift:
    case fault::FaultKind::kWaveguideLoss: victim.budget_failed = true; break;
    case fault::FaultKind::kLaserLoss: victim.dead_lasers = 2; break;
    case fault::FaultKind::kChipDeath: victim.src_dead = true; break;
  }
  if (fatal) victim.src_dead = true;

  routing::EscalationOptions opts;
  opts.wavelengths = 1;
  opts.cache = &cache_;
  // The ladder views the spares; each draw advances the cursor, so they are
  // drawn only for a dead source.
  std::array<fabric::GlobalTile, 2> spares{};
  if (victim.src_dead) {
    spares[0] = cursor_tile(wafer);
    spares[1] = cursor_tile(wafer);
    opts.spare_candidates = spares;
  }
  const runtime::RecoveryResult res =
      drive_recovery(fab_, victim, params_.recovery, opts);
  if (res.recovered) {
    ++report_.recovered_by[routing::rung_index(res.rung)];
  }
  std::set<fabric::CircuitId> down{probe.value()};
  down.insert(res.circuits.begin(), res.circuits.end());
  for (const fabric::CircuitId id : down) fab_.disconnect(id);
  return res.total();
}

std::vector<topo::TpuId> ClusterScheduler::survivors_of(
    const Job& job, const std::vector<topo::TpuId>& dead) {
  std::vector<topo::TpuId> survivors;
  for (const topo::TpuId c : job.chips) {
    if (!std::binary_search(dead.begin(), dead.end(), c)) survivors.push_back(c);
  }
  return survivors;
}

void ClusterScheduler::set_degraded_rate(Job& job) const {
  job.rate = std::pow(params_.morph_bandwidth_factor, static_cast<double>(job.morphs)) *
             (static_cast<double>(job.chips.size()) /
              static_cast<double>(job.original_volume));
}

void ClusterScheduler::bank_progress(Job& job, TimePoint at) const {
  const Duration elapsed = std::max(Duration::zero(), at - job.started);
  job.progress = std::min(job.service, job.progress + elapsed * job.rate);
  const double ci = params_.checkpoint_interval.to_seconds();
  job.checkpointed = Duration::seconds(std::floor(job.progress.to_seconds() / ci) * ci);
}

bool ClusterScheduler::respare(Job& job, const std::vector<topo::TpuId>& dead) {
  // One free chip of the same rack per dead chip, ascending chip id; all or
  // nothing.
  std::vector<topo::TpuId> spares;
  for (const topo::TpuId d : dead) {
    topo::TpuId found = -1;
    cluster_.for_each_free_chip(cluster_.rack_of(d), [&](topo::TpuId chip) {
      if (std::find(spares.begin(), spares.end(), chip) != spares.end()) return false;
      if (!chip_usable(chip)) {
        ++report_.morph_deferrals;
        return false;
      }
      found = chip;
      return true;
    });
    if (found < 0) return false;
    spares.push_back(found);
  }
  // Commit: the slice (if any) becomes a chip set; survivors and spares
  // carry the job.
  std::vector<topo::TpuId> survivors = survivors_of(job, dead);
  if (job.slice >= 0) {
    alloc_.release(job.slice);
    job.slice = -1;
    const auto rack = cluster_.rack_of(job.chips.front());
    mark_rack_dirty(rack);
  }
  for (const topo::TpuId d : dead) {
    chip_owner_[static_cast<std::size_t>(d)] = -1;
  }
  job.chips = std::move(survivors);
  for (const topo::TpuId s : spares) job.chips.push_back(s);
  std::sort(job.chips.begin(), job.chips.end());
  for (const topo::TpuId c : job.chips) {
    cluster_.set_state(c, topo::ChipState::kAllocated);
    chip_owner_[static_cast<std::size_t>(c)] = static_cast<std::int64_t>(job.id);
    mark_rack_dirty(cluster_.rack_of(c));
  }
  job.morphed = true;
  ++report_.respares;
  return true;
}

bool ClusterScheduler::morph(Job& job, const std::vector<topo::TpuId>& dead) {
  // Make-before-break: harvest replacements and plan the new stitch ring
  // first; the old ring is torn down only after the new one committed.  An
  // abort rolls back exactly — harvested chips, OCS ports, planned
  // circuits, and the stitch-tile cursor all return to their prior state.
  const auto needed = static_cast<std::int32_t>(dead.size());
  std::vector<Fragment> fresh = harvest(needed);
  if (fresh.empty() && needed > 0) return false;  // infeasible, not an abort

  std::vector<topo::TpuId> survivors = survivors_of(job, dead);
  // Fragment list: survivors grouped by rack (ascending), then the fresh
  // harvest.
  std::vector<Fragment> frags;
  for (const topo::TpuId c : survivors) {
    const topo::RackId rack = cluster_.rack_of(c);
    if (frags.empty() || frags.back().rack != rack) {
      frags.push_back(Fragment{rack, {}});
    }
    frags.back().chips.push_back(c);
  }
  for (const Fragment& f : fresh) frags.push_back(f);  // keep `fresh` intact for rollback
  const auto ports = static_cast<std::uint32_t>(frags.size());
  if (frags.size() > params_.max_fragments || !ocs_.reserve(ports)) {
    unharvest(fresh);
    ++report_.morph_aborts;
    return false;
  }
  const std::array<std::uint32_t, 64> saved_cursor = tile_cursor_;
  const std::vector<routing::Demand> demands = stitch_demands(frags);
  const routing::PlanReport plan = cache_.place_all(demands);
  if (!plan.complete()) {
    cache_.release_all(plan);
    ocs_.release(ports);
    unharvest(fresh);
    tile_cursor_ = saved_cursor;
    ++report_.morph_aborts;
    return false;
  }

  // Commit: break the old ring, adopt the new placement.
  for (const fabric::CircuitId id : job.stitch_circuits) fab_.disconnect(id);
  job.stitch_circuits.clear();
  if (job.ocs_ports > 0) ocs_.release(job.ocs_ports);
  job.ocs_ports = ports;
  for (const routing::PlacedCircuit& p : plan.placed) {
    job.stitch_circuits.push_back(p.id);
  }
  if (job.slice >= 0) {
    alloc_.release(job.slice);
    job.slice = -1;
  }
  for (const topo::TpuId d : dead) {
    chip_owner_[static_cast<std::size_t>(d)] = -1;
  }
  job.chips = std::move(survivors);
  for (const Fragment& f : fresh) {
    for (const topo::TpuId c : f.chips) job.chips.push_back(c);
  }
  std::sort(job.chips.begin(), job.chips.end());
  for (const topo::TpuId c : job.chips) {
    cluster_.set_state(c, topo::ChipState::kAllocated);
    chip_owner_[static_cast<std::size_t>(c)] = static_cast<std::int64_t>(job.id);
    mark_rack_dirty(cluster_.rack_of(c));
  }
  job.morphed = true;
  ++job.morphs;
  set_degraded_rate(job);
  ++report_.morphs;
  return true;
}

void ClusterScheduler::shrink(Job& job, const std::vector<topo::TpuId>& dead) {
  std::vector<topo::TpuId> survivors = survivors_of(job, dead);
  if (job.slice >= 0) {
    alloc_.release(job.slice);
    job.slice = -1;
    for (const topo::TpuId c : survivors) {
      cluster_.set_state(c, topo::ChipState::kAllocated);
    }
  }
  for (const topo::TpuId d : dead) {
    chip_owner_[static_cast<std::size_t>(d)] = -1;
    mark_rack_dirty(cluster_.rack_of(d));
  }
  job.chips = std::move(survivors);
  job.morphed = true;
  set_degraded_rate(job);
  ++report_.elastic_shrinks;
}

void ClusterScheduler::requeue(Job& job) {
  if (job.running) {
    // Bank progress made since the last (re)start before rolling back to
    // the checkpoint — requeue is always a state loss.
    bank_progress(job, engine_.now());
    report_.lost.redo += job.progress - job.checkpointed;
    job.running = false;
    --running_;
  }
  ++job.generation;  // cancels the pending completion
  release_placement(job);
  job.progress = job.checkpointed;
  job.rate = 1.0;
  job.morphs = 0;
  job.morphed = false;
  ++report_.requeues;
  ++job.requeues;
  if (job.requeues > params_.max_requeues) {
    ++report_.aborted;
    jobs_.erase(job.id);
    return;
  }
  queue_.push(job.id, job.shape);
}

void ClusterScheduler::stall_and_resume(Job& job, Duration stall, bool state_loss,
                                        TimePoint at) {
  bank_progress(job, at);
  if (state_loss) {
    report_.lost.redo += job.progress - job.checkpointed;
    job.progress = job.checkpointed;
  }
  --running_;
  job.running = false;
  start_job(job, at + stall);
}

void ClusterScheduler::recover_photonic(Job& job, const FaultEvent& ev,
                                        const std::vector<topo::TpuId>& dead,
                                        Duration detect) {
  const TimePoint now = engine_.now();
  report_.lost.detection += detect;
  if (!ev.fatal) {
    // Component fault: in-place optical repair, a pure stall measured in
    // microseconds; no device state is lost.
    const Duration price = price_recovery(ev.kind, /*fatal=*/false);
    report_.lost.recovery += price;
    ++report_.inplace_repairs;
    stall_and_resume(job, detect + price, /*state_loss=*/false, now);
    return;
  }
  // Fatal chips: escalation in blast-radius order — respare, morph,
  // elastic shrink, requeue.  The optical price (ladder climb) is charged
  // once per event.
  const Duration price = price_recovery(fault::FaultKind::kChipDeath, true);
  report_.lost.recovery += price;
  if (respare(job, dead)) {
    stall_and_resume(job, detect + price, /*state_loss=*/true, now);
    return;
  }
  if (params_.morph_enabled && morph(job, dead)) {
    // A morph also pays one OCS reconfiguration round (MEMS mirrors).
    const Duration ocs_latency = ocs_.reconfigure();
    report_.lost.recovery += ocs_latency;
    stall_and_resume(job, detect + price + ocs_latency, /*state_loss=*/true, now);
    return;
  }
  const auto survivors =
      static_cast<double>(job.chips.size()) - static_cast<double>(dead.size());
  const double floor_chips =
      params_.shrink_min_fraction * static_cast<double>(job.original_volume);
  if (survivors >= floor_chips && survivors >= 1.0) {
    shrink(job, dead);
    stall_and_resume(job, detect + price, /*state_loss=*/true, now);
    return;
  }
  requeue(job);
}

void ClusterScheduler::recover_electrical(Job& job,
                                          const std::vector<topo::TpuId>& dead,
                                          Duration detect) {
  // Rack-granularity baseline: any fault that touches the job — component
  // faults included, §4.2's blast-radius point — drains it and restarts on
  // a fresh contiguous slice elsewhere.
  (void)dead;  // victims already marked failed; the whole slice is drained
  const TimePoint now = engine_.now();
  report_.lost.detection += detect;
  release_placement(job);
  if (place_contiguous(job)) {
    --report_.placed_contiguous;  // a migration, not a fresh admission
    ++report_.migrations;
    report_.lost.recovery += params_.migration_latency;
    stall_and_resume(job, detect + params_.migration_latency,
                     /*state_loss=*/true, now);
    return;
  }
  ++report_.migration_failures;
  requeue(job);
}

void ClusterScheduler::on_fault(const ScriptedClusterFault& s) {
  const TimePoint now = engine_.now();
  accumulate_metrics(now);
  const FaultEvent ev = fault_event(s);
  ++report_.fault_events;
  if (!ev.fatal) ++report_.component_events;

  // Affected running jobs, ascending id (owners looked up before the
  // chips are marked failed).
  std::vector<std::uint64_t> affected;
  for (const topo::TpuId chip : ev.victims) {
    const std::int64_t owner = chip_owner_[static_cast<std::size_t>(chip)];
    if (owner >= 0) affected.push_back(static_cast<std::uint64_t>(owner));
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

  apply_fault(ev);
  const Duration strike = Duration::seconds(now.to_seconds());
  const Duration detect = params_.recovery.detected_at(strike) - strike;
  for (const std::uint64_t id : affected) {
    auto it = jobs_.find(id);
    if (it == jobs_.end() || !it->second.running) continue;
    ++report_.detections;
    Job& job = it->second;
    std::vector<topo::TpuId> dead;
    if (ev.fatal) {
      for (const topo::TpuId c : job.chips) {
        if (std::binary_search(ev.victims.begin(), ev.victims.end(), c)) {
          dead.push_back(c);
        }
      }
    }
    if (params_.policy == SchedulerPolicy::kElectricalOnly) {
      recover_electrical(job, dead, detect);
    } else {
      recover_photonic(job, ev, dead, detect);
    }
  }
  try_admit();
}

void ClusterScheduler::on_gray() {
  const TimePoint now = engine_.now();
  accumulate_metrics(now);
  ++report_.flap_events;
  const auto chips = static_cast<std::uint64_t>(cluster_.chip_count());
  const std::uint64_t flappy = flapping_population();
  // Victim i of the flappy population sits at an even stride, so the gray
  // chips spread across racks instead of clustering in rack 0.
  const std::uint64_t stride = std::max<std::uint64_t>(1, chips / flappy);
  const auto chip = static_cast<topo::TpuId>(
      (gray_victims_.uniform_index(flappy) * stride) % chips);
  const Duration strike = Duration::seconds(now.to_seconds());
  // A flap that leaves the chip quarantined is ridden out (the job rides
  // the dips out), and chip_usable() keeps harvest/respare off the chip
  // until its probation hold completes cleanly.
  if (params_.gray_hysteresis &&
      damper_.ride_out(static_cast<std::uint64_t>(chip), strike)) {
    return;
  }
  // Naive response — and the dampened arm's pre-quarantine thrash: the flap
  // is indistinguishable from a component fault, so the owning job pays the
  // same detection + repair stall on_fault would charge.
  const std::int64_t owner = chip_owner_[static_cast<std::size_t>(chip)];
  if (owner < 0) return;
  auto it = jobs_.find(static_cast<std::uint64_t>(owner));
  if (it == jobs_.end() || !it->second.running) return;
  ++report_.detections;
  ++report_.flap_repairs;
  const Duration detect = params_.recovery.detected_at(strike) - strike;
  if (params_.policy == SchedulerPolicy::kElectricalOnly) {
    recover_electrical(it->second, {}, detect);
  } else {
    FaultEvent ev;
    ev.kind = fault::FaultKind::kMziDrift;
    ev.victims = {chip};
    recover_photonic(it->second, ev, {}, detect);
  }
  try_admit();
}

// ---------------------------------------------------------------------------
// Arrivals / completions.
// ---------------------------------------------------------------------------

void ClusterScheduler::admit_new_job(topo::Shape shape, Duration service) {
  Job job;
  job.id = next_job_id_++;
  job.shape = shape;
  job.service = service;
  job.arrival = engine_.now();
  job.original_volume = shape.size();
  ++report_.offered;
  report_.offered_work_chip_seconds +=
      static_cast<double>(job.original_volume) * service.to_seconds();
  const std::uint64_t id = job.id;
  jobs_.emplace(id, std::move(job));
  queue_.push(id, shape);
  try_admit();
}

void ClusterScheduler::on_arrival() {
  accumulate_metrics(engine_.now());
  // Job attributes come from their own stream so arrival-clock draws never
  // perturb them.
  double total_weight = 0.0;
  for (const ShapeMix& m : params_.mix) total_weight += m.weight;
  double pick = attrs_.uniform() * total_weight;
  topo::Shape shape = params_.mix.back().shape;
  for (const ShapeMix& m : params_.mix) {
    if (pick < m.weight) {
      shape = m.shape;
      break;
    }
    pick -= m.weight;
  }
  const Duration service = std::max(
      params_.service_min,
      Duration::seconds(attrs_.exponential(1.0 / params_.service_mean.to_seconds())));
  admit_new_job(shape, service);
}

void ClusterScheduler::on_scripted_arrival(std::size_t index) {
  accumulate_metrics(engine_.now());
  const ScriptedJob& s = params_.job_script[index];
  admit_new_job(s.shape, s.service);
}

void ClusterScheduler::on_completion(std::uint64_t id, std::uint32_t generation) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  if (!job.running || job.generation != generation) return;  // stale event
  const TimePoint now = engine_.now();
  accumulate_metrics(now);
  ++report_.completed;
  report_.completed_work_chip_seconds +=
      static_cast<double>(job.original_volume) * job.service.to_seconds();
  fold_digest(id);
  fold_digest(std::bit_cast<std::uint64_t>(now.to_seconds()));
  release_placement(job);
  --running_;
  jobs_.erase(it);
  try_admit();
}

// ---------------------------------------------------------------------------
// Run / finalize.
// ---------------------------------------------------------------------------

ClusterReport ClusterScheduler::run() {
  report_ = ClusterReport{};
  report_.policy = params_.policy;

  // Poisson arrivals, faults and flaps stop at the horizon; the drain only
  // finishes work already in flight.
  const TimePoint horizon = TimePoint::at_seconds(params_.horizon.to_seconds());
  if (!params_.job_script.empty()) {
    for (std::size_t i = 0; i < params_.job_script.size(); ++i) {
      engine_.schedule_at(
          TimePoint::at_seconds(params_.job_script[i].at.to_seconds()),
          [this, i] { on_scripted_arrival(i); });
    }
  } else {
    sim::schedule_poisson(engine_, arrivals_, params_.arrival_rate_per_s, horizon,
                          [this] { on_arrival(); });
  }
  if (!params_.script.empty()) {
    for (std::size_t i = 0; i < params_.script.size(); ++i) {
      engine_.schedule_at(TimePoint::at_seconds(params_.script[i].at.to_seconds()),
                          [this, i] { on_fault(params_.script[i]); });
    }
  } else if (params_.mtbf_hours > 0.0) {
    sim::schedule_poisson(
        engine_, fault_clock_,
        static_cast<double>(cluster_.chip_count()) / (params_.mtbf_hours * 3600.0),
        horizon, [this] { on_fault(draw_fault()); });
  }
  sim::schedule_poisson(
      engine_, gray_clock_,
      static_cast<double>(flapping_population()) * params_.flap_rate_per_hour / 3600.0,
      horizon, [this] { on_gray(); });

  const TimePoint end =
      TimePoint::at_seconds((params_.horizon + params_.drain).to_seconds());
  engine_.run_until(end);
  accumulate_metrics(end);

  // Jobs still running or queued never completed inside the window.
  report_.unserved = jobs_.size();
  report_.chip_quarantines = damper_.stats().quarantines;
  report_.chip_probations = damper_.stats().probations;
  report_.suppressed_repairs = damper_.stats().suppressed_repairs;
  report_.makespan = end - TimePoint::at_seconds(0.0);
  const double span = report_.makespan.to_seconds();
  report_.frag_stranding_avg = span > 0.0 ? frag_integral_ / span : 0.0;
  report_.utilization_avg = span > 0.0 ? util_integral_ / span : 0.0;
  if (!queue_delays_.empty()) {
    double sum = 0.0;
    for (const double d : queue_delays_) sum += d;
    report_.queue_delay_mean_s = sum / static_cast<double>(queue_delays_.size());
    const std::vector<double> q = percentiles(queue_delays_, {50.0, 99.0});
    report_.queue_delay_p50_s = q[0];
    report_.queue_delay_p99_s = q[1];
  }

  // Outcome digest: chip states, ledger, OCS occupancy, work totals.
  for (topo::TpuId c = 0; c < cluster_.chip_count(); ++c) {
    fold_digest(static_cast<std::uint64_t>(cluster_.state(c)) + 1);
  }
  fold_digest(fab_.ledger_digest());
  fold_digest(ocs_.ports_used());
  fold_digest(std::bit_cast<std::uint64_t>(report_.offered_work_chip_seconds));
  fold_digest(std::bit_cast<std::uint64_t>(report_.completed_work_chip_seconds));
  fold_digest(std::bit_cast<std::uint64_t>(report_.frag_stranding_avg));
  fold_digest(report_.completed);
  fold_digest(report_.offered);
  return report_;
}

ClusterReport run_cluster(const ClusterParams& params) {
  ClusterScheduler scheduler{params};
  return scheduler.run();
}

// ---------------------------------------------------------------------------
// Sweep.
// ---------------------------------------------------------------------------

ClusterSweepReport run_cluster_sweep(const ClusterSweepConfig& config) {
  const std::size_t trials = config.trials;
  const std::vector<ClusterReport> reports = util::paired_sweep<ClusterReport>(
      config.mtbf_points.size(), trials, config.base.seed, config.threads,
      [&](std::size_t p, std::size_t arm, std::uint64_t seed) {
        ClusterParams cp = config.base;
        cp.mtbf_hours = config.mtbf_points[p];
        cp.policy = arm == 0 ? SchedulerPolicy::kPhotonicMorph
                             : SchedulerPolicy::kElectricalOnly;
        cp.seed = seed;
        return run_cluster(cp);
      });

  ClusterSweepReport out;
  const auto chip_count =
      topo::TpuCluster{config.base.cluster}.chip_count();
  for (std::size_t p = 0; p < config.mtbf_points.size(); ++p) {
    for (int pol = 0; pol < 2; ++pol) {
      ClusterPointReport pt;
      pt.mtbf_hours = config.mtbf_points[p];
      pt.policy = pol == 0 ? SchedulerPolicy::kPhotonicMorph
                           : SchedulerPolicy::kElectricalOnly;
      pt.trials = config.trials;
      for (std::size_t t = 0; t < trials; ++t) {
        const ClusterReport& r =
            reports[(p * 2 + static_cast<std::size_t>(pol)) * trials + t];
        pt.accepted_load_mean += r.accepted_load();
        pt.goodput_mean += r.goodput(chip_count);
        pt.queue_delay_p50_s += r.queue_delay_p50_s;
        pt.queue_delay_p99_s += r.queue_delay_p99_s;
        pt.frag_stranding_avg += r.frag_stranding_avg;
        pt.utilization_avg += r.utilization_avg;
        pt.completed += r.completed;
        pt.offered += r.offered;
        pt.requeues += r.requeues;
        pt.aborted += r.aborted;
        pt.morphs += r.morphs;
        pt.elastic_shrinks += r.elastic_shrinks;
        pt.migrations += r.migrations;
        pt.fault_events += r.fault_events;
        out.digest = fabric::hash_mix(out.digest, r.digest);
      }
      const double n = static_cast<double>(trials);
      pt.accepted_load_mean /= n;
      pt.goodput_mean /= n;
      pt.queue_delay_p50_s /= n;
      pt.queue_delay_p99_s /= n;
      pt.frag_stranding_avg /= n;
      pt.utilization_avg /= n;
      out.points.push_back(pt);
    }
  }
  return out;
}

}  // namespace lp::cluster
