#include "core/failure_study.hpp"

#include <algorithm>

#include <memory>
#include <optional>

#include "core/photonic_rack.hpp"
#include "fault/gray.hpp"
#include "topo/slice.hpp"
#include "util/parallel.hpp"

namespace lp::core {
namespace {

/// Per-worker reusable world: template cluster + packing (+ photonic rack
/// for the optical policy), built once and restored after every trial.
struct TrialWorkspace {
  topo::TpuCluster cluster{};
  topo::SliceAllocator alloc{cluster};
  std::optional<PhotonicRack> rack;
  /// Steady-state ring traffic per slice of the template packing; the
  /// template never changes, so each slice's rings are derived once.
  std::vector<coll::SliceTraffic> traffic;

  explicit TrialWorkspace(FailurePolicy policy) {
    pack_template_rack(alloc);
    if (policy == FailurePolicy::kOpticalRepair) rack.emplace(cluster, 0);
  }

  const coll::SliceTraffic* traffic_of(topo::TpuId victim) {
    const auto owner = alloc.owner(victim);
    if (!owner) return nullptr;
    for (const auto& t : traffic) {
      if (t.slice == *owner) return &t;
    }
    const topo::Slice* slice = alloc.slice(*owner);
    if (slice == nullptr) return nullptr;
    traffic.push_back(
        coll::slice_traffic(cluster, *slice, coll::RingSelection::kUsableOnly));
    return &traffic.back();
  }

  FailureImpact assess(topo::TpuId victim, FailurePolicy policy,
                       const FailureImpactParams& params) {
    const topo::ChipState before = cluster.state(victim);
    FailureImpact impact = assess_failure(cluster, alloc, victim, policy, params,
                                          rack.has_value() ? &*rack : nullptr,
                                          traffic_of(victim));
    // Restore the template: un-fail the victim, tear down repair circuits.
    cluster.set_state(victim, before);
    if (rack.has_value()) {
      for (const fabric::CircuitId id : impact.repair_circuits)
        rack->fabric().disconnect(id);
    }
    return impact;
  }
};

}  // namespace

void pack_template_rack(topo::SliceAllocator& alloc, topo::RackId rack) {
  (void)alloc.allocate_at(rack, topo::Coord{{0, 0, 0}}, topo::Shape{{4, 4, 2}});
  (void)alloc.allocate_at(rack, topo::Coord{{0, 0, 2}}, topo::Shape{{4, 4, 1}});
  (void)alloc.allocate_at(rack, topo::Coord{{0, 0, 3}}, topo::Shape{{4, 2, 1}});
}

std::vector<FailureImpact> assess_failures_batch(FailurePolicy policy,
                                                 const std::vector<topo::TpuId>& victims,
                                                 const FailureImpactParams& params,
                                                 unsigned threads) {
  // Assessment is a pure function of the victim given the reset template, so
  // each distinct victim is assessed once and repeated draws share the result
  // (a Monte-Carlo sweep draws from one rack, so the distinct count is
  // bounded by the rack size however long the horizon is).
  std::vector<topo::TpuId> unique = victims;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  std::vector<FailureImpact> unique_impacts(unique.size());
  std::optional<util::ThreadPool> local;
  util::ThreadPool& pool = util::resolve_pool(threads, local);
  std::vector<std::unique_ptr<TrialWorkspace>> workspaces(pool.size());
  pool.run(unique.size(), [&](std::size_t i, unsigned worker) {
    auto& ws = workspaces[worker];
    if (ws == nullptr) ws = std::make_unique<TrialWorkspace>(policy);
    unique_impacts[i] = ws->assess(unique[i], policy, params);
  });

  std::vector<FailureImpact> impacts(victims.size());
  for (std::size_t i = 0; i < victims.size(); ++i) {
    const auto it = std::lower_bound(unique.begin(), unique.end(), victims[i]);
    impacts[i] = unique_impacts[static_cast<std::size_t>(it - unique.begin())];
  }
  return impacts;
}

AvailabilityReport run_failure_study(FailurePolicy policy,
                                     const FailureStudyParams& params) {
  AvailabilityReport report;
  report.policy = policy;

  // Fleet failure rate: fleet_chips / mtbf per hour.  The arrival process
  // is one serial stream: it alone decides how many failures the horizon
  // sees, independent of how trials are later scheduled.
  const double rate_per_hour =
      static_cast<double>(params.fleet_chips) / params.mtbf_hours;
  Rng arrivals{params.seed};
  std::size_t trials = 0;
  for (double t = arrivals.exponential(rate_per_hour); t < params.horizon_hours;
       t += arrivals.exponential(rate_per_hour)) {
    ++trials;
  }
  report.failures = trials;

  // Victim of trial i depends only on (seed, i): bit-identical at any
  // thread count.
  topo::TpuCluster template_cluster;
  topo::SliceAllocator template_alloc{template_cluster};
  pack_template_rack(template_alloc);
  const auto allocated =
      template_cluster.chips_in_state(topo::ChipState::kAllocated);
  std::vector<topo::TpuId> victims(trials);
  for (std::size_t i = 0; i < trials; ++i) {
    Rng rng{util::task_seed(params.seed, i)};
    victims[i] = allocated[rng.uniform_index(allocated.size())];
  }

  const auto impacts =
      assess_failures_batch(policy, victims, params.impact, params.threads);

  // Fold in trial order so the floating-point sum is schedule-independent.
  for (const FailureImpact& impact : impacts) {
    if (!impact.feasible) {
      ++report.unrecovered;
      if (impact.cause == UnrecoveredCause::kSpareExhausted) {
        ++report.unrecovered_spare_exhausted;
      } else {
        ++report.unrecovered_plan_failure;
      }
      // Unrecoverable in place: falls back to migration cost.
      report.chip_hours_lost +=
          static_cast<double>(template_cluster.chips_per_rack()) *
          params.impact.migration_time.to_seconds() / 3600.0;
    } else {
      report.chip_hours_lost += static_cast<double>(impact.blast_radius_chips) *
                                impact.recovery_time.to_seconds() / 3600.0;
    }
  }

  const double fleet_hours =
      static_cast<double>(params.fleet_chips) * params.horizon_hours;
  report.availability = 1.0 - report.chip_hours_lost / fleet_hours;
  return report;
}

namespace {

/// The component study's representative fabric: two wafers bridged by one
/// 64-fiber bundle per edge-tile pair, carrying a neighbor ring on tiles
/// 0..27 of each wafer (2 lambdas per circuit) plus cross-wafer circuits.
/// Tiles 28..31 of each wafer stay idle — the spare pool rung 3 draws from.
constexpr std::uint32_t kRingTiles = 28;
constexpr std::uint32_t kBaselineLambdas = 2;

fabric::FabricConfig component_fabric_config() {
  fabric::FabricConfig config;
  config.wafer_count = 2;
  return config;
}

/// Per-worker reusable world for the component-fault study.
struct ComponentWorkspace {
  ComponentStudyParams params;
  fabric::Fabric fab;
  fault::FaultInjector injector;
  fault::HealthMonitor monitor;
  /// Tiles with no endpoint wavelength in use, refilled per victim
  /// (routing::free_tiles): the spare candidates the ladder views.  Dead
  /// chips are excluded automatically — the applied fault set parks their
  /// endpoint wavelengths.
  std::vector<fabric::GlobalTile> spares;

  explicit ComponentWorkspace(const ComponentStudyParams& p)
      : params{p},
        fab{component_fabric_config()},
        injector{fab, p.model, p.seed},
        monitor{p.health} {
    // Bundles between wafer 0's east column and wafer 1's west column.
    const auto& w = fab.wafer(0);
    for (std::int32_t row = 0; row < w.rows(); ++row) {
      const auto east = w.tile_at({row, w.cols() - 1});
      const auto west = w.tile_at({row, 0});
      fab.add_fiber_link({0, east}, {1, west}, 64);
    }
    establish_baseline();
  }

  void establish_baseline() {
    for (fabric::WaferId wafer = 0; wafer < fab.wafer_count(); ++wafer) {
      for (std::uint32_t t = 0; t < kRingTiles; ++t) {
        (void)fab.connect({wafer, t}, {wafer, (t + 1) % kRingTiles},
                          kBaselineLambdas);
      }
    }
    // Cross-wafer circuits from three of the bundle tiles into wafer 1's
    // ring (the fourth bundle stays spare for rerouting headroom).
    const auto& w = fab.wafer(0);
    for (std::int32_t row = 0; row < w.rows() - 1; ++row) {
      (void)fab.connect({0, w.tile_at({row, w.cols() - 1})},
                        {1, w.tile_at({row, 0})}, kBaselineLambdas);
    }
  }

  struct TrialResult {
    std::uint64_t faults{0};
    bool burst{false};
    std::uint64_t degraded{0};
    std::uint64_t hard_down{0};
    std::uint64_t unrecovered{0};
    std::uint64_t unrecovered_transient{0};
    std::uint64_t transient_failures{0};
    std::array<std::uint64_t, routing::kRepairRungCount> recovered_by{};
    std::array<std::uint64_t, routing::kRepairRungCount> attempts{};
    double chip_hours{0.0};
    double recovery_seconds{0.0};
  };

  TrialResult run_trial(std::uint64_t trial) {
    TrialResult r;
    // One stream per trial: the injector's draws come first, then the
    // per-victim electrical-feasibility draws, so the whole trial is a pure
    // function of (seed, trial).
    Rng rng{util::task_seed(params.seed, trial)};
    const std::vector<fault::Fault> faults = injector.sample(rng);
    fault::FaultSet fs;
    fs.add_all(faults);
    r.faults = faults.size();
    r.burst = faults.size() > 1;

    fs.apply_to(fab, params.model.quarantine_threshold);
    const auto diagnoses = monitor.scan(fab, fs);
    for (std::size_t v = 0; v < diagnoses.size(); ++v) {
      const fault::CircuitDiagnosis& d = diagnoses[v];
      ++r.degraded;
      if (d.health == fault::CircuitHealth::kDown) ++r.hard_down;

      routing::EscalationOptions opts;
      opts.retries_per_rung = params.retries_per_rung;
      routing::free_tiles(fab, spares);
      opts.spare_candidates = spares;
      opts.electrical_feasible = rng.bernoulli(params.electrical_feasible_p);
      opts.validate = [this, &fs](const fabric::Fabric& f, fabric::CircuitId id) {
        return monitor.diagnose(f, fs, id).health == fault::CircuitHealth::kHealthy;
      };
      if (params.settle_failure_probability > 0.0) {
        // Per-(trial, victim) oracle stream, keyed on the victim's position
        // in the scan: circuit ids count every circuit the worker's
        // template ever established, so they depend on how trials land on
        // workers; scan positions do not.
        const std::uint64_t oracle_seed = util::task_seed(
            util::task_seed(params.seed, trial), 0x5e771e ^ v);
        const double p = params.settle_failure_probability;
        opts.transient_failure = [oracle_seed, p](routing::RepairRung,
                                                  std::uint32_t attempt) {
          return fault::settle_transient_failure(oracle_seed, attempt, p);
        };
        opts.backoff = params.backoff;
        opts.backoff.seed = oracle_seed;
      }
      const routing::EscalationOutcome out =
          routing::escalate_repair(fab, fault::to_degraded(d), opts);
      for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
        r.attempts[k] += out.attempts[k];
      }
      r.transient_failures += out.transient_failures;
      if (out.recovered) {
        const std::size_t k = routing::rung_index(out.rung);
        ++r.recovered_by[k];
        r.chip_hours += static_cast<double>(params.rung_blast_chips[k]) *
                        out.latency.to_seconds() / 3600.0;
        r.recovery_seconds += out.latency.to_seconds();
      } else {
        ++r.unrecovered;
        if (out.transient_failed) ++r.unrecovered_transient;
      }
    }

    // Restore the template for the next trial: lift the fault overlay, tear
    // every circuit down, re-establish the baseline.
    fs.revert(fab);
    for (const fabric::CircuitId id : fab.circuit_ids()) fab.disconnect(id);
    establish_baseline();
    return r;
  }
};

}  // namespace

ComponentAvailabilityReport run_component_fault_study(
    const ComponentStudyParams& params) {
  ComponentAvailabilityReport report;

  // Fault arrivals, like the chip study: one serial stream decides how many
  // events the horizon sees.
  const double rate_per_hour =
      static_cast<double>(params.fleet_chips) / params.component_mtbf_hours;
  Rng arrivals{params.seed};
  std::size_t trials = 0;
  for (double t = arrivals.exponential(rate_per_hour); t < params.horizon_hours;
       t += arrivals.exponential(rate_per_hour)) {
    ++trials;
  }
  report.fault_events = trials;

  std::vector<ComponentWorkspace::TrialResult> results(trials);
  std::optional<util::ThreadPool> local;
  util::ThreadPool& pool = util::resolve_pool(params.threads, local);
  std::vector<std::unique_ptr<ComponentWorkspace>> workspaces(pool.size());
  pool.run(trials, [&](std::size_t i, unsigned worker) {
    auto& ws = workspaces[worker];
    if (ws == nullptr) ws = std::make_unique<ComponentWorkspace>(params);
    results[i] = ws->run_trial(i);
  });

  // Fold in trial order: schedule-independent sums.
  for (const auto& r : results) {
    report.faults_injected += r.faults;
    if (r.burst) ++report.bursts;
    report.degraded_circuits += r.degraded;
    report.hard_down_circuits += r.hard_down;
    report.unrecovered += r.unrecovered;
    report.unrecovered_transient += r.unrecovered_transient;
    report.transient_repair_failures += r.transient_failures;
    for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
      report.recovered_by[k] += r.recovered_by[k];
      report.attempts[k] += r.attempts[k];
    }
    report.chip_hours_lost += r.chip_hours;
    report.recovery_seconds_total += r.recovery_seconds;
  }

  const double fleet_hours =
      static_cast<double>(params.fleet_chips) * params.horizon_hours;
  report.availability = 1.0 - report.chip_hours_lost / fleet_hours;
  return report;
}

}  // namespace lp::core
