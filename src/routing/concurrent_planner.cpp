#include "routing/concurrent_planner.hpp"

#include <atomic>
#include <optional>

#include "routing/shard_ledger.hpp"
#include "util/parallel.hpp"

namespace lp::routing {

namespace {

struct Precomputed {
  Demand demand{};
  /// Hop path found against the snapshot (same-wafer demands only).
  std::optional<std::vector<fabric::Direction>> hops;
};

}  // namespace

ConcurrentPlanResult plan_jobs(fabric::Fabric& fab,
                               const std::vector<std::vector<Demand>>& jobs,
                               const RouteOptions& options, unsigned threads) {
  PlanJobsOptions opts;
  opts.route = options;
  opts.threads = threads;
  return plan_jobs(fab, jobs, opts);
}

ConcurrentPlanResult plan_jobs(fabric::Fabric& fab,
                               const std::vector<std::vector<Demand>>& jobs,
                               const PlanJobsOptions& plan_options) {
  const RouteOptions& options = plan_options.route;
  const unsigned threads = plan_options.threads;
  ConcurrentPlanResult result;
  result.stats.jobs = jobs.size();
  result.reports.resize(jobs.size());

  // Phase A: parallel route precompute against the pre-commit fabric state.
  // Nothing mutates the fabric until Phase B, so concurrent reads of the
  // wafer ledgers see one frozen snapshot.  The sharded overlay absorbs the
  // speculative reservations so Phase A needs no lock on the real ledger.
  ShardedLaneLedger overlay{fab};
  std::vector<std::vector<Precomputed>> pre(jobs.size());
  std::vector<std::uint64_t> found_per_job(jobs.size(), 0);
  std::atomic<std::uint64_t> overlay_rejected{0};

  util::run_tasks(threads, jobs.size(), [&](std::size_t j) {
    std::vector<Precomputed> out;
    const std::vector<Demand> ordered = plan_order(fab, jobs[j]);
    out.reserve(ordered.size());
    for (const Demand& d : ordered) {
      Precomputed p;
      p.demand = d;
      // A demand with an endpoint off the fabric gets no route here, so
      // Phase B's place_one fails it.
      if (d.src.wafer == d.dst.wafer && fab.contains(d.src) && fab.contains(d.dst)) {
        RouteOptions opts = options;
        opts.lanes = d.wavelengths;
        p.hops = find_route(fab.wafer(d.src.wafer), d.src.tile, d.dst.tile, opts);
        if (p.hops) {
          ++found_per_job[j];
          if (!overlay.try_reserve_path(d.src.wafer, d.src.tile, *p.hops,
                                        d.wavelengths)) {
            // Predicted commit-time contention.  Diagnostic only: the route
            // is kept; Phase B's connect_via is the arbiter.
            overlay_rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      out.push_back(std::move(p));
    }
    pre[j] = std::move(out);
  });

  // Phase B: sequential commit in ascending job order against the live
  // ledger.  This ordering — not Phase A's schedule — decides every
  // resource outcome, so reports are bit-identical at any thread count.
  CircuitPlanner planner{fab, options};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    PlanReport& report = result.reports[j];
    result.stats.demands += pre[j].size();
    for (const Precomputed& p : pre[j]) {
      Result<fabric::CircuitId> placed = Err("no precomputed route");
      bool fast = false;
      if (p.hops) {
        placed = fab.connect_via(p.demand.src, p.demand.dst, *p.hops,
                                 p.demand.wavelengths);
        fast = placed.ok();
      }
      if (!placed) {
        // Lanes moved since the snapshot (an earlier job took them) or the
        // demand had no precomputed route: re-plan against the live ledger,
        // exactly as a sequential planner would.
        placed = planner.place_one(p.demand);
        ++result.stats.replans;
      }
      if (fast) ++result.stats.fast_path_commits;
      if (placed) {
        const fabric::Circuit* c = fab.circuit(placed.value());
        report.mzis_programmed += c != nullptr ? c->mzi_count : 0;
        report.placed.push_back(PlacedCircuit{p.demand, placed.value()});
      } else {
        report.failed.push_back(p.demand);
        if (plan_options.atomic_jobs) break;
      }
    }
    if (plan_options.atomic_jobs && !report.failed.empty()) {
      // All-or-nothing: tear down this job's partial placement in reverse
      // commit order, still inside the sequential Phase B, so later jobs
      // (and any thread count) see the identical ledger.
      for (auto it = report.placed.rbegin(); it != report.placed.rend(); ++it) {
        fab.disconnect(it->id);
      }
      report.placed.clear();
      report.mzis_programmed = 0;
      report.failed.clear();
      for (const Precomputed& p : pre[j]) report.failed.push_back(p.demand);
      ++result.stats.jobs_rolled_back;
    }
    report.reconfig_latency = fab.reconfig().batch_latency(report.mzis_programmed);
  }

  for (std::uint64_t f : found_per_job) result.stats.routes_precomputed += f;
  result.stats.overlay_rejected = overlay_rejected.load(std::memory_order_relaxed);
  return result;
}

}  // namespace lp::routing
