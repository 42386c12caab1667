#include "routing/decentralized.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "sim/event_engine.hpp"

namespace lp::routing {

using fabric::TileId;
using fabric::Wafer;

namespace {

struct DemandState {
  Demand demand;
  unsigned retries{0};
  unsigned messages{0};
};

}  // namespace

DecentralizedReport run_decentralized_setup(const fabric::Fabric& fab,
                                            const std::vector<Demand>& demands,
                                            const DecentralizedParams& params) {
  DecentralizedReport report;
  report.per_demand.resize(demands.size());
  if (demands.empty()) return report;

  // Scratch lane ledger: protocol reservations happen here.
  std::vector<Wafer> wafers;
  wafers.reserve(fab.wafer_count());
  for (fabric::WaferId w = 0; w < fab.wafer_count(); ++w) wafers.push_back(fab.wafer(w));

  sim::EventEngine queue;
  Rng rng{params.seed};
  std::vector<DemandState> states;
  states.reserve(demands.size());
  for (const Demand& d : demands) states.push_back(DemandState{d, 0, 0});

  // Each attempt walks the path hop by hop in simulated time.  The walk is
  // modelled as a single event at the attempt's completion time, with the
  // reservation outcome decided against the scratch ledger at send time —
  // an optimistic approximation that still captures contention, because
  // reservations from earlier-scheduled attempts are visible to later ones
  // through the shared ledger.
  using AttemptFn = std::function<void(std::size_t)>;
  AttemptFn attempt_fn;  // outlives queue.run(); callbacks hold a raw pointer
  AttemptFn* attempt = &attempt_fn;

  attempt_fn = [&, attempt](std::size_t i) {
    DemandState& st = states[i];
    const Demand& d = st.demand;
    if (d.src.wafer != d.dst.wafer) {
      // Cross-wafer demands are out of scope for the on-wafer protocol.
      report.per_demand[i] = SetupOutcome{false, queue.now() - TimePoint{}, st.retries,
                                          st.messages};
      ++report.failures;
      return;
    }
    Wafer& w = wafers[d.src.wafer];
    const bool yx = st.retries % 2 == 1;  // alternate path variant per retry
    const auto hops = fabric::Fabric::xy_route(w, d.src.tile, d.dst.tile, yx);

    // Walk hop-by-hop until a reservation fails.
    TileId at = d.src.tile;
    std::size_t taken = 0;
    for (; taken < hops.size(); ++taken) {
      if (!w.reserve_lanes(at, hops[taken], d.wavelengths)) break;
      at = *w.neighbor(at, hops[taken]);
    }
    const bool ok = taken == hops.size();
    const std::size_t probe_hops = ok ? hops.size() : taken + 1;
    // Probe to the failure point (or destination) + ack/nack back.
    const Duration elapsed =
        (params.hop_latency + params.process_latency) * static_cast<double>(2 * probe_hops);
    st.messages += static_cast<unsigned>(2 * probe_hops);

    if (ok) {
      queue.schedule_in(elapsed, [&, i] {
        report.per_demand[i] =
            SetupOutcome{true, queue.now() - TimePoint{}, states[i].retries,
                         states[i].messages};
      });
      return;
    }

    // Unwind partial reservations and retry with backoff.
    TileId back = d.src.tile;
    for (std::size_t h = 0; h < taken; ++h) {
      w.release_lanes(back, hops[h], d.wavelengths);
      back = *w.neighbor(back, hops[h]);
    }
    ++st.retries;
    if (st.retries > params.max_retries) {
      queue.schedule_in(elapsed, [&, i] {
        report.per_demand[i] = SetupOutcome{false, queue.now() - TimePoint{},
                                            states[i].retries, states[i].messages};
        ++report.failures;
      });
      return;
    }
    const double scale = static_cast<double>(1u << std::min(st.retries, 16u));
    const Duration backoff = params.backoff_base * (scale * rng.uniform(0.5, 1.5));
    queue.schedule_in(elapsed + backoff, [attempt, i] { (*attempt)(i); });
  };

  for (std::size_t i = 0; i < demands.size(); ++i) {
    queue.schedule_at(TimePoint{}, [attempt, i] { (*attempt)(i); });
  }
  queue.run();

  for (const auto& outcome : report.per_demand) {
    report.total_messages += outcome.messages;
    report.makespan = std::max(report.makespan, outcome.completion);
  }
  report.settle = fab.reconfig().settle_latency();
  report.makespan += report.settle;
  return report;
}

Duration centralized_setup_latency(const fabric::Fabric& fab, std::size_t demand_count,
                                   const CentralizedParams& params) {
  return params.request_rtt +
         params.plan_per_demand * static_cast<double>(demand_count) +
         fab.reconfig().settle_latency();
}

}  // namespace lp::routing
