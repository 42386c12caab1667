#include "sim/flow_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

namespace lp::sim {
namespace {

/// Bits at or below this are "already delivered": the transfer completes
/// instantly instead of scheduling a vanishing simulation round.
constexpr double kDoneBitsEps = 1e-6;
constexpr std::uint32_t kNoLink = std::numeric_limits<std::uint32_t>::max();
/// Below this many contended links, a flat rescan of the active-link table
/// is faster than maintaining a heap (fewer than ~2 cache lines of shares).
constexpr std::size_t kHeapThreshold = 96;

/// Incremental progressive-filling solver.
///
/// The flow->link incidence is built once per phase (prepare()) as CSR over
/// a dense link index (`topo::link_key` compressed to the links the phase
/// actually uses).  Each round seeds per-link residual capacity, cached
/// fair share, and unfrozen-flow counters for the still-active flows, then
/// repeatedly freezes the bottleneck link: freezing updates the counters,
/// residuals, and cached shares of exactly the links the frozen flows
/// cross.  Selection is a compare-only rescan of a dense active-link table
/// for small rounds and a revalidate-on-pop lazy min-heap for large ones —
/// either way O(near-linear in incidences) over flat arrays instead of the
/// previous O(bottlenecks * links * flows) rescans over an unordered_map.
/// All buffers are reused across phases, so steady-state execution does not
/// allocate.
class MaxMinSolver {
 public:
  explicit MaxMinSolver(double capacity_bps) : capacity_bps_{capacity_bps} {}

  /// Builds the incidence tables for one phase.  Returns the phase-start
  /// peak link load (total crossing flows on the most loaded link).
  std::uint32_t prepare(const std::vector<coll::Transfer>& transfers) {
    std::size_t max_key = 0;
    std::size_t edges = 0;
    for (const auto& t : transfers) {
      for (const auto& l : t.route) {
        max_key = std::max(max_key, topo::link_key(l));
        ++edges;
      }
    }
    key_to_link_.assign(edges > 0 ? max_key + 1 : 0, kNoLink);
    link_count_ = 0;
    flow_offsets_.resize(transfers.size() + 1);
    flow_links_.clear();
    flow_links_.reserve(edges);
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      flow_offsets_[i] = static_cast<std::uint32_t>(flow_links_.size());
      for (const auto& l : transfers[i].route) {
        std::uint32_t& dense = key_to_link_[topo::link_key(l)];
        if (dense == kNoLink) {
          dense = static_cast<std::uint32_t>(link_count_);
          ++link_count_;
        }
        flow_links_.push_back(dense);
      }
    }
    flow_offsets_[transfers.size()] = static_cast<std::uint32_t>(flow_links_.size());

    residual_.resize(link_count_);
    share_.resize(link_count_);
    unfrozen_.assign(link_count_, 0);
    link_flow_offsets_.resize(link_count_);
    link_cursor_.resize(link_count_);
    link_flows_.resize(flow_links_.size());
    frozen_.resize(transfers.size());
    touched_.clear();
    touched_.reserve(link_count_);

    std::uint32_t peak = 0;
    for (std::uint32_t l : flow_links_) peak = std::max(peak, ++unfrozen_[l]);
    for (std::uint32_t l : flow_links_) unfrozen_[l] = 0;
    return peak;
  }

  /// Max-min fair rates for the active flows of one round.
  void solve(const std::vector<std::size_t>& active,
             const std::vector<coll::Transfer>& transfers,
             std::vector<double>& rate_bps) {
    touched_.clear();
    electrical_.clear();
    for (std::size_t i : active) {
      const coll::Transfer& t = transfers[i];
      if (t.is_optical()) {
        rate_bps[i] = t.dedicated_rate.to_bps();
        continue;
      }
      if (t.route.empty()) {
        // Degenerate: no links -> treat as instantaneous at link capacity.
        rate_bps[i] = capacity_bps_;
        continue;
      }
      electrical_.push_back(i);
      frozen_[i] = false;
      for (std::uint32_t e = flow_offsets_[i]; e < flow_offsets_[i + 1]; ++e) {
        const std::uint32_t l = flow_links_[e];
        if (unfrozen_[l] == 0) touched_.push_back(l);
        ++unfrozen_[l];
      }
    }

    // Link -> active flows, CSR over the touched links of this round.
    std::uint32_t offset = 0;
    for (std::uint32_t l : touched_) {
      residual_[l] = capacity_bps_;
      share_[l] = capacity_bps_ / static_cast<double>(unfrozen_[l]);
      link_flow_offsets_[l] = offset;
      link_cursor_[l] = offset;
      offset += unfrozen_[l];
    }
    for (std::size_t i : electrical_) {
      for (std::uint32_t e = flow_offsets_[i]; e < flow_offsets_[i + 1]; ++e) {
        link_flows_[link_cursor_[flow_links_[e]]++] = static_cast<std::uint32_t>(i);
      }
    }

    // Bottleneck selection: repeatedly freeze the (share, link)-lexicographic
    // minimum among links that still carry unfrozen flows.  Freezing a
    // bottleneck's flows updates the residual, counter, and cached share of
    // exactly the links those flows cross.  The tiebreak on link id makes
    // the freeze order, and hence every floating-point subtraction, fully
    // deterministic, whichever selection structure picks the minimum.
    //
    // `freeze` returns the number of links the frozen flows cross (0 when
    // every flow of the link was already frozen through another link).
    const auto freeze = [&](std::uint32_t best, double best_share) {
      const std::uint32_t begin = link_flow_offsets_[best];
      const std::uint32_t end = link_cursor_[best];
      for (std::uint32_t s = begin; s < end; ++s) {
        const std::uint32_t f = link_flows_[s];
        if (frozen_[f]) continue;
        rate_bps[f] = best_share;
        frozen_[f] = true;
        for (std::uint32_t e = flow_offsets_[f]; e < flow_offsets_[f + 1]; ++e) {
          const std::uint32_t l2 = flow_links_[e];
          residual_[l2] -= best_share;
          if (--unfrozen_[l2] > 0) {
            share_[l2] = residual_[l2] / static_cast<double>(unfrozen_[l2]);
          }
        }
      }
    };

    if (touched_.size() < kHeapThreshold) {
      // Few links: a compare-only scan over the dense active-link table
      // (compacting drained links out with swap-erase) beats any queue.
      links_.assign(touched_.begin(), touched_.end());
      while (!links_.empty()) {
        double best_share = std::numeric_limits<double>::infinity();
        std::uint32_t best = kNoLink;
        for (std::size_t p = 0; p < links_.size();) {
          const std::uint32_t l = links_[p];
          if (unfrozen_[l] == 0) {
            links_[p] = links_.back();
            links_.pop_back();
            continue;
          }
          if (share_[l] < best_share || (share_[l] == best_share && l < best)) {
            best_share = share_[l];
            best = l;
          }
          ++p;
        }
        if (best == kNoLink) break;
        freeze(best, best_share);
      }
    } else {
      // Many links: a lazy min-heap that revalidates at pop time.  Entries
      // are NOT requeued when a freeze raises a neighbour's share (eager
      // requeueing floods the heap with stale entries); instead a popped
      // entry whose cached share is outdated is reinserted at its current
      // value.  Shares only ever rise as flows freeze, so a cached entry is
      // a lower bound and the revalidated pop is the true minimum.
      heap_.clear();
      for (std::uint32_t l : touched_) heap_.push_back(Entry{share_[l], l});
      std::make_heap(heap_.begin(), heap_.end(), Greater{});
      while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), Greater{});
        const Entry top = heap_.back();
        heap_.pop_back();
        const std::uint32_t best = top.link;
        if (unfrozen_[best] == 0) continue;  // drained while queued
        if (share_[best] != top.share) {
          heap_.push_back(Entry{share_[best], best});
          std::push_heap(heap_.begin(), heap_.end(), Greater{});
          continue;
        }
        freeze(best, top.share);
      }
    }

    // Every electrical flow froze exactly once, returning all counters to
    // zero; reset defensively so a degenerate round cannot poison the next.
    for (std::uint32_t l : touched_) unfrozen_[l] = 0;
  }

 private:
  struct Entry {
    double share;
    std::uint32_t link;
  };
  /// Min-heap order on (share, link) — the link tiebreak makes the freeze
  /// order, and hence the floating-point arithmetic, fully deterministic.
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.share != b.share) return a.share > b.share;
      return a.link > b.link;
    }
  };

  double capacity_bps_;
  std::size_t link_count_{0};
  std::vector<std::uint32_t> key_to_link_;   ///< link_key -> dense link id
  std::vector<std::uint32_t> flow_offsets_;  ///< CSR: flow -> flow_links_ range
  std::vector<std::uint32_t> flow_links_;    ///< dense link ids per flow
  // Per-round scratch (sized once per phase, reused every round).
  std::vector<double> residual_;
  std::vector<double> share_;  ///< cached residual/unfrozen per link
  std::vector<std::uint32_t> unfrozen_;
  std::vector<std::uint32_t> link_flow_offsets_;
  std::vector<std::uint32_t> link_cursor_;
  std::vector<std::uint32_t> link_flows_;
  std::vector<char> frozen_;
  std::vector<std::size_t> electrical_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> links_;  ///< active-link table (small rounds)
  std::vector<Entry> heap_;          ///< lazy min-heap (large rounds)
};

/// Reusable scratch for simulating one phase; a schedule run keeps one for
/// all its phases so consecutive phases do not reallocate.
struct PhaseWorkspace {
  explicit PhaseWorkspace(double capacity_bps) : solver{capacity_bps} {}
  MaxMinSolver solver;
  std::vector<double> remaining_bits;
  std::vector<double> rate_bps;
  std::vector<std::size_t> active;
  std::vector<std::size_t> still;
};

PhaseResult simulate_phase(const std::vector<coll::Transfer>& transfers,
                           Bandwidth link_capacity, PhaseWorkspace& ws) {
  PhaseResult result;
  result.flows.resize(transfers.size());
  if (transfers.empty()) return result;

  result.peak_link_load = ws.solver.prepare(transfers);

  ws.remaining_bits.resize(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i)
    ws.remaining_bits[i] = transfers[i].bytes.to_bits();

  ws.active.clear();
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    if (ws.remaining_bits[i] > kDoneBitsEps) {
      ws.active.push_back(i);
    } else {
      // Zero / sub-epsilon transfers complete instantly; record the rate the
      // flow would start at so every transfer gets an initial_rate.
      result.flows[i].completion = Duration::zero();
      result.flows[i].initial_rate =
          transfers[i].is_optical() ? transfers[i].dedicated_rate : link_capacity;
    }
  }

  double now_s = 0.0;
  bool first_round = true;
  ws.rate_bps.assign(transfers.size(), 0.0);
  while (!ws.active.empty()) {
    std::fill(ws.rate_bps.begin(), ws.rate_bps.end(), 0.0);
    ws.solver.solve(ws.active, transfers, ws.rate_bps);
    if (first_round) {
      for (std::size_t i : ws.active)
        result.flows[i].initial_rate = Bandwidth::bps(ws.rate_bps[i]);
      first_round = false;
    }
    // Earliest finishing active flow.
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i : ws.active) {
      if (ws.rate_bps[i] <= 0.0) continue;
      dt = std::min(dt, ws.remaining_bits[i] / ws.rate_bps[i]);
    }
    if (!std::isfinite(dt)) break;  // starved flows (shouldn't happen)
    now_s += dt;
    ws.still.clear();
    for (std::size_t i : ws.active) {
      ws.remaining_bits[i] -= ws.rate_bps[i] * dt;
      if (ws.remaining_bits[i] <= kDoneBitsEps) {
        result.flows[i].completion = Duration::seconds(now_s);
      } else {
        ws.still.push_back(i);
      }
    }
    ws.active.swap(ws.still);
  }
  result.duration = Duration::seconds(now_s);
  return result;
}

}  // namespace

FlowSimulator::FlowSimulator(Bandwidth link_capacity) : link_capacity_{link_capacity} {}

PhaseResult FlowSimulator::run_phase(const std::vector<coll::Transfer>& transfers) const {
  PhaseWorkspace ws{link_capacity_.to_bps()};
  return simulate_phase(transfers, link_capacity_, ws);
}

ScheduleResult FlowSimulator::run(const coll::Schedule& schedule,
                                  TimelineTrace* trace) const {
  ScheduleResult result;
  result.phases.reserve(schedule.phases.size());

  // Phases are barriers, so each is simulated in schedule order on one
  // workspace and folded as it completes; the fold, and hence every
  // accumulated duration, is schedule-order deterministic.  They run inline
  // rather than one per pool task: a control-plane AllReduce is at most 62
  // phases of at most 32 transfers, ~6-8 us of solver work, while waking the
  // pool's workers and joining them cost ~30-100 us per call on a 4-vCPU
  // host (BM_SimBroadcast read 27-141 us of wall time pooled, 13-21 us
  // inline).
  PhaseWorkspace ws{link_capacity_.to_bps()};
  std::uint32_t phase_index = 0;
  for (const auto& phase : schedule.phases) {
    PhaseResult pr = simulate_phase(phase.transfers, link_capacity_, ws);
    if (trace != nullptr) {
      if (phase.pre_delay > Duration::zero()) {
        trace->add(TraceEvent{phase_index, "reconfig", result.total,
                              result.total + phase.pre_delay, Bandwidth::zero()});
      }
      const Duration phase_start = result.total + phase.pre_delay;
      for (std::size_t i = 0; i < phase.transfers.size(); ++i) {
        const auto& t = phase.transfers[i];
        trace->add(TraceEvent{phase_index,
                              std::to_string(t.src) + "->" + std::to_string(t.dst),
                              phase_start, phase_start + pr.flows[i].completion,
                              pr.flows[i].initial_rate});
      }
    }
    result.total += phase.pre_delay + pr.duration;
    result.reconfig_time += phase.pre_delay;
    result.peak_link_load = std::max(result.peak_link_load, pr.peak_link_load);
    result.phases.push_back(std::move(pr));
    ++phase_index;
  }
  return result;
}

}  // namespace lp::sim
