// Property test for the incremental max-min solver in sim/flow_sim.
//
// A deliberately naive reference implementation recomputes progressive
// filling from scratch every round: per-link residual capacity and unfrozen
// flow counts are rebuilt by scanning every flow, and the bottleneck link is
// found by scanning every link.  The incremental solver (CSR incidence,
// cached shares, compacted active-link table / lazy heap) must produce the
// same rates — on 200 randomized demand sets with shared links, multi-hop
// routes, optical circuits, and zero-byte transfers.  A schedule run, which
// reuses one solver workspace across its phases, must equal fresh per-phase
// runs bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "collective/schedule.hpp"
#include "sim/flow_sim.hpp"
#include "topo/cluster.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lp::sim {
namespace {

constexpr double kCapBps = 100.0e9;
constexpr double kDoneBitsEps = 1e-6;

struct RefResult {
  std::vector<double> completion_s;
  std::vector<double> initial_rate_bps;
  double duration_s{0.0};
};

// Brute-force phase simulation: same semantics as FlowSimulator::run_phase,
// none of the incremental machinery.
RefResult reference_phase(const std::vector<coll::Transfer>& transfers) {
  const std::size_t n = transfers.size();
  RefResult out;
  out.completion_s.assign(n, 0.0);
  out.initial_rate_bps.assign(n, 0.0);

  // Dense link ids in first-appearance order, mirroring the solver's
  // tie-break between equal-share bottlenecks.
  std::map<std::size_t, std::size_t> dense;
  std::vector<std::vector<std::size_t>> flow_links(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& l : transfers[i].route) {
      const auto [it, inserted] = dense.try_emplace(topo::link_key(l), dense.size());
      (void)inserted;
      flow_links[i].push_back(it->second);
    }
  }
  const std::size_t link_count = dense.size();

  std::vector<double> remaining(n), rate(n, 0.0);
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = transfers[i].bytes.to_bits();
    if (remaining[i] > kDoneBitsEps) {
      active.push_back(i);
    } else {
      out.initial_rate_bps[i] = transfers[i].is_optical()
                                    ? transfers[i].dedicated_rate.to_bps()
                                    : kCapBps;
    }
  }

  double now = 0.0;
  bool first_round = true;
  while (!active.empty()) {
    std::fill(rate.begin(), rate.end(), 0.0);
    std::vector<std::vector<std::size_t>> link_flows(link_count);
    std::vector<double> residual(link_count, kCapBps);
    std::vector<bool> frozen(n, false);
    std::size_t unfrozen_total = 0;
    for (std::size_t i : active) {
      if (transfers[i].is_optical()) {
        rate[i] = transfers[i].dedicated_rate.to_bps();
      } else if (flow_links[i].empty()) {
        rate[i] = kCapBps;
      } else {
        for (std::size_t l : flow_links[i]) link_flows[l].push_back(i);
        ++unfrozen_total;
      }
    }
    while (unfrozen_total > 0) {
      double best_share = std::numeric_limits<double>::infinity();
      std::size_t best = link_count;
      for (std::size_t l = 0; l < link_count; ++l) {
        std::size_t unfrozen = 0;
        for (std::size_t i : link_flows[l])
          if (!frozen[i]) ++unfrozen;
        if (unfrozen == 0) continue;
        const double share = residual[l] / static_cast<double>(unfrozen);
        if (share < best_share || (share == best_share && l < best)) {
          best_share = share;
          best = l;
        }
      }
      if (best == link_count) break;
      for (std::size_t i : link_flows[best]) {
        if (frozen[i]) continue;
        frozen[i] = true;
        rate[i] = best_share;
        --unfrozen_total;
        for (std::size_t l : flow_links[i]) residual[l] -= best_share;
      }
    }
    if (first_round) {
      for (std::size_t i : active) out.initial_rate_bps[i] = rate[i];
      first_round = false;
    }
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t i : active)
      if (rate[i] > 0.0) dt = std::min(dt, remaining[i] / rate[i]);
    if (!std::isfinite(dt)) break;
    now += dt;
    std::vector<std::size_t> still;
    for (std::size_t i : active) {
      remaining[i] -= rate[i] * dt;
      if (remaining[i] <= kDoneBitsEps) {
        out.completion_s[i] = now;
      } else {
        still.push_back(i);
      }
    }
    active.swap(still);
  }
  out.duration_s = now;
  return out;
}

// Random demand set: 1..max_flows multi-hop electrical routes over a shared
// pool of directed links (chips x 3 dims x 2 signs), sprinkled with optical
// circuits and zero-byte transfers.
std::vector<coll::Transfer> random_transfers(std::uint64_t seed, topo::TpuId chips = 10,
                                             std::size_t max_flows = 40) {
  Rng rng{seed};
  std::vector<topo::DirectedLink> pool;
  for (topo::TpuId chip = 0; chip < chips; ++chip)
    for (std::uint8_t dim = 0; dim < 3; ++dim)
      for (int sign : {+1, -1})
        pool.push_back(topo::DirectedLink{chip, dim, static_cast<std::int8_t>(sign)});

  const std::size_t n = 1 + rng.uniform_index(max_flows);
  const auto chip_count = static_cast<std::uint64_t>(chips);
  std::vector<coll::Transfer> transfers(n);
  for (auto& t : transfers) {
    t.src = static_cast<topo::TpuId>(rng.uniform_index(chip_count));
    t.dst = static_cast<topo::TpuId>(rng.uniform_index(chip_count));
    const double roll = rng.uniform();
    if (roll < 0.05) {
      t.bytes = DataSize::zero();
    } else {
      t.bytes = DataSize::bytes(rng.uniform(1.0, 8.0 * 1024 * 1024));
    }
    if (rng.uniform() < 0.1) {
      t.dedicated_rate = Bandwidth::gBps(rng.uniform(50.0, 400.0));
      continue;  // optical: no route
    }
    // Route: 1-5 distinct links drawn from the pool.
    const std::size_t hops = 1 + rng.uniform_index(5);
    std::vector<topo::DirectedLink> route;
    while (route.size() < hops) {
      const auto& link = pool[rng.uniform_index(pool.size())];
      bool dup = false;
      for (const auto& r : route) dup = dup || r == link;
      if (!dup) route.push_back(link);
    }
    t.route = std::move(route);
  }
  return transfers;
}

class FlowReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowReferenceTest, IncrementalSolverMatchesBruteForce) {
  const auto transfers =
      random_transfers(0xf10a0 + static_cast<std::uint64_t>(GetParam()));
  const FlowSimulator fsim{Bandwidth::bps(kCapBps)};
  const PhaseResult got = fsim.run_phase(transfers);
  const RefResult want = reference_phase(transfers);

  ASSERT_EQ(got.flows.size(), transfers.size());
  EXPECT_NEAR(got.duration.to_seconds(), want.duration_s,
              1e-9 * std::max(1.0, want.duration_s));
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    EXPECT_NEAR(got.flows[i].completion.to_seconds(), want.completion_s[i],
                1e-9 * std::max(1.0, want.completion_s[i]))
        << "flow " << i;
    EXPECT_NEAR(got.flows[i].initial_rate.to_bps(), want.initial_rate_bps[i],
                1e-9 * std::max(1.0, want.initial_rate_bps[i]))
        << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDemands, FlowReferenceTest, ::testing::Range(0, 200));

std::uint64_t bits(Duration d) { return std::bit_cast<std::uint64_t>(d.to_seconds()); }
std::uint64_t bits(Bandwidth b) { return std::bit_cast<std::uint64_t>(b.to_bps()); }

// FlowSimulator::run simulates a schedule's phases in turn on one workspace
// whose flat tables resize per phase.  Nothing may leak from one phase into
// the next: the run must equal, bit for bit, a fold of fresh run_phase calls.
// Link pools grow and shrink between phases (2..40 chips), and a quarter of
// the phases carry up to 160 flows, enough for the solver's heap selection.
TEST(FlowSim, RunMatchesPhaseByPhase) {
  const FlowSimulator fsim{Bandwidth::bps(kCapBps)};
  Rng rng{0x5c4ed};
  for (int c = 0; c < 100; ++c) {
    coll::Schedule schedule;
    const std::size_t phase_count = 1 + rng.uniform_index(12);
    for (std::size_t p = 0; p < phase_count; ++p) {
      coll::Phase phase;
      if (rng.bernoulli(0.3)) phase.pre_delay = Duration::micros(rng.uniform(0.5, 5.0));
      const auto chips = static_cast<topo::TpuId>(2 + rng.uniform_index(39));
      const std::size_t max_flows = rng.bernoulli(0.25) ? 160 : 40;
      if (!rng.bernoulli(0.05)) phase.transfers = random_transfers(rng.next(), chips, max_flows);
      schedule.phases.push_back(std::move(phase));
    }

    const ScheduleResult got = fsim.run(schedule);
    ASSERT_EQ(got.phases.size(), phase_count) << "case " << c;
    Duration total = Duration::zero();
    Duration reconfig = Duration::zero();
    std::uint32_t peak = 0;
    for (std::size_t p = 0; p < phase_count; ++p) {
      const coll::Phase& phase = schedule.phases[p];
      const PhaseResult want = fsim.run_phase(phase.transfers);
      const PhaseResult& have = got.phases[p];
      EXPECT_EQ(bits(have.duration), bits(want.duration)) << "case " << c << " phase " << p;
      EXPECT_EQ(have.peak_link_load, want.peak_link_load) << "case " << c << " phase " << p;
      ASSERT_EQ(have.flows.size(), want.flows.size()) << "case " << c << " phase " << p;
      for (std::size_t i = 0; i < want.flows.size(); ++i) {
        EXPECT_EQ(bits(have.flows[i].completion), bits(want.flows[i].completion))
            << "case " << c << " phase " << p << " flow " << i;
        EXPECT_EQ(bits(have.flows[i].initial_rate), bits(want.flows[i].initial_rate))
            << "case " << c << " phase " << p << " flow " << i;
      }
      total += phase.pre_delay + want.duration;
      reconfig += phase.pre_delay;
      peak = std::max(peak, want.peak_link_load);
    }
    EXPECT_EQ(bits(got.total), bits(total)) << "case " << c;
    EXPECT_EQ(bits(got.reconfig_time), bits(reconfig)) << "case " << c;
    EXPECT_EQ(got.peak_link_load, peak) << "case " << c;
  }
}

}  // namespace
}  // namespace lp::sim
