// Tests for the open-loop inference-serving simulator (serve/).
//
// The load-bearing properties: request conservation (every offered request
// is accounted for exactly once), determinism (same params -> bit-identical
// report, at any sweep thread count), saturation behavior (attainment
// collapses past capacity instead of latency hiding in a closed loop), and
// fault churn reaching the latency tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "serve/serving_sim.hpp"
#include "serve/workload.hpp"
#include "sort_percentile.hpp"

namespace lp::serve {
namespace {

/// Small, fast configuration: 4 replicas x 4 tiles on a 4x4 wafer, a few
/// milliseconds of traffic.  Faults off unless the test wants them.
ServingParams small_params() {
  ServingParams p;
  p.replicas = 4;
  p.tiles_per_replica = 4;
  p.batch_capacity = 16;
  p.traffic.arrival_rate = 50e3;
  p.horizon = Duration::millis(5.0);
  p.drain = Duration::millis(20.0);
  p.mtbf_hours = 0.0;
  p.host.max_peers = 4;
  p.expert_peers = 2;
  return p;
}

TEST(Workload, GeneratorIsDeterministicAndBounded) {
  TrafficParams tp;
  tp.arrival_rate = 1e6;
  RequestGenerator a{tp, 16, 42};
  RequestGenerator b{tp, 16, 42};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_interarrival(), b.next_interarrival());
    const RequestSpec ra = a.next_request();
    const RequestSpec rb = b.next_request();
    EXPECT_EQ(ra.prefill_tokens, rb.prefill_tokens);
    EXPECT_EQ(ra.decode_tokens, rb.decode_tokens);
    EXPECT_EQ(ra.replica, rb.replica);
    EXPECT_EQ(ra.migrate, rb.migrate);
    ASSERT_GE(ra.prefill_tokens, 1u);
    ASSERT_LE(ra.prefill_tokens, tp.prefill_tokens_max);
    ASSERT_GE(ra.decode_tokens, 1u);
    ASSERT_LE(ra.decode_tokens, tp.decode_tokens_max);
    ASSERT_LT(ra.replica, 16u);
    if (ra.migrate) {
      EXPECT_NE(ra.prefill_replica, ra.replica);
    }
  }
}

TEST(Serving, RequestConservation) {
  const ServingReport r = run_serving(small_params());
  ASSERT_GT(r.offered, 100u);
  // Every offered request completed, was abandoned, or is still in flight.
  EXPECT_EQ(r.offered, r.completed + r.abandoned + r.in_flight_at_end);
  // Faults are off: nothing should be abandoned, and a generous drain
  // window should let everything finish.
  EXPECT_EQ(r.abandoned, 0u);
  EXPECT_EQ(r.in_flight_at_end, 0u);
  EXPECT_EQ(r.met_slo, r.offered);  // far below capacity, no faults
  EXPECT_GT(r.p50, Duration::zero());
  EXPECT_GE(r.p999, r.p99);
  EXPECT_GE(r.p99, r.p50);
  EXPECT_GE(r.max_latency, r.p999);
}

TEST(Serving, RunIsBitIdentical) {
  const ServingReport a = run_serving(small_params());
  const ServingReport b = run_serving(small_params());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.p999, b.p999);
}

TEST(Serving, SweepBitIdenticalAcrossThreadCounts) {
  ServingSweepConfig cfg;
  cfg.base = small_params();
  cfg.arrival_rates = {20e3, 50e3, 100e3, 200e3};

  std::vector<std::uint64_t> digests[3];
  const unsigned threads[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    cfg.threads = threads[i];
    const ServingSweepReport rep = run_serving_sweep(cfg);
    ASSERT_EQ(rep.points.size(), cfg.arrival_rates.size());
    for (const ServingReport& p : rep.points) digests[i].push_back(p.digest);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(Serving, SaturationCollapsesAttainment) {
  ServingParams p = small_params();
  // Capacity ~ replicas x batch / (service_rounds x round_time); push an
  // order of magnitude past it.
  ServingParams hot = p;
  hot.traffic.arrival_rate = 5e6;
  hot.drain = Duration::millis(5.0);  // don't let an infinite drain bail it out

  const ServingReport cold = run_serving(p);
  const ServingReport sat = run_serving(hot);
  EXPECT_GT(cold.slo_attainment(), 0.99);
  EXPECT_LT(sat.slo_attainment(), 0.5);
  // Open loop: the backlog is real, not hidden.
  EXPECT_GT(sat.in_flight_at_end, 0u);
  EXPECT_GT(sat.p999, cold.p999);
}

// The digest folds latencies and counters but not the quantiles, so the
// quantiles are pinned here: bit for bit the sort-based percentile over the
// run's latencies, below capacity and past it.
TEST(Serving, PercentilesMatchSortReference) {
  ServingParams hot = small_params();
  hot.traffic.arrival_rate = 5e6;
  hot.drain = Duration::millis(5.0);
  for (const ServingParams& p : {small_params(), hot}) {
    const ServingReport r = run_serving(p);
    ASSERT_GT(r.latencies.size(), 100u);
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    EXPECT_EQ(bits(r.p50.to_seconds()), bits(reference::sort_percentile(r.latencies, 50.0)));
    EXPECT_EQ(bits(r.p99.to_seconds()), bits(reference::sort_percentile(r.latencies, 99.0)));
    EXPECT_EQ(bits(r.p999.to_seconds()), bits(reference::sort_percentile(r.latencies, 99.9)));
  }
}

TEST(Serving, ExpertTrafficMostlyHitsCircuitCache) {
  const ServingReport r = run_serving(small_params());
  ASSERT_GT(r.expert_sends, 0u);
  // expert_peers < max_peers: after warmup the rotation lives in the LRU.
  EXPECT_GT(r.host.hit_rate(), 0.9);
}

TEST(Serving, FaultChurnReachesTheTail) {
  ServingParams quiet = small_params();
  quiet.traffic.arrival_rate = 100e3;
  quiet.horizon = Duration::millis(20.0);

  ServingParams faulty = quiet;
  faulty.mtbf_hours = 2e-5;  // ~220 strikes/s fleet-wide: several in 20 ms

  const ServingReport a = run_serving(quiet);
  const ServingReport b = run_serving(faulty);
  ASSERT_GT(b.fault_events, 0u);
  EXPECT_GT(b.detections, 0u);
  EXPECT_GT(b.churn_flushes, 0u);
  // Churn costs something: more reconfigurations through the host stack,
  // and conservation still holds (abandoned requests are accounted).
  EXPECT_GE(b.host.misses, a.host.misses);
  EXPECT_EQ(b.offered, b.completed + b.abandoned + b.in_flight_at_end);
}

TEST(Serving, FaultRunsAreDeterministic) {
  ServingParams p = small_params();
  p.mtbf_hours = 2e-5;
  p.horizon = Duration::millis(20.0);
  const ServingReport a = run_serving(p);
  const ServingReport b = run_serving(p);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.repair_failures, b.repair_failures);
}

TEST(Serving, DefaultWaferIsResizedToFitReplicas) {
  // The default FabricConfig wafer is 4x8; run_serving must reshape it to
  // replicas x tiles_per_replica without the caller doing anything.
  ServingParams p = small_params();
  p.replicas = 2;
  p.tiles_per_replica = 2;
  p.traffic.arrival_rate = 10e3;
  p.horizon = Duration::millis(2.0);
  const ServingReport r = run_serving(p);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.offered, r.completed + r.abandoned + r.in_flight_at_end);
}

// The shared ride-out rule (FlapDamper::ride_out): with hysteresis every
// observed dip is exactly one of a thrash climb, a suppressed repair, or a
// quarantine entry; the naive controller climbs on every dip.
TEST(Serving, EveryFlapIsAClimbASuppressionOrAQuarantine) {
  for (const bool hysteresis : {true, false}) {
    ServingParams p = small_params();
    p.flap_rate_per_hour = 2e6;  // accelerated: tens of episodes in 5 ms
    p.gray_hysteresis = hysteresis;
    const ServingReport r = run_serving(p);
    ASSERT_GT(r.flap_transitions, 0u);
    if (hysteresis) {
      EXPECT_GT(r.flap_repairs, 0u);
      EXPECT_GT(r.suppressed_repairs, 0u);
      EXPECT_GT(r.quarantines, 0u);
      EXPECT_EQ(r.flap_transitions, r.flap_repairs + r.suppressed_repairs + r.quarantines);
    } else {
      EXPECT_EQ(r.flap_transitions, r.flap_repairs);
      EXPECT_EQ(r.suppressed_repairs + r.quarantines, 0u);
    }
  }
}

}  // namespace
}  // namespace lp::serve
