// Tests for the open-loop inference-serving simulator (serve/).
//
// The load-bearing properties: request conservation (every offered request
// is accounted for exactly once), determinism (same params -> bit-identical
// report, at any sweep thread count), saturation behavior (attainment
// collapses past capacity instead of latency hiding in a closed loop), and
// fault churn reaching the latency tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
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

// Pinned serving runs on the default 16x16 wafer.  The digest folds the
// completion stream and the fault counters, but neither the host stats nor
// the quantiles, so those are pinned field by field, as bits where they are
// times.  Each run names the path it must take, so a config cannot drift
// off the batching, fault or circuit-cache regime it was chosen to pin.
// Every config keeps expert_peers < tiles_per_replica.
struct PinnedServe {
  const char* name;
  ServingParams params;
  std::array<std::uint64_t, 20> fields;
  bool (*covers)(const ServingReport&);
};

std::array<std::uint64_t, 20> pinned_fields(const ServingReport& r) {
  const auto bits = [](Duration d) { return std::bit_cast<std::uint64_t>(d.to_seconds()); };
  return {r.digest,
          r.offered, r.completed, r.abandoned, r.in_flight_at_end,
          r.rounds, r.expert_sends, r.send_failures, r.kv_striped, r.replicas_offline,
          r.host.messages, r.host.hits, r.host.misses, r.host.evictions,
          bits(r.host.reconfig_time), bits(r.host.transfer_time), bits(r.p50),
          bits(r.p99), bits(r.p999), bits(r.max_latency)};
}

std::vector<PinnedServe> pinned_serving_runs() {
  using R = const ServingReport&;
  ServingParams base;
  base.traffic.arrival_rate = 1.5e6;
  base.horizon = Duration::millis(3.0);
  base.mtbf_hours = 0.0;
  // Larger expert shards, so the tuner rotates in some rounds (through
  // more partners than the cache holds) and rides the ring in others.
  const auto rotates = [](R r) {
    return r.expert_ring_rounds > 0 && r.expert_ring_rounds < r.rounds &&
           r.host.evictions > 0;
  };
  std::vector<PinnedServe> runs;
  const auto add = [&](const char* name, const ServingParams& p, bool (*covers)(R),
                       std::array<std::uint64_t, 20> fields) {
    runs.push_back(PinnedServe{name, p, fields, covers});
  };
  add("1.5e6", base, [](R r) { return r.completed == r.offered; },
      {0x178236b8b0c0c67f,
       4484, 4484, 0, 0, 1376, 22016, 0, 65, 0, 22278, 21785, 493, 12,
       0x3f5e957f412e3155, 0x3f79bacae2d1aa75, 0x3f3b5683486bf976,
       0x3f5c45004b01380a, 0x3f5eba8a1460bd18, 0x3f5f48d02b6f3433});
  {
    ServingParams p = base;
    p.traffic.arrival_rate = 3e6;
    add("3e6", p, [](R r) { return r.kv_striped > 0 && r.host.evictions > 0; },
        {0xf74592f8ed076413,
         8876, 8876, 0, 0, 1807, 28912, 0, 152, 0, 29528, 28760, 768, 196,
         0x3f67e73c95f25906, 0x3f8ceb1fb92a31e2, 0x3f547d5391cf3eb1,
         0x3f67a758d2ff6dc2, 0x3f6a6e86ae1e652d, 0x3f6c68a0316430b4});
  }
  {
    ServingParams p = base;
    p.prefill_chunk = 1;
    add("prefill-chunk-1", p,
        [](R r) { return r.in_flight_at_end > 0 && r.abandoned == 0; },
        {0x563e28e9377a09a3,
         4484, 4442, 0, 42, 7074, 113184, 0, 65, 0, 113446, 112953, 493, 12,
         0x3f5e957f412e3155, 0x3f9ffdd4e01f3f64, 0x3f81068e6a4dd112,
         0x3f93268f6d09c4e6, 0x3f949924d4a8c6aa, 0x3f950f96675f680a});
  }
  {
    ServingParams p = base;
    p.prefill_chunk = 1000;
    add("prefill-chunk-1000", p, [](R r) { return r.completed == r.offered; },
        {0x3603f08c873e302b,
         4484, 4484, 0, 0, 1376, 22016, 0, 65, 0, 22278, 21785, 493, 12,
         0x3f5e957f412e3155, 0x3f78cda6230892ca, 0x3f38debf1c162208,
         0x3f5b7e116ef2a256, 0x3f5cf545c0bf9b28, 0x3f5d6bfc538bc9b3});
  }
  {
    ServingParams p = base;
    // Prefill never advances: every sequence that still has prefill left
    // holds its batch slot to the end.
    p.prefill_chunk = 0;
    add("prefill-chunk-0", p, [](R r) { return r.in_flight_at_end > 0; },
        {0x1bf8d07cc560889a,
         4484, 19, 0, 4465, 6569, 105104, 0, 18, 0, 105177, 104848, 329, 0,
         0x3f544258adf11341, 0x3fa36f51243d70b6, 0x3f355fd155ee7836,
         0x3f522ef863483fbf, 0x3f523719e6c4874e, 0x3f5238012e441d7a});
  }
  {
    ServingParams p = base;
    p.traffic.prefill_tokens_max = 1;
    p.traffic.decode_tokens_max = 1;
    add("one-token", p, [](R r) { return r.completed == r.offered && r.kv_striped == 0; },
        {0x93c09567e668202c,
         4484, 4484, 0, 0, 1188, 19008, 0, 0, 0, 19089, 18766, 323, 3,
         0x3f53e61994119b7d, 0x3f4c36e86967c7c1, 0x3f1b7cdcd0230e78,
         0x3f20a50eecf3251e, 0x3f20e8a650b02618, 0x3f214ca2a5753670});
  }
  {
    ServingParams p = base;
    p.batch_capacity = 1;
    add("batch-1", p, [](R r) { return r.in_flight_at_end > 0; },
        {0x8a59f7ac3900a8bb,
         4484, 936, 0, 3548, 9145, 146320, 0, 16, 0, 146385, 146064, 321, 0,
         0x3f53c539d94e1172, 0x3f513d62bbece04a, 0x3f873fe7ab20764b,
         0x3f969563708296c7, 0x3f96ef3425c3c041, 0x3f96f66d0eb78b72});
  }
  {
    ServingParams p = base;
    p.traffic.kv_migration_fraction = 0.5;
    add("kv-migration", p, [](R r) { return r.kv_striped > 0 && r.host.evictions > 0; },
        {0x4252cb10dd66f77c,
         4484, 4484, 0, 0, 1392, 22272, 0, 2032, 0, 30592, 24608, 5984, 5408,
         0x3f9765b8bb88c635, 0x3fb63aca79e62b1d, 0x3f3995476aa43974,
         0x3f5b92eb06c55d4c, 0x3f5d263d7e7e7261, 0x3f5dd86f589577a4});
  }
  {
    ServingParams p = base;
    p.mtbf_hours = 2e-5;
    add("faults", p, [](R r) { return r.repairs > 0 && r.send_failures > 0; },
        {0xfc0a37819d6fc215,
         4484, 4484, 0, 0, 1376, 22016, 2, 65, 1, 22278, 21783, 495, 21,
         0x3f5e943d21cef07c, 0x3f7991e9e4338e04, 0x3f3b5b311ea5704a,
         0x3f5c45004b01380a, 0x3f5eba8a1460bd18, 0x3f5f48d02b6f3433});
  }
  {
    ServingParams p = base;
    p.horizon = Duration::millis(30.0);
    p.mtbf_hours = 2e-5;
    add("heavy-faults", p,
        [](R r) {
          return r.replicas_offline > 0 && r.abandoned > 0 && r.in_flight_at_end > 0;
        },
        {0xd72408bde0bef5cb,
         44644, 34455, 4957, 5232, 6759, 108144, 201, 578, 14, 110285, 107396, 2889, 658,
         0x3f84ddec143237f0, 0x3faa465e2d194729, 0x3f4416f3359c08c0,
         0x3f964d9f5421a6c2, 0x3f989bb90a14e40f, 0x3f98f6ac2b385e78});
  }
  {
    ServingParams p = base;
    p.flap_rate_per_hour = 2e5;
    p.gray_hysteresis = false;
    add("flaps-naive", p, [](R r) { return r.flap_repairs > 0 && r.quarantines == 0; },
        {0xfb091aebfce86830,
         4484, 3018, 0, 1466, 850, 13600, 0, 47, 0, 13789, 10624, 3165, 0,
         0x3f88516873e1f8c8, 0x3f70f19c351f4ec3, 0x3f65e070409946b6,
         0x3f955f83205ae2f3, 0x3f96217bcc0dfa9f, 0x3f96b920d4f61242});
  }
  {
    ServingParams p = base;
    p.flap_rate_per_hour = 2e5;
    add("flaps-hysteresis", p,
        [](R r) { return r.quarantines > 0 && r.suppressed_repairs > 0; },
        {0x87dd738636499c16,
         4484, 3323, 0, 1161, 919, 14704, 0, 56, 0, 14929, 11704, 3225, 0,
         0x3f88c84d60d5940e, 0x3f73e6546994dda3, 0x3f728a4d7b05b251,
         0x3f96c9e376c197df, 0x3f9746c3531ca753, 0x3f9797d2b9371eb3});
  }
  {
    ServingParams p = base;
    p.traffic.expert_bytes_per_token = DataSize::kib(16.0);
    p.expert_peers = 8;
    p.host.max_peers = 6;
    add("expert-peers-8/max-peers-6", p, rotates,
        {0x3d1c409bbb335aa6,
         4484, 4484, 0, 0, 1287, 20592, 0, 65, 0, 20854, 7228, 13626, 12090,
         0x3faaae1b124d44a6, 0x3fa35b0301064234, 0x3f3ebed9a73c5da8,
         0x3f5fb9dc3543114d, 0x3f6141ab7a58dd0e, 0x3f619e4b7f73c6b8});
  }
  {
    ServingParams p = base;
    p.traffic.expert_bytes_per_token = DataSize::kib(16.0);
    p.expert_peers = 8;
    p.host.max_peers = 1;
    add("expert-peers-8/max-peers-1", p, rotates,
        {0xeff733f297ddc67b,
         4484, 4484, 0, 0, 1286, 20576, 0, 65, 0, 20838, 6608, 14230, 13974,
         0x3fabd765ffc01756, 0x3fa355b83fa47630, 0x3f3ee6e116b7d804,
         0x3f5fca9a988fd89e, 0x3f612ab74711d951, 0x3f6194bbc31c4dc1});
  }
  return runs;
}

TEST(ServingDigests, MatchPinnedValues) {
  for (const PinnedServe& pinned : pinned_serving_runs()) {
    ASSERT_LT(pinned.params.expert_peers, pinned.params.tiles_per_replica) << pinned.name;
    const ServingReport r = run_serving(pinned.params);
    const std::array<std::uint64_t, 20> got = pinned_fields(r);
    std::ostringstream row;  // the digest and time bits in hex, counts in decimal
    for (std::size_t i = 0; i < got.size(); ++i) {
      const bool hex = i == 0 || i >= 14;
      row << (i == 0 ? "{" : ", ") << (hex ? "0x" : "") << (hex ? std::hex : std::dec)
          << got[i];
    }
    row << "}";
    EXPECT_EQ(got, pinned.fields) << pinned.name << ": got " << row.str();
    EXPECT_TRUE(pinned.covers(r)) << pinned.name << ": off its path";
  }
}

TEST(Serving, ExpertTrafficMostlyHitsCircuitCache) {
  const ServingReport r = run_serving(small_params());
  ASSERT_GT(r.expert_sends, 0u);
  // expert_peers < max_peers: after warmup the rotation lives in the LRU.
  EXPECT_GT(r.host.hit_rate(), 0.9);
}

// With expert_peers >= tiles_per_replica, partners cycle over offsets
// 1..tiles-1: no tile sends to itself, which the fabric refuses after the
// stack has evicted the source's whole cache.  64 KiB shards mix ring and
// rotation rounds; 1 MiB shards rotate every round.
TEST(Serving, ExpertRotationNeverSendsToItself) {
  for (const double kib : {64.0, 1024.0}) {
    SCOPED_TRACE(kib);
    ServingParams p = small_params();
    p.expert_peers = 4;
    p.traffic.expert_bytes_per_token = DataSize::kib(kib);
    const ServingReport r = run_serving(p);
    ASSERT_GT(r.expert_sends, 0u);
    EXPECT_LT(r.expert_ring_rounds, r.rounds) << "no round rotated";
    EXPECT_EQ(r.send_failures, 0u);
    EXPECT_LT(r.host.evictions * 100, r.host.messages);
    EXPECT_EQ(r.offered, r.completed);
  }
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
