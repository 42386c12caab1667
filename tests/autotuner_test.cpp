// Tests for the collective autotuner (collective/autotuner.hpp).
//
// Three layers:
//   * Autotuner.*       — calibration (predict == measured cost for every
//                         op x algorithm x group size x message size),
//                         tie-break order, and decision-cache semantics.
//   * AutotunerSweep.*  — the differential harness the tentpole contract
//                         demands: sweep 1 KB..10 GB x slice shapes x
//                         healthy/degraded, simulate every candidate with
//                         the flow simulator, and fail on any pick whose
//                         measured cost exceeds the documented tolerance.
//                         Plus bit-identical decisions at 1/2/8 threads.
//   * TunerWiring.*     — the tuner actually steering runtime::TrainingRun
//                         and serve::ServingSim.
//   * PhaseWalk.*       — the lowered AllReduce phases the runtime charges
//                         per bucket (runtime::all_reduce_bucket_costs),
//                         against the schedules Autotuner::build expands.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "collective/autotuner.hpp"
#include "lightpath/fabric.hpp"
#include "lightpath/types.hpp"
#include "runtime/training_run.hpp"
#include "serve/serving_sim.hpp"
#include "sim/flow_sim.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::coll {
namespace {

std::vector<topo::TpuId> group(std::size_t m) {
  std::vector<topo::TpuId> ids;
  ids.reserve(m);
  for (std::size_t i = 0; i < m; ++i) ids.push_back(static_cast<topo::TpuId>(100 + i));
  return ids;
}

/// The measured-cost convention from the autotuner header: flow-simulated
/// schedule time plus the per-send software overhead.
Duration measure(const Autotuner& tuner, CollOp op, Algorithm algo,
                 const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
                 Duration reconfig) {
  const Schedule sched = tuner.build(op, algo, members, n, rate, reconfig);
  const sim::FlowSimulator fsim{rate};
  return measured_cost(fsim.run(sched).total, sched, tuner.params().alpha);
}

// ---------------------------------------------------------------------------
// Calibration: predict() must reproduce the flow-simulated cost.
// ---------------------------------------------------------------------------

TEST(Autotuner, PredictionMatchesFlowSimulatedCost) {
  const Autotuner tuner;
  const Bandwidth rate = Bandwidth::gBps(75.0);
  const Duration reconfig = Duration::micros(3.7);
  const std::size_t sizes[] = {2, 3, 5, 8, 31, 56};
  const DataSize messages[] = {DataSize::kib(1.0), DataSize::mib(1.0),
                               DataSize::mib(512.0)};
  const CollOp ops[] = {CollOp::kReduceScatter, CollOp::kAllGather, CollOp::kAllReduce,
                        CollOp::kBroadcast,     CollOp::kAllToAll,  CollOp::kTransfer};

  int checked = 0;
  for (const CollOp op : ops) {
    for (const std::size_t m : sizes) {
      const std::vector<topo::TpuId> members = group(m);
      for (const DataSize n : messages) {
        for (const Algorithm algo : Autotuner::candidates(op)) {
          const Duration predicted = tuner.predict(op, algo, m, n, rate, reconfig);
          const Duration measured = measure(tuner, op, algo, members, n, rate, reconfig);
          EXPECT_NEAR(predicted.to_seconds(), measured.to_seconds(),
                      1e-9 * measured.to_seconds() + 1e-15)
              << to_string(op) << "/" << to_string(algo) << " m=" << m
              << " n=" << n.to_bytes() << "B";
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 6 * 3 * 2 * 2);  // every op x size x message x >=2 algos
}

TEST(Autotuner, PredictionCoversDegradedSingleLambdaRate) {
  // Post-fault elastic bridges run at half rate with the same reconfig; the
  // calibration must hold there too (it is the regime the TrainingRun
  // re-decides schedules in).
  const Autotuner tuner;
  const Bandwidth rate = Bandwidth::gBps(37.5);
  const Duration reconfig = Duration::micros(3.7);
  for (const std::size_t m : {3u, 7u, 55u}) {
    const std::vector<topo::TpuId> members = group(m);
    for (const Algorithm algo : Autotuner::candidates(CollOp::kAllReduce)) {
      const DataSize n = DataSize::mib(64.0);
      const Duration predicted = tuner.predict(CollOp::kAllReduce, algo, m, n, rate, reconfig);
      const Duration measured =
          measure(tuner, CollOp::kAllReduce, algo, members, n, rate, reconfig);
      EXPECT_NEAR(predicted.to_seconds(), measured.to_seconds(),
                  1e-9 * measured.to_seconds())
          << to_string(algo) << " m=" << m;
    }
  }
}

// ---------------------------------------------------------------------------
// Tie-break: deterministic total order (cost, rank, name).
// ---------------------------------------------------------------------------

TEST(Autotuner, TwoMemberAllToAllTiesBreakToRing) {
  // With m = 2 the ring and rotation all-to-all degenerate to the same
  // single transfer: alpha + r + T(n) on both paths, an exact cost tie.
  // The fixed rank order (kRing = 0 < kRotation = 3) must decide it.
  Autotuner tuner;
  const Bandwidth rate = Bandwidth::gBps(75.0);
  const Duration reconfig = Duration::micros(3.7);
  const DataSize n = DataSize::mib(4.0);
  const Duration ring = tuner.predict(CollOp::kAllToAll, Algorithm::kRing, 2, n, rate, reconfig);
  const Duration rotation =
      tuner.predict(CollOp::kAllToAll, Algorithm::kRotation, 2, n, rate, reconfig);
  ASSERT_EQ(ring, rotation);  // exact tie, bit for bit

  const Decision d = tuner.pick(CollOp::kAllToAll, n, group(2), rate, reconfig, 0);
  EXPECT_EQ(d.algo, Algorithm::kRing);
}

TEST(Autotuner, PickMatchesManualMinOverCandidatesInAnyOrder) {
  // The documented comparator — (cost, algorithm_rank, name) — applied to
  // the candidate list in *reverse* order must select the same algorithm
  // pick() returns: enumeration order cannot leak into the decision.
  Autotuner tuner;
  const Bandwidth rate = Bandwidth::gBps(75.0);
  const Duration reconfig = Duration::micros(3.7);
  const CollOp ops[] = {CollOp::kReduceScatter, CollOp::kAllGather, CollOp::kAllReduce,
                        CollOp::kBroadcast,     CollOp::kAllToAll,  CollOp::kTransfer};
  for (const CollOp op : ops) {
    for (const DataSize n : {DataSize::kib(2.0), DataSize::mib(16.0), DataSize::gib(1.0)}) {
      // Evaluate at the bucket representative, exactly as pick() does.
      const DataSize rep = Autotuner::bucket_representative(Autotuner::size_bucket(n));
      const std::span<const Algorithm> candidates = Autotuner::candidates(op);
      std::vector<Algorithm> order(candidates.rbegin(), candidates.rend());
      bool first = true;
      Algorithm best{};
      Duration best_cost{};
      for (const Algorithm algo : order) {
        const Duration cost = tuner.predict(op, algo, 8, rep, rate, reconfig);
        const bool better =
            first || cost < best_cost ||
            (cost == best_cost && (algorithm_rank(algo) < algorithm_rank(best) ||
                                   (algorithm_rank(algo) == algorithm_rank(best) &&
                                    std::strcmp(to_string(algo), to_string(best)) < 0)));
        if (better) {
          best = algo;
          best_cost = cost;
          first = false;
        }
      }
      const Decision d = tuner.pick(op, n, group(8), rate, reconfig, /*epoch=*/7);
      EXPECT_EQ(d.algo, best) << to_string(op) << " n=" << n.to_bytes();
      EXPECT_EQ(d.predicted, best_cost);
    }
  }
}

// ---------------------------------------------------------------------------
// Decision cache.
// ---------------------------------------------------------------------------

TEST(Autotuner, CacheHitsOnSameBucketAndMissesAcrossEpochs) {
  Autotuner tuner;
  const std::vector<topo::TpuId> members = group(8);
  const Bandwidth rate = Bandwidth::gBps(75.0);
  const Duration reconfig = Duration::micros(3.7);

  // 1000 and 1010 bytes share a quarter-octave bucket ([861, 1024)).
  const Decision a = tuner.pick(CollOp::kAllReduce, DataSize::bytes(1000.0), members,
                                rate, reconfig, /*epoch=*/1);
  EXPECT_FALSE(a.cache_hit);
  EXPECT_EQ(tuner.misses(), 1u);

  const Decision b = tuner.pick(CollOp::kAllReduce, DataSize::bytes(1010.0), members,
                                rate, reconfig, /*epoch=*/1);
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(b.algo, a.algo);
  EXPECT_EQ(b.predicted, a.predicted);  // bucket-canonical: identical decision
  EXPECT_EQ(tuner.hits(), 1u);

  // Fabric epoch bump makes the entry unreachable.
  const Decision c = tuner.pick(CollOp::kAllReduce, DataSize::bytes(1000.0), members,
                                rate, reconfig, /*epoch=*/2);
  EXPECT_FALSE(c.cache_hit);

  // Different member list (degraded survivor set) -> different fingerprint.
  const Decision d = tuner.pick(CollOp::kAllReduce, DataSize::bytes(1000.0), group(7),
                                rate, reconfig, /*epoch=*/1);
  EXPECT_FALSE(d.cache_hit);

  // Different op, same everything else.
  const Decision e = tuner.pick(CollOp::kBroadcast, DataSize::bytes(1000.0), members,
                                rate, reconfig, /*epoch=*/1);
  EXPECT_FALSE(e.cache_hit);

  EXPECT_EQ(tuner.hits(), 1u);
  EXPECT_EQ(tuner.misses(), 4u);

  // A fresh tuner starts cold and decides the same.
  Autotuner fresh;
  const Decision f = fresh.pick(CollOp::kAllReduce, DataSize::bytes(1000.0), members,
                                rate, reconfig, /*epoch=*/1);
  EXPECT_FALSE(f.cache_hit);
  EXPECT_EQ(f.algo, a.algo);
  EXPECT_EQ(fresh.hits(), 0u);
  EXPECT_EQ(fresh.misses(), 1u);
}

TEST(Autotuner, CachedDecisionEqualsFreshEvaluation) {
  // A decision served from cache must be indistinguishable from one
  // computed by a fresh tuner: no insertion-history dependence.
  Autotuner warm;
  Autotuner cold;
  const std::vector<topo::TpuId> members = group(31);
  const Bandwidth rate = Bandwidth::gBps(37.5);
  const Duration reconfig = Duration::micros(3.7);

  // Warm the cache with a different size in the same bucket.
  const DataSize warm_size = DataSize::mib(3.0);
  const DataSize probe = warm_size * 1.02;
  ASSERT_EQ(Autotuner::size_bucket(warm_size), Autotuner::size_bucket(probe));
  (void)warm.pick(CollOp::kReduceScatter, warm_size, members, rate, reconfig, 5);

  const Decision cached = warm.pick(CollOp::kReduceScatter, probe, members, rate, reconfig, 5);
  const Decision fresh = cold.pick(CollOp::kReduceScatter, probe, members, rate, reconfig, 5);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(cached.algo, fresh.algo);
  EXPECT_EQ(cached.predicted, fresh.predicted);
}

// ---------------------------------------------------------------------------
// Differential sweep: mispredictions are test failures.
// ---------------------------------------------------------------------------

struct SweepTopology {
  const char* name;
  std::vector<topo::TpuId> members;
  Bandwidth rate;
  std::uint64_t epoch;
};

std::vector<SweepTopology> sweep_topologies() {
  // Three healthy slice shapes at the 2-lambda circuit rate, and three
  // degraded survivor sets (non-power-of-two, including the degenerate 2-
  // and 3-member rings) at the 1-lambda elastic-bridge rate.
  return {
      {"healthy-8", group(8), Bandwidth::gBps(75.0), 0},
      {"healthy-16", group(16), Bandwidth::gBps(75.0), 0},
      {"healthy-32", group(32), Bandwidth::gBps(75.0), 0},
      {"degraded-7", group(7), Bandwidth::gBps(37.5), 1},
      {"degraded-3", group(3), Bandwidth::gBps(37.5), 1},
      {"degraded-2", group(2), Bandwidth::gBps(37.5), 1},
  };
}

std::vector<DataSize> sweep_sizes() {
  // 1 KiB to 4 GiB in quarter-decade-ish steps, plus the contract's 10 GB
  // upper bound.
  std::vector<DataSize> sizes;
  for (double b = 1024.0; b <= 4.0 * 1024.0 * 1024.0 * 1024.0; b *= 4.0) {
    sizes.push_back(DataSize::bytes(b));
  }
  sizes.push_back(DataSize::bytes(1e10));
  return sizes;
}

const CollOp kAllOps[] = {CollOp::kReduceScatter, CollOp::kAllGather,
                          CollOp::kAllReduce,     CollOp::kBroadcast,
                          CollOp::kAllToAll,      CollOp::kTransfer};

TEST(AutotunerSweep, DifferentialValidationHasZeroMispredictions) {
  Autotuner tuner;
  const Duration reconfig = Duration::micros(3.7);
  const double tol_rel = tuner.params().tolerance_rel;
  const Duration tol_abs = tuner.params().tolerance_abs;

  int points = 0;
  for (const SweepTopology& topo : sweep_topologies()) {
    for (const CollOp op : kAllOps) {
      for (const DataSize n : sweep_sizes()) {
        const Decision d = tuner.pick(op, n, topo.members, topo.rate, reconfig, topo.epoch);
        const Duration picked =
            measure(tuner, op, d.algo, topo.members, n, topo.rate, reconfig);
        Duration best = Duration::infinite();
        Algorithm best_algo = d.algo;
        for (const Algorithm algo : Autotuner::candidates(op)) {
          const Duration cost = measure(tuner, op, algo, topo.members, n, topo.rate, reconfig);
          if (cost < best) {
            best = cost;
            best_algo = algo;
          }
        }
        EXPECT_LE(picked.to_seconds(),
                  best.to_seconds() * (1.0 + tol_rel) + tol_abs.to_seconds())
            << "MISPREDICTION: " << topo.name << " " << to_string(op)
            << " n=" << n.to_bytes() << "B picked " << to_string(d.algo)
            << " but " << to_string(best_algo) << " is faster beyond tolerance";
        ++points;
      }
    }
  }
  // 6 topologies x 6 ops x (12 geometric sizes + 10 GB).
  EXPECT_EQ(points, 6 * 6 * 13);
}

TEST(AutotunerSweep, DecisionsBitIdenticalAtAnyThreadCount) {
  // One shared tuner, the full sweep grid evaluated via parallel_for, the
  // per-point decisions folded in point order: the digest must not depend
  // on the thread count (1, 2, 8) even though threads race on the decision
  // cache.
  const std::vector<SweepTopology> topologies = sweep_topologies();
  const std::vector<DataSize> sizes = sweep_sizes();
  const Duration reconfig = Duration::micros(3.7);

  struct Point {
    const SweepTopology* topo;
    CollOp op;
    DataSize n;
  };
  std::vector<Point> grid;
  for (const SweepTopology& topo : topologies) {
    for (const CollOp op : kAllOps) {
      for (const DataSize n : sizes) grid.push_back({&topo, op, n});
    }
  }

  std::uint64_t digests[3] = {};
  const unsigned thread_counts[3] = {1, 2, 8};
  for (int t = 0; t < 3; ++t) {
    util::ThreadPool pool{thread_counts[t]};
    Autotuner tuner;  // shared across all tasks in this round
    std::vector<Decision> decisions(grid.size());
    util::parallel_for(
        grid.size(),
        [&](std::size_t i) {
          const Point& p = grid[i];
          decisions[i] =
              tuner.pick(p.op, p.n, p.topo->members, p.topo->rate, reconfig, p.topo->epoch);
        },
        &pool);
    std::uint64_t digest = 0x1234567;
    for (const Decision& d : decisions) {
      digest = fabric::hash_mix(digest, static_cast<std::uint64_t>(d.algo));
      std::uint64_t bits = 0;
      const double s = d.predicted.to_seconds();
      static_assert(sizeof(bits) == sizeof(s));
      std::memcpy(&bits, &s, sizeof(bits));
      digest = fabric::hash_mix(digest, bits);
    }
    digests[t] = digest;
    // Every grid point was answered, from cache or fresh.
    EXPECT_EQ(tuner.hits() + tuner.misses(), grid.size());
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(AutotunerSweep, PicksMatchPinnedDigest) {
  // Every pick over the grid the simulators and tests price at, folded in
  // grid order: six ops, m = 0..64 and 127..129, alpha = 1 us, r = 0,
  // 3.7 us and the default fabric's settle latency, 1/2/4/16 lambdas at
  // 224 Gbps and 37.5/75/100 GB/s, and every size bucket 0..170.  Only the
  // chosen algorithm goes in, not its predicted cost, whose last bits may
  // move with the order a prediction sums its terms in.
  const Bandwidth lambda = Bandwidth::gbps(224.0);
  const Bandwidth rates[] = {lambda,
                             lambda * 2.0,
                             lambda * 4.0,
                             lambda * 16.0,
                             Bandwidth::gBps(37.5),
                             Bandwidth::gBps(75.0),
                             Bandwidth::gBps(100.0)};
  const Duration reconfigs[] = {Duration::zero(), Duration::micros(3.7),
                                fabric::Fabric{}.reconfig().settle_latency()};
  std::vector<std::size_t> sizes;
  for (std::size_t m = 0; m <= 64; ++m) sizes.push_back(m);
  for (std::size_t m = 127; m <= 129; ++m) sizes.push_back(m);

  Autotuner tuner;
  ASSERT_EQ(tuner.params().alpha, Duration::micros(1.0));
  std::uint64_t digest = 0x9e3779b97f4a7c15ULL;
  std::size_t picks = 0;
  for (const CollOp op : kAllOps) {
    for (const std::size_t m : sizes) {
      const std::vector<topo::TpuId> members = group(m);
      for (const Duration reconfig : reconfigs) {
        for (const Bandwidth rate : rates) {
          for (std::uint32_t bucket = 0; bucket <= 170; ++bucket) {
            const DataSize n = Autotuner::bucket_representative(bucket);
            ASSERT_EQ(Autotuner::size_bucket(n), bucket);
            const Decision d = tuner.pick(op, n, members, rate, reconfig, /*epoch=*/0);
            digest = fabric::hash_mix(digest, static_cast<std::uint64_t>(d.algo));
            ++picks;
          }
        }
      }
    }
  }
  EXPECT_EQ(picks, 1465128u);
  EXPECT_EQ(digest, 14419805410662272751ULL);
}

// ---------------------------------------------------------------------------
// Wiring: the tuner steering the runtime and serving layers.
// ---------------------------------------------------------------------------

TEST(TunerWiring, TrainingRunPicksRingForDefaultBuckets) {
  // 64 MiB buckets over the 56-member ring: beta dominates, the ring's
  // (m-1)/m bandwidth optimality wins, and the live schedule must be the
  // elastic ring the pre-autotuner runtime always built (bit-compatible
  // with the seed behavior).
  runtime::RunConfig config;
  config.iterations = 1;
  config.mtbf_hours = 0.0;
  const runtime::TrainingRun run{config};
  EXPECT_EQ(run.bucket_algorithm(), Algorithm::kRing);
  const std::size_t m = run.ring_members().size();
  ASSERT_EQ(m, 56u);
  EXPECT_EQ(run.schedule().phases.size(), 2 * (m - 1));
}

TEST(TunerWiring, TrainingRunPicksLogDepthForSmallBuckets) {
  // 64 KiB buckets flip the trade: alpha x 110 ring steps dwarfs the wire
  // time and the tuner must switch to a log-depth schedule (halving-
  // doubling: 2 x (5 + 1 fold) phases for m = 56 = 2^5 + 24).
  runtime::RunConfig config;
  config.iterations = 1;
  config.mtbf_hours = 0.0;
  config.iteration.bucket_bytes = DataSize::kib(64.0);
  const runtime::TrainingRun run{config};
  EXPECT_EQ(run.bucket_algorithm(), Algorithm::kHalvingDoubling);
  EXPECT_EQ(run.schedule().phases.size(), 12u);
  EXPECT_EQ(run.tuner().misses(), 1u);
}

TEST(TunerWiring, ServingSimRoutesExpertsAndKvThroughTuner) {
  serve::ServingParams p;
  p.replicas = 4;
  p.tiles_per_replica = 4;
  p.batch_capacity = 16;
  p.traffic.arrival_rate = 50e3;
  p.horizon = Duration::millis(5.0);
  p.drain = Duration::millis(20.0);
  p.mtbf_hours = 0.0;
  p.host.max_peers = 4;
  p.expert_peers = 2;

  const serve::ServingReport r = serve::run_serving(p);
  ASSERT_GT(r.rounds, 0u);
  // The per-round expert exchange volume sits far below the ring/rotation
  // crossover, so every decode round should ride the standing ring.
  EXPECT_EQ(r.expert_ring_rounds, r.rounds);
  // KV payloads (prompt-length x bytes/token) sit at or above the
  // direct/striped crossover, so the tuner must stripe at least some of
  // them — and never more than happened.
  ASSERT_GT(r.kv_migrations, 0u);
  EXPECT_GT(r.kv_striped, 0u);
  EXPECT_LE(r.kv_striped, r.kv_migrations);
  EXPECT_EQ(r.send_failures, 0u);

  // Tuner routing is part of the determinism contract: digests still match.
  const serve::ServingReport again = serve::run_serving(p);
  EXPECT_EQ(r.digest, again.digest);
  EXPECT_EQ(r.kv_striped, again.kv_striped);
}

// ---------------------------------------------------------------------------
// Phase walk: TrainingRun charges runtime::all_reduce_bucket_costs, a fold
// over the lowered AllReduce phases; the schedule Autotuner::build expands
// from the same phases must agree with it bit for bit.
// ---------------------------------------------------------------------------

/// The bucket-cost fold over a built schedule's transfers: the reference
/// the fold over the lowered phases must reproduce without building one.
runtime::BucketCosts schedule_bucket_costs(const Schedule& schedule) {
  runtime::BucketCosts costs;
  bool leading = true;
  for (const Phase& phase : schedule.phases) {
    Duration longest = Duration::zero();
    for (const Transfer& t : phase.transfers) {
      longest = std::max(longest, transfer_time(t.bytes, t.dedicated_rate));
    }
    costs.first += phase.pre_delay + longest;
    costs.steady += longest;
    if (!leading) costs.steady += phase.pre_delay;
    leading = false;
  }
  return costs;
}

std::uint64_t bits(Duration d) { return std::bit_cast<std::uint64_t>(d.to_seconds()); }
std::uint64_t bits(DataSize n) { return std::bit_cast<std::uint64_t>(n.to_bytes()); }

/// `m` distinct chip ids drawn from a 4096-chip pod in shuffled order.
std::vector<topo::TpuId> shuffled_group(std::size_t m, Rng& rng) {
  std::vector<topo::TpuId> ids(4096);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<topo::TpuId>(i);
  for (std::size_t i = 0; i < m; ++i) {
    std::swap(ids[i], ids[i + rng.uniform_index(ids.size() - i)]);
  }
  ids.resize(m);
  return ids;
}

TEST(PhaseWalk, FoldMatchesBuiltScheduleBitForBit) {
  const Autotuner tuner;
  const Bandwidth lambda = Bandwidth::gbps(224.0);  // one wavelength's line rate
  // The bucket costs' bits are pinned too: a change to how an AllReduce is
  // lowered moves the schedule and the fold alike, and only a recorded
  // value notices.
  std::uint64_t digest = 0x51ed2701a9b4c3d5ULL;
  std::vector<std::size_t> sizes;
  for (std::size_t m = 0; m <= 64; ++m) sizes.push_back(m);
  for (std::size_t m = 127; m <= 129; ++m) sizes.push_back(m);
  Rng rng{0x9a5e};
  for (const Algorithm algo : Autotuner::candidates(CollOp::kAllReduce)) {
    for (const std::size_t m : sizes) {
      const std::vector<topo::TpuId> members = shuffled_group(m, rng);
      for (const DataSize n :
           {DataSize::bytes(0.0), DataSize::bytes(1.0), DataSize::kib(64.0),
            DataSize::mib(64.0), DataSize::bytes(10e9), DataSize::bytes(1234567.0)}) {
        for (const Duration reconfig : {Duration::zero(), Duration::micros(3.7)}) {
          std::vector<PhaseRun> walk;  // one entry per phase
          ASSERT_TRUE(lower(CollOp::kAllReduce, algo, m, {.n = n, .reconfig = reconfig},
                            [&](const PhaseRun& run) {
                              walk.insert(walk.end(), run.count, run);
                            }));
          for (const Bandwidth rate : {lambda, lambda * 2.0, Bandwidth::zero()}) {
            const Schedule built =
                tuner.build(CollOp::kAllReduce, algo, members, n, rate, reconfig);
            const std::string at =
                std::string{to_string(algo)} + " m=" + std::to_string(m) +
                " n=" + std::to_string(n.to_bytes()) + "B rate=" +
                std::to_string(rate.to_gbps()) + "G reconfig=" +
                std::to_string(reconfig.to_micros()) + "us";
            ASSERT_EQ(walk.size(), built.phases.size()) << at;
            for (std::size_t k = 0; k < walk.size(); ++k) {
              const Phase& phase = built.phases[k];
              ASSERT_EQ(bits(walk[k].pre_delay), bits(phase.pre_delay))
                  << at << " phase " << k;
              ASSERT_FALSE(phase.transfers.empty()) << at << " phase " << k;
              const bool uniform = std::all_of(
                  phase.transfers.begin(), phase.transfers.end(), [&](const Transfer& t) {
                    return bits(t.bytes) == bits(walk[k].bytes) && t.dedicated_rate == rate;
                  });
              ASSERT_TRUE(uniform) << at << " phase " << k << ": a transfer off the walk";
            }
            const runtime::BucketCosts want = schedule_bucket_costs(built);
            const runtime::BucketCosts got =
                runtime::all_reduce_bucket_costs(algo, m, n, rate, reconfig);
            ASSERT_EQ(bits(got.first), bits(want.first)) << at;
            ASSERT_EQ(bits(got.steady), bits(want.steady)) << at;
            digest = fabric::hash_mix(digest, bits(got.first));
            digest = fabric::hash_mix(digest, bits(got.steady));
            if (m >= 2 && rate.is_zero() && n.to_bytes() > 0.0) {
              EXPECT_EQ(got.steady, Duration::infinite()) << at;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(digest, 16656129452768108725ULL);
}

TEST(PhaseWalk, IsEmptyOutsideTheAllReduceCandidates) {
  const Autotuner tuner;
  for (const Algorithm algo : {Algorithm::kRotation, Algorithm::kPipeline,
                               Algorithm::kDirect, Algorithm::kStriped}) {
    int phases = 0;
    EXPECT_FALSE(lower(CollOp::kAllReduce, algo, 8, {.n = DataSize::mib(1.0)},
                       [&](const PhaseRun&) { ++phases; }))
        << to_string(algo);
    EXPECT_EQ(phases, 0) << to_string(algo);
    const runtime::BucketCosts costs = runtime::all_reduce_bucket_costs(
        algo, 8, DataSize::mib(1.0), Bandwidth::gbps(224.0), Duration::zero());
    EXPECT_EQ(costs.first, Duration::zero()) << to_string(algo);
    EXPECT_EQ(costs.steady, Duration::zero()) << to_string(algo);
    EXPECT_EQ(tuner.predict(CollOp::kAllReduce, algo, 8, DataSize::mib(1.0),
                            Bandwidth::gbps(224.0), Duration::zero()),
              Duration::infinite())
        << to_string(algo);
    EXPECT_TRUE(tuner
                    .build(CollOp::kAllReduce, algo, group(8), DataSize::mib(1.0),
                           Bandwidth::gbps(224.0), Duration::zero())
                    .phases.empty())
        << to_string(algo);
  }
}

}  // namespace
}  // namespace lp::coll
