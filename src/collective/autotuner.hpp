// NCCL-style collective autotuner over the alpha-beta-r model.
//
// Given (collective op, message size, member group, fabric health state),
// the tuner prices every candidate schedule and returns the
// predicted-fastest.  A candidate is one row of the lowering
// (collective/lowering.hpp), and predict() folds that row's phase list,
// the same list build() expands into the schedule, so a prediction cannot
// drift from the schedule it prices.  The cost convention matches the flow
// simulator exactly: a schedule's measured cost is defined as
//
//   sim::FlowSimulator::run(schedule).total + alpha * alpha_units(schedule)
//
// where alpha_units charges the per-send software overhead the simulator
// itself does not model (one unit per phase per posting source; see
// alpha_units below).  Every lowered phase moves uniform bytes on
// dedicated circuits, so predict() reproduces that measured cost to within
// floating-point rounding — the differential harness in autotuner_test
// asserts it, and any divergence (a mispredicted pick beyond the
// documented tolerance) is a test failure, not a soft warning.
//
// Decision cache.  pick() memoizes decisions keyed by
//
//   (op, size bucket, topology fingerprint, fabric epoch)
//
// with quarter-octave size buckets (four per doubling).  The cached
// decision is computed at the bucket's canonical representative size (its
// geometric midpoint), NOT the requested size, so a decision is a pure
// function of the key: lookup order, thread interleaving, and which exact
// size first touched a bucket can never change what the cache returns.
// The topology fingerprint hashes the member list, rate, and
// reconfiguration delay; the fabric epoch (fabric::Fabric::epoch(), bumped
// on every invalidating ledger event) makes stale entries unreachable
// without any explicit invalidation hook.  When the map outgrows
// `cache_capacity` it is reset wholesale — entries are cheap to recompute
// and epoch churn retires them in bulk anyway.
//
// Tie-break.  Equal predicted costs are broken by a documented total
// order: ascending fixed algorithm rank (the Algorithm enumerator value),
// then algorithm name — so tuner output is invariant under candidate
// enumeration order, thread count, and insertion history.
//
// Misprediction tolerance.  A pick is correct iff its measured cost is
// within tolerance_rel (relative) plus tolerance_abs (absolute slack,
// absorbing bucket quantization near crossovers) of the best measured
// candidate.  See DESIGN.md "Collective autotuner".
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>

#include "collective/lowering.hpp"
#include "collective/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/units.hpp"

namespace lp::coll {

struct TunerParams {
  /// Per-send software overhead (the cost model's alpha), charged once per
  /// phase per posting source on top of the simulated wire time.
  Duration alpha{Duration::micros(1.0)};
  /// Chunk count for the pipeline broadcast candidate (0 counts as 1).
  std::uint32_t broadcast_chunks{16};
  /// Stripe count for the striped transfer candidate (0 counts as 1).
  std::uint32_t stripe_ways{4};
  /// Decision-cache reset threshold (entries).
  std::size_t cache_capacity{std::size_t{1} << 16};
  /// Misprediction tolerance: pick is correct iff
  /// measured(pick) <= measured(best) * (1 + tolerance_rel) + tolerance_abs.
  double tolerance_rel{0.05};
  Duration tolerance_abs{Duration::micros(2.0)};
};

struct Decision {
  Algorithm algo{Algorithm::kRing};
  /// Predicted cost of `algo` at the bucket's representative size (the
  /// size the cached decision was evaluated at).
  Duration predicted{Duration::zero()};
  bool cache_hit{false};
};

class Autotuner {
 public:
  explicit Autotuner(TunerParams params = {});

  [[nodiscard]] const TunerParams& params() const { return params_; }

  /// Candidate algorithms for `op`, in rank order: the lowering's rows.
  [[nodiscard]] static std::span<const Algorithm> candidates(CollOp op);

  /// Alpha-beta-r cost of `algo` on a group of `m` members exchanging `n`
  /// bytes over dedicated circuits at `rate` with reconfiguration delay
  /// `reconfig`: the lowered phases folded in schedule order, each adding
  /// alpha * units + pre_delay + transfer_time(bytes, rate).  Equals the
  /// measured cost of the corresponding build() schedule (see header
  /// comment) to within floating-point rounding; infinite for a pair no row
  /// lowers.  Allocates nothing.
  [[nodiscard]] Duration predict(CollOp op, Algorithm algo, std::size_t m,
                                 DataSize n, Bandwidth rate,
                                 Duration reconfig) const;

  /// Memoized pick: O(1) hot path on the decision cache (hash + map find).
  /// Computes the topology fingerprint from `members` — callers that
  /// already hold a fingerprint should use pick_keyed.
  [[nodiscard]] Decision pick(CollOp op, DataSize n,
                              std::span<const topo::TpuId> members,
                              Bandwidth rate, Duration reconfig,
                              std::uint64_t fabric_epoch);

  /// Memoized pick with a precomputed topology fingerprint (the hot path:
  /// no per-call member walk).
  [[nodiscard]] Decision pick_keyed(CollOp op, DataSize n, std::size_t m,
                                    std::uint64_t topology_fingerprint,
                                    Bandwidth rate, Duration reconfig,
                                    std::uint64_t fabric_epoch);

  /// Materializes the chosen schedule (lower_schedule with this tuner's
  /// chunk and stripe counts).  For CollOp::kTransfer the group is
  /// {src, dst}.
  [[nodiscard]] Schedule build(CollOp op, Algorithm algo,
                               std::span<const topo::TpuId> members,
                               DataSize n, Bandwidth rate,
                               Duration reconfig) const;

  /// Quarter-octave size bucket: four buckets per doubling of bytes.
  [[nodiscard]] static std::uint32_t size_bucket(DataSize n);
  /// Canonical evaluation size of a bucket (its geometric midpoint).
  [[nodiscard]] static DataSize bucket_representative(std::uint32_t bucket);
  /// Order-sensitive hash of (members, rate, reconfig): the fabric-health
  /// component of the cache key.
  [[nodiscard]] static std::uint64_t topology_fingerprint(
      std::span<const topo::TpuId> members, Bandwidth rate, Duration reconfig);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;

 private:
  struct Entry {
    CollOp op{CollOp::kReduceScatter};
    std::uint32_t bucket{0};
    std::uint64_t fingerprint{0};
    std::uint64_t epoch{0};
    Algorithm algo{Algorithm::kRing};
    Duration predicted{Duration::zero()};
  };

  /// The lowering's inputs at this tuner's chunk and stripe counts.
  [[nodiscard]] LoweringParams lowering(DataSize n, Duration reconfig) const;

  /// Uncached evaluation: min over candidates by (cost, rank, name).
  [[nodiscard]] Decision evaluate(CollOp op, std::size_t m, DataSize n,
                                  Bandwidth rate, Duration reconfig) const;

  TunerParams params_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> cache_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

/// The per-schedule software-overhead unit count: for each phase, the
/// maximum number of transfers any single source posts (every source's
/// sends in a phase are posted back-to-back; distinct sources overlap).
/// Ring/tree/halving/rotation phases charge 1 unit; a striped transfer
/// charges `ways`.
[[nodiscard]] double alpha_units(const Schedule& schedule);

/// The measured-cost convention the tuner is validated against:
/// simulated schedule time plus alpha * alpha_units.  `simulated_total` is
/// sim::FlowSimulator::run(schedule).total (the collective layer cannot
/// call the simulator itself — sim/ links against collective/).
[[nodiscard]] Duration measured_cost(Duration simulated_total,
                                     const Schedule& schedule, Duration alpha);

}  // namespace lp::coll
