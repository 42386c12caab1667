// One lowering per collective.
//
// Every (collective op, algorithm) pair the autotuner races is written out
// once, as one row of the table in lowering.cpp: the list of its
// schedule's phases, in order, for any member count m.  A phase is
// (pre-delay, bytes per transfer, pair pattern over member indices, alpha
// units), and the list comes in runs of identical phases (a ring's steps
// after the first are one run).  Every transfer of a phase moves the same
// bytes on its own dedicated circuit at the schedule's one rate, so a
// phase lasts pre_delay + transfer_time(bytes, rate) whichever chips the
// members are.  Three consumers read the list, so a prediction cannot
// drift from the schedule it prices:
//
//   * Autotuner::predict folds it phase by phase, in schedule order;
//   * lower_schedule expands each phase's pattern over a member list
//     (Autotuner::build, the slice-level pipeline broadcast);
//   * runtime::all_reduce_bucket_costs folds it with its first/steady rule.
//
// The rows, over whatever members survive, in order:
//
//   * ring — every member sends to the next around the member ring, the
//     circuits set up once before the first step: 2(m-1) steps of n/m for
//     the elastic AllReduce, m-1 for ReduceScatter and AllGather, and m-1
//     steps of n*m / (2(m-1)) for the fixed-ring store-and-forward
//     all-to-all (n*m^2/2 byte-hops spread over m links and m-1 phases).
//   * binomial tree — ceil(log2 m) full-buffer phases, each on a fresh pair
//     set and so each paying r: the broadcast doubles the informed prefix
//     from member 0, the AllReduce first reduces onto member 0 the same
//     way backwards.
//   * recursive halving (ReduceScatter), doubling (AllGather) and the
//     halving-doubling AllReduce — with m = 2^K + extras, a fold pre-phase
//     (the extras push their full buffer onto the leading members), K
//     pairwise exchanges of n/2 .. n/2^K over the power-of-two core (small
//     shards first for the gather), and an unfold post-phase; exact down to
//     two- and three-member groups.  Every phase pays r.
//   * pipelined chain broadcast — `chunks` pieces of n/chunks streamed down
//     the member chain, (m-1) + (chunks-1) phases, r once.
//   * rotation all-to-all — m-1 rounds, round k pairing i -> i+k with
//     n/(m-1) bytes, r every round.
//   * point-to-point transfer — direct, or striped over `ways` parallel
//     circuits set up together (one r, `ways` posted sends).
//
// A group of fewer than two members exchanges nothing, so its list is
// empty; the transfer rows price the {src, dst} pair whatever m is.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "collective/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/units.hpp"

namespace lp::coll {

enum class CollOp : std::uint8_t {
  kReduceScatter = 0,
  kAllGather = 1,
  kAllReduce = 2,
  kBroadcast = 3,
  kAllToAll = 4,
  kTransfer = 5,
};

/// Candidate schedule families.  The enumerator value IS the fixed
/// tie-break rank: lower wins on equal predicted cost.
enum class Algorithm : std::uint8_t {
  kRing = 0,
  kTree = 1,
  kHalvingDoubling = 2,
  kRotation = 3,
  kPipeline = 4,
  kDirect = 5,
  kStriped = 6,
};

[[nodiscard]] constexpr const char* to_string(CollOp op) {
  switch (op) {
    case CollOp::kReduceScatter: return "ReduceScatter";
    case CollOp::kAllGather: return "AllGather";
    case CollOp::kAllReduce: return "AllReduce";
    case CollOp::kBroadcast: return "Broadcast";
    case CollOp::kAllToAll: return "AllToAll";
    case CollOp::kTransfer: return "Transfer";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::kRing: return "ring";
    case Algorithm::kTree: return "tree";
    case Algorithm::kHalvingDoubling: return "halving-doubling";
    case Algorithm::kRotation: return "rotation";
    case Algorithm::kPipeline: return "pipeline";
    case Algorithm::kDirect: return "direct";
    case Algorithm::kStriped: return "striped";
  }
  return "?";
}

/// Fixed tie-break rank (documented total order, first key after cost).
[[nodiscard]] constexpr int algorithm_rank(Algorithm a) {
  return static_cast<int>(a);
}

/// Largest K with 2^K <= m, for m >= 1: the halving algorithms' core depth.
[[nodiscard]] constexpr std::uint32_t floor_log2(std::size_t m) {
  return static_cast<std::uint32_t>(std::bit_width(m)) - 1;
}

/// Smallest K with 2^K >= m, for m >= 1: the binomial tree's depth.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::size_t m) {
  return static_cast<std::uint32_t>(std::bit_width(m - 1));
}

/// Which members a phase connects: (source, destination) index pairs over
/// the member list, in the order the phase posts them.
enum class Pattern : std::uint8_t {
  kRotate,     ///< i -> (i + arg) mod m for every i; arg = 1 is a ring step
  kStrideOut,  ///< i -> i + arg for i < arg, i + arg < m (tree broadcast, unfold)
  kStrideIn,   ///< i + arg -> i over the same i (tree reduce, fold)
  kXor,        ///< i -> i XOR arg over the core [0, 2^floor_log2(m))
  kChain,      ///< j -> j + 1 for every chain edge j in [arg, end)
  kRepeat,     ///< 0 -> 1, arg times
};

/// `count` consecutive, identical phases: the unit a lowering lists.  A
/// consumer still takes them one phase at a time (a fold adds each phase's
/// cost in turn; it never multiplies by `count`).
struct PhaseRun {
  std::size_t count{1};
  Duration pre_delay{Duration::zero()};
  DataSize bytes{DataSize::zero()};  ///< every transfer's
  Pattern pattern{Pattern::kRotate};
  std::size_t arg{1};
  std::size_t end{0};  ///< kChain only
  /// Most sends any one source posts in a phase: what alpha_units counts.
  double alpha_units{1.0};
};

/// What a lowering reads besides the op, the algorithm and the member
/// count: the bytes, the reconfiguration delay r paid before a phase that
/// connects fresh pairs, and the pipeline broadcast's chunk count and the
/// striped transfer's stripe count (each taken as at least 1).
struct LoweringParams {
  DataSize n{DataSize::zero()};
  Duration reconfig{Duration::zero()};
  std::uint32_t chunks{1};
  std::uint32_t ways{1};
};

/// A borrowed callable taking each run in turn: how a lowering hands its
/// phases to a consumer without allocating.  It must not outlive the
/// callable it refers to.
class RunSink {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RunSink>)
  RunSink(F&& f)  // NOLINT(google-explicit-constructor): a function reference
      : target_{const_cast<void*>(static_cast<const void*>(std::addressof(f)))},
        call_{[](void* target, const PhaseRun& run) {
          (*static_cast<std::remove_reference_t<F>*>(target))(run);
        }} {}

  void operator()(const PhaseRun& run) const { call_(target_, run); }

 private:
  void* target_;
  void (*call_)(void*, const PhaseRun&);
};

/// The algorithms the table lowers `op` with, in rank order.
[[nodiscard]] std::span<const Algorithm> lowered_algorithms(CollOp op);

/// Hands the phases of (op, algo) on `m` members to `sink`, run by run in
/// schedule order.  Returns false, handing over nothing, when no row lowers
/// (op, algo).  Allocates nothing.
bool lower(CollOp op, Algorithm algo, std::size_t m, const LoweringParams& params,
           RunSink sink);

/// The schedule of (op, algo) over `members`, every transfer on a dedicated
/// circuit at `rate`; for CollOp::kTransfer the pair is members[0] ->
/// members[1].  Empty for fewer than two members and for a pair no row
/// lowers.
[[nodiscard]] Schedule lower_schedule(CollOp op, Algorithm algo,
                                      std::span<const topo::TpuId> members,
                                      Bandwidth rate, const LoweringParams& params);

}  // namespace lp::coll
