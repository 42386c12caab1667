// Ring, logarithmic and all-to-all schedules over explicit member lists.
//
// Each builder takes *whatever chips survive*, in order, and lowers a
// collective onto dedicated optical circuits at a caller-supplied rate —
// so the same builder serves healthy slices and elastically shrunk
// post-fault rings alike.  The family is what the autotuner chooses
// between:
//
//   * the elastic ring AllReduce, 2(m-1) steps of n/m around the ring —
//     the builder the runtime layer's elastic degradation depends on.
//   * binomial tree broadcast / reduce / all-reduce — K = ceil(log2 m)
//     phases of full-buffer transfers.  Every phase connects a fresh pair
//     set, so every phase pays the reconfiguration delay.
//   * recursive halving (ReduceScatter) / doubling (AllGather) and their
//     composition, the halving-doubling AllReduce.  Non-power-of-two
//     member counts use the standard fold: the `m - 2^K` extra members
//     collapse their buffers onto the leading core members in one
//     pre-phase (and fan back out in a post-phase for AG/AR), which keeps
//     the power-of-two core exact on any survivor set — degenerate 2- and
//     3-member groups included.
//   * ring ReduceScatter / AllGather — the halves of the elastic ring
//     AllReduce, exposed so the tuner can race them against halving.
//   * all-to-all as rotation (fresh pairing per round, r per phase) or as
//     fixed-ring store-and-forward (one reconfiguration, inflated bytes).
//   * point-to-point transfer, direct or striped across `ways` parallel
//     circuits (the KV-migration shapes).
//
// Every builder yields an empty schedule for fewer than two members, and
// every phase's transfers have uniform byte counts, so a schedule's
// simulated time is exactly sum over phases of (pre_delay + bytes/rate) —
// the property the autotuner's closed-form predictions rely on.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "collective/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/units.hpp"

namespace lp::coll {

/// Largest K with 2^K <= m, for m >= 1: the halving algorithms' core depth.
[[nodiscard]] constexpr std::uint32_t floor_log2(std::size_t m) {
  return static_cast<std::uint32_t>(std::bit_width(m)) - 1;
}

/// Smallest K with 2^K >= m, for m >= 1: the binomial tree's depth.
[[nodiscard]] constexpr std::uint32_t ceil_log2(std::size_t m) {
  return static_cast<std::uint32_t>(std::bit_width(m - 1));
}

/// Ring AllReduce: 2*(m-1) phases (reduce-scatter then all-gather), each
/// sending N/m bytes from member[i] to member[(i+1) % m] on a dedicated
/// circuit at `rate`, with the first phase paying `reconfig_delay`.
///
/// The member list is *whatever chips survive*, in ring order — this is the
/// elastic-degradation builder the runtime layer uses after a chip death
/// exhausts respare: the ring shrinks to the survivors and the job continues
/// at whatever `rate` the bridging circuits sustain instead of failing.
[[nodiscard]] Schedule build_elastic_ring_schedule(const std::vector<topo::TpuId>& members,
                                                   DataSize n, Bandwidth rate,
                                                   Duration reconfig_delay);

/// Binomial tree broadcast from members[0]: phase k doubles the set of
/// informed members (ranks [0, 2^k) send the full buffer to ranks
/// [2^k, 2^(k+1))).  ceil(log2 m) phases, each paying `reconfig_delay`.
[[nodiscard]] Schedule build_tree_broadcast_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Mirror of the broadcast tree: phase order and arrows reversed, reducing
/// the full buffer onto members[0].
[[nodiscard]] Schedule build_tree_reduce_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Reduce-to-root followed by broadcast: 2 * ceil(log2 m) phases.
[[nodiscard]] Schedule build_tree_all_reduce_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Recursive halving ReduceScatter.  With m = 2^K + rem: one fold
/// pre-phase when rem > 0 (extras send the full buffer onto the leading
/// core members), then K pairwise-exchange phases of n/2, n/4, ... n/2^K
/// bytes.  Every phase pays `reconfig_delay`.
[[nodiscard]] Schedule build_halving_reduce_scatter_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Recursive doubling AllGather: the halving phases mirrored (n/2^K first,
/// n/2 last), plus an unfold post-phase when rem > 0.
[[nodiscard]] Schedule build_doubling_all_gather_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Halving-doubling AllReduce: fold, halving, doubling, unfold.
[[nodiscard]] Schedule build_halving_doubling_all_reduce_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Ring ReduceScatter: m-1 phases of n/m bytes around the member ring,
/// reconfiguration on the first phase only (the ring circuits persist).
[[nodiscard]] Schedule build_ring_reduce_scatter_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Ring AllGather: identical traffic pattern to the ReduceScatter half.
[[nodiscard]] Schedule build_ring_all_gather_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Pipelined chain broadcast from members[0]: the buffer splits into
/// `chunks` pieces streamed down the member chain; (m-1) + (chunks-1)
/// phases of n/chunks bytes, reconfiguration on the first phase only.
[[nodiscard]] Schedule build_pipeline_broadcast_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, std::uint32_t chunks,
    Bandwidth rate, Duration reconfig_delay);

/// Rotation all-to-all: m-1 rounds, round k pairing i -> (i+k) mod m with
/// n/(m-1) bytes (n = total bytes each member sends).  Fresh pairing every
/// round, so every phase pays `reconfig_delay`.
[[nodiscard]] Schedule build_rotation_all_to_all_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Fixed-ring store-and-forward all-to-all: every member forwards along
/// its standing i -> i+1 circuit for m-1 phases, carrying the uniform
/// per-link load n*m / (2*(m-1)) per phase (total byte-hops n*m^2/2 spread
/// over m links and m-1 phases).  One reconfiguration, inflated bytes —
/// the opposite trade to rotation, which is what gives the tuner a real
/// crossover.
[[nodiscard]] Schedule build_ring_all_to_all_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay);

/// Point-to-point bulk transfer on one dedicated circuit.
[[nodiscard]] Schedule build_direct_transfer_schedule(topo::TpuId src,
                                                      topo::TpuId dst, DataSize n,
                                                      Bandwidth rate,
                                                      Duration reconfig_delay);

/// The same transfer striped across `ways` parallel circuits of n/ways
/// bytes each (set up together: one reconfiguration, `ways` posted sends).
[[nodiscard]] Schedule build_striped_transfer_schedule(topo::TpuId src,
                                                       topo::TpuId dst, DataSize n,
                                                       std::uint32_t ways,
                                                       Bandwidth rate,
                                                       Duration reconfig_delay);

}  // namespace lp::coll
