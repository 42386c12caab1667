// All-to-all traffic, the §5 challenge workload (Mixture-of-Experts
// inference routes tokens between arbitrary chip pairs chosen by a runtime
// gating function).
//
// The schedule is the classic p-1 round rotation: in round k, chip j sends
// its (j+k mod p) shard.  On the electrical torus each transfer follows a
// dimension-ordered route and rounds contend; on the photonic fabric each
// round programs fresh circuits (one reconfiguration per round) and runs
// contention-free.
#pragma once

#include <vector>

#include "collective/schedule.hpp"
#include "topo/cluster.hpp"
#include "topo/slice.hpp"
#include "util/rng.hpp"

namespace lp::coll {

/// Per-pair byte demands (row = sender index within `chips`).
struct DemandMatrix {
  std::size_t size{0};
  std::vector<DataSize> bytes;  ///< size x size, row-major; diagonal ignored

  [[nodiscard]] DataSize at(std::size_t src, std::size_t dst) const {
    return bytes[src * size + dst];
  }
  void set(std::size_t src, std::size_t dst, DataSize b) { bytes[src * size + dst] = b; }
};

/// Uniform all-to-all: every pair exchanges n / (p-1).
[[nodiscard]] DemandMatrix uniform_all_to_all(std::size_t chips, DataSize n);

/// MoE-style gating demand: each of `tokens` tokens on every chip is routed
/// to `experts_per_token` random expert chips; bytes = tokens * token_bytes
/// aggregated per destination.  Skewed and sparse, unlike the uniform case.
[[nodiscard]] DemandMatrix moe_gating_demand(std::size_t chips, std::size_t tokens,
                                             std::size_t experts_per_token,
                                             DataSize token_bytes, Rng& rng);

/// Dimension-ordered (X then Y then Z, signed shortest way) route between
/// two chips of one rack.
[[nodiscard]] std::vector<topo::DirectedLink> dimension_order_route(
    const topo::TpuCluster& cluster, topo::TpuId from, topo::TpuId to);

/// Builds the rotation schedule over the slice's chips for the demand
/// matrix.  Electrical transfers carry dimension-ordered routes; optical
/// rounds are contention-free at `circuit_rate` with a reconfiguration
/// pre-delay per round.  Empty for a slice outside its rack
/// (topo::outside_rack) or a demand matrix of another size.
[[nodiscard]] Schedule build_all_to_all_schedule(const topo::TpuCluster& cluster,
                                                 const topo::Slice& slice,
                                                 const DemandMatrix& demand,
                                                 Interconnect interconnect,
                                                 const CostParams& params);

}  // namespace lp::coll
