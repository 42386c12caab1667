// Executable communication schedules.
//
// A Schedule lowers a collective (or any traffic pattern) to phases of
// simultaneous point-to-point transfers.  Electrical transfers carry their
// directed-link route and compete for link bandwidth in the flow simulator;
// optical transfers ride a dedicated circuit at a fixed rate (contention-
// free by construction) and phases that re-program the fabric carry a
// reconfiguration delay.
#pragma once

#include <vector>

#include "collective/cost_model.hpp"
#include "collective/ring.hpp"
#include "topo/cluster.hpp"
#include "topo/slice.hpp"
#include "util/units.hpp"

namespace lp::coll {

struct Transfer {
  topo::TpuId src{0};
  topo::TpuId dst{0};
  DataSize bytes{DataSize::zero()};
  /// Directed links the transfer occupies (empty for optical circuits).
  std::vector<topo::DirectedLink> route;
  /// For optical transfers: the dedicated circuit rate.  Zero means the
  /// transfer is electrical and routed over `route`.
  Bandwidth dedicated_rate{Bandwidth::zero()};

  [[nodiscard]] bool is_optical() const { return !dedicated_rate.is_zero(); }
};

struct Phase {
  /// Delay charged before the phase's transfers start (e.g. optical
  /// reconfiguration of the stage's circuits).
  Duration pre_delay{Duration::zero()};
  std::vector<Transfer> transfers;
};

struct Schedule {
  std::vector<Phase> phases;

  [[nodiscard]] DataSize total_bytes() const;
};

/// Lowers a ReduceScatter on `slice` to an executable schedule.
///
/// Every slice-level builder (these four and build_all_to_all_schedule)
/// returns an empty schedule for a slice that topo::outside_rack rejects.
///
/// Electrical: the cost model's plan stages are realized as rings
/// (serpentine for the snake stage, +d rings otherwise); each ring step
/// becomes a phase whose transfers follow the realized links at the static
/// per-dimension bandwidth.
///
/// Optical: the same ring structure, but each transfer rides a dedicated
/// circuit at the redirected per-stage bandwidth and the first phase of
/// each stage is preceded by the reconfiguration delay.
[[nodiscard]] Schedule build_reduce_scatter_schedule(const topo::TpuCluster& cluster,
                                                     const topo::Slice& slice, DataSize n,
                                                     Interconnect interconnect,
                                                     const CostParams& params,
                                                     RedirectStrategy strategy =
                                                         RedirectStrategy::kStaticSplit);

/// AllGather over the slice's plan rings: the mirror image of
/// ReduceScatter — same step count, same per-step bytes, stages in reverse
/// order (the gather grows the shard each stage), one reconfiguration on
/// each optical stage's first phase.
[[nodiscard]] Schedule build_all_gather_schedule(const topo::TpuCluster& cluster,
                                                 const topo::Slice& slice, DataSize n,
                                                 Interconnect interconnect,
                                                 const CostParams& params,
                                                 RedirectStrategy strategy =
                                                     RedirectStrategy::kStaticSplit);

/// AllReduce = ReduceScatter followed by AllGather on the same rings.  With
/// the static-split strategy the circuits persist across both halves, so
/// only the first half pays reconfiguration.
[[nodiscard]] Schedule build_all_reduce_schedule(const topo::TpuCluster& cluster,
                                                 const topo::Slice& slice, DataSize n,
                                                 Interconnect interconnect,
                                                 const CostParams& params,
                                                 RedirectStrategy strategy =
                                                     RedirectStrategy::kStaticSplit);

/// Pipelined ring broadcast from the slice's first chip: the lowering's
/// pipeline broadcast (lowering.hpp) over a serpentine covering every chip,
/// with `chunks` pieces: p-1+chunks-1 phases.  Optical transfers ride the
/// full chip bandwidth behind one reconfiguration; electrical ones follow
/// the serpentine's links.  Zero chunks yields an empty schedule.
[[nodiscard]] Schedule build_broadcast_schedule(const topo::TpuCluster& cluster,
                                                const topo::Slice& slice, DataSize n,
                                                unsigned chunks,
                                                Interconnect interconnect,
                                                const CostParams& params);

}  // namespace lp::coll
