// Ring construction on the electrical torus, at directed-link granularity.
//
// The multi-dimensional bucket algorithms run direction-uniform rings: each
// participant sends to its next neighbor in the +d direction and the cycle
// closes over the torus wraparound (Sack & Gropp [39/40]; §4.1).  When a
// slice spans the rack's full extent in d the cycle's links all stay inside
// the slice.  When it does not, the closing edge must walk +d through chips
// that are not members of the ring — the forwarding that §4.2 calls out
// ("Traffic not destined for a TPU must be forwarded, consuming its
// bandwidth") and the mechanism behind both Figure 5b's shared-dimension
// congestion and Figure 6's repair congestion.
//
// Serpentine rings realize the folded "snake" stage of the cost model: a
// Hamiltonian cycle over the slice's partially-spanned sub-grid using both
// link directions, all inside the slice.
#pragma once

#include <vector>

#include "collective/cost_model.hpp"
#include "topo/cluster.hpp"
#include "topo/slice.hpp"

namespace lp::coll {

/// One realized ring: the member cycle plus every directed link its steady
/// state occupies and every non-member chip it forwards through.
struct RingRealization {
  std::vector<topo::TpuId> members;  ///< cycle order; members.size() >= 2
  std::vector<topo::DirectedLink> links;
  std::vector<topo::TpuId> transit_chips;  ///< non-members that must forward
};

/// All +d rings of the slice along dimension `d` (one per combination of
/// the other coordinates).  Returns an empty vector if the slice has unit
/// extent in `d`.
[[nodiscard]] std::vector<RingRealization> rings_in_dim(const topo::TpuCluster& cluster,
                                                        const topo::Slice& slice,
                                                        std::size_t d);

/// A serpentine Hamiltonian cycle over the slice restricted to `dims`
/// (boustrophedon order), fixing all other dimensions at `fixed`.  All
/// links stay inside the slice.
[[nodiscard]] RingRealization snake_ring(const topo::TpuCluster& cluster,
                                         const topo::Slice& slice,
                                         const std::vector<std::size_t>& dims,
                                         topo::Coord fixed);

/// All serpentine rings for the slice's snake stage over `dims` (one per
/// combination of the remaining dimensions' coordinates).
[[nodiscard]] std::vector<RingRealization> snake_rings(const topo::TpuCluster& cluster,
                                                       const topo::Slice& slice,
                                                       const std::vector<std::size_t>& dims);

/// The rings realizing one stage of the slice's plan (build_plan): for the
/// snake stage, the serpentine rings over every partially-spanned active dim
/// plus the first usable dim; for any other stage, the +d rings of its dim.
[[nodiscard]] std::vector<RingRealization> realize_stage(const topo::TpuCluster& cluster,
                                                         const topo::Slice& slice,
                                                         const RingStage& stage);

}  // namespace lp::coll
