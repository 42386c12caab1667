// Link-level congestion analysis on the electrical torus.
//
// "We define congestion in a direct-connect topology as the scenario where
// multiple transfers occur simultaneously on the same link" (§4.1).  This
// module materializes the steady-state link occupancy of every slice's
// collective rings and answers:
//   * is a set of rings congestion-free? (max per-link load <= 1)
//   * which dimensions can a slice ring on without congesting anyone?
//   * can a spare chip be wired into a broken ring without congestion?
//     (the Figure 6 search)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "collective/cost_model.hpp"
#include "collective/ring.hpp"
#include "topo/cluster.hpp"
#include "topo/slice.hpp"

namespace lp::coll {

/// Per-directed-link transfer counts for one rack (or cluster).
class LinkLoad {
 public:
  explicit LinkLoad(std::size_t link_count);

  void add(const topo::DirectedLink& link);
  void add_all(const std::vector<topo::DirectedLink>& links);

  [[nodiscard]] std::uint32_t load(const topo::DirectedLink& link) const;
  [[nodiscard]] std::uint32_t max_load() const;
  [[nodiscard]] bool congestion_free() const { return max_load() <= 1; }
  /// Number of links carrying more than one simultaneous transfer.
  [[nodiscard]] std::size_t congested_link_count() const;
  /// Number of links carrying at least one transfer.
  [[nodiscard]] std::size_t busy_link_count() const;

 private:
  std::vector<std::uint32_t> load_;
};

/// Which ring dimensions each slice drives.
enum class RingSelection : std::uint8_t {
  kUsableOnly,  ///< only full-extent dims (the congestion-avoiding policy)
  kAllActive,   ///< every extent>1 dim (what a naive tenant would run)
};

/// The realized rings of one slice's steady-state collective.
struct SliceTraffic {
  topo::SliceId slice{-1};
  std::vector<RingRealization> rings;
  /// Links used, including forwarding hops.
  std::vector<topo::DirectedLink> links;
  /// Chips outside the slice that must forward traffic.
  std::vector<topo::TpuId> transit_chips;
};

/// Builds the steady-state ring traffic of a slice under the selection
/// policy.  kUsableOnly realizes the cost model's electrical plan (snake
/// stage over partially-spanned dims + proper rings over spanned dims);
/// kAllActive additionally realizes +d rings over partially-spanned dims,
/// whose wrap edges leave the slice.
[[nodiscard]] SliceTraffic slice_traffic(const topo::TpuCluster& cluster,
                                         const topo::Slice& slice,
                                         RingSelection selection);

/// Aggregated rack analysis: every active slice's traffic overlaid.
struct RackAnalysis {
  LinkLoad load;
  std::vector<SliceTraffic> per_slice;
  bool congestion_free{false};
  /// Chips forced to forward traffic of a slice they do not belong to.
  std::size_t foreign_transits{0};
};

[[nodiscard]] RackAnalysis analyze_rack(const topo::TpuCluster& cluster,
                                        const topo::SliceAllocator& alloc,
                                        topo::RackId rack, RingSelection selection);

/// BFS search for a congestion-free electrical path from `from` to `to`,
/// confined to the rack of `from` (a repair path may not leave the failed
/// slice's rack; `to` in another rack is unreachable by construction):
/// intermediate chips must be free (not allocated, not failed) because
/// forwarding consumes an allocated chip's fully-subscribed links, and no
/// directed link may already be loaded in `busy`.  Endpoints are exempt
/// from the allocation check (the source is a ring member by design).
/// Returns the hop-by-hop chip sequence including both endpoints, or
/// nullopt when no such path exists — the "impossible without congestion"
/// outcome of Figure 6a.
[[nodiscard]] std::optional<std::vector<topo::TpuId>> find_uncongested_path(
    const topo::TpuCluster& cluster, const topo::SliceAllocator& alloc,
    const LinkLoad& busy, topo::TpuId from, topo::TpuId to);

}  // namespace lp::coll
