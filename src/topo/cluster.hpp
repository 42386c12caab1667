// TPUv4-style direct-connect cluster substrate.
//
// Models the deployment the paper analyzes in §4 (Figure 5a): up to 64
// racks, each rack a 4x4x4 3D torus of TPU chips.  Within a rack the links
// are electrical; every face of the rack cube attaches to optical circuit
// switches (OCSes) that realize the wraparound links and can join multiple
// racks into larger tori.  Each rack contains 16 multi-accelerator servers
// of 4 chips (2x2x1 groups).
//
// Bandwidth convention (matches the paper's cost math): `chip_bandwidth` B
// is the total egress a chip can drive concurrently across its D=3
// dimensions, so each dimension gets B/3 in a static electrical torus, and
// a direction-uniform ring in one dimension runs at B/3.  Every directed
// link (chip, dim, sign) has capacity B/3.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "topo/torus.hpp"
#include "util/units.hpp"

namespace lp::topo {

/// Global chip id across the cluster.
using TpuId = std::int32_t;
/// Rack index.
using RackId = std::int32_t;

enum class ChipState : std::uint8_t { kFree = 0, kAllocated = 1, kFailed = 2 };

/// A directed electrical link: the egress of `chip` along dimension `dim`
/// in direction `sign` (+1 or -1), with torus wraparound.
struct DirectedLink {
  TpuId chip{0};
  std::uint8_t dim{0};
  std::int8_t sign{+1};
  friend constexpr auto operator<=>(const DirectedLink&, const DirectedLink&) = default;
};

/// Dense key for DirectedLink maps: chip * 6 + dim * 2 + (sign < 0).
[[nodiscard]] constexpr std::size_t link_key(const DirectedLink& l) {
  return static_cast<std::size_t>(l.chip) * 6 + static_cast<std::size_t>(l.dim) * 2 +
         (l.sign < 0 ? 1u : 0u);
}

struct ClusterConfig {
  std::int32_t racks{64};
  Shape rack_shape{{4, 4, 4}};
  /// Total egress bandwidth per chip (B in the paper's cost model).
  Bandwidth chip_bandwidth{Bandwidth::gBps(300.0)};
  /// Server grouping within the rack (2x2x1 trays of 4 chips).
  Shape server_group{{2, 2, 1}};
};

class TpuCluster {
 public:
  explicit TpuCluster(ClusterConfig config = {});

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::int32_t rack_count() const { return config_.racks; }
  [[nodiscard]] std::int32_t chips_per_rack() const { return rack_torus_.size(); }
  [[nodiscard]] std::int32_t chip_count() const {
    return config_.racks * chips_per_rack();
  }
  [[nodiscard]] std::int32_t servers_per_rack() const;

  [[nodiscard]] const Torus& rack_torus() const { return rack_torus_; }

  /// Global chip id of (rack, coordinate-within-rack).
  [[nodiscard]] TpuId chip_at(RackId rack, Coord c) const;
  [[nodiscard]] RackId rack_of(TpuId chip) const { return chip / chips_per_rack(); }
  [[nodiscard]] Coord coord_of(TpuId chip) const;

  /// Server index within the rack of the given chip (0..15 by default).
  [[nodiscard]] std::int32_t server_of(TpuId chip) const;
  /// All chips on the same server as `chip` (including itself).
  [[nodiscard]] std::vector<TpuId> server_chips(TpuId chip) const;

  [[nodiscard]] ChipState state(TpuId chip) const { return states_[static_cast<std::size_t>(chip)]; }
  /// The only writer of chip state.  Keeps the free counts, the per-rack
  /// free masks, the free-count rack index and free_epoch() current.
  void set_state(TpuId chip, ChipState s) {
    ChipState& cur = states_[static_cast<std::size_t>(chip)];
    const bool was_free = cur == ChipState::kFree;
    cur = s;
    if (was_free != (s == ChipState::kFree)) flip_free(chip, !was_free);
  }

  /// Number of kFree chips in `rack`, O(1).
  [[nodiscard]] std::int32_t free_in_rack(RackId rack) const {
    return rack_free_[static_cast<std::size_t>(rack)];
  }
  /// Number of kFree chips in the cluster, O(1).
  [[nodiscard]] std::int32_t free_count() const { return free_count_; }

  /// The kFree chips of `rack` as a bitset over rack-torus indices: bit i
  /// of word i / 64 is chip rack * chips_per_rack() + i.  The mask has
  /// ⌈chips_per_rack / 64⌉ words; bits past chips_per_rack() are 0.
  [[nodiscard]] std::span<const std::uint64_t> free_mask(RackId rack) const {
    return {bits_.data() + static_cast<std::size_t>(rack) * mask_words_, mask_words_};
  }

  /// Bumped on every transition into kFree.  While it stays put the free
  /// set can only shrink, so a placement that failed still fails.
  [[nodiscard]] std::uint64_t free_epoch() const { return free_epoch_; }

  /// The free-count index the rack walks below read.  racks_with_free(n)
  /// is the racks with exactly n kFree chips, as a bitset over rack ids
  /// (⌈racks / 64⌉ words); free_counts() is the counts in 0..chips_per_rack()
  /// that some rack has, as a bitset.
  [[nodiscard]] std::span<const std::uint64_t> racks_with_free(std::int32_t n) const {
    return {bits_.data() + buckets_at_ + static_cast<std::size_t>(n) * rack_words_,
            rack_words_};
  }
  [[nodiscard]] std::span<const std::uint64_t> free_counts() const {
    return {bits_.data() + counts_at_, count_words_};
  }

  /// Visits the racks holding at least `min_free` kFree chips in (free
  /// ascending, rack ascending) order until `visit(rack)` returns true, and
  /// returns whether it did.  Reads the free-count index; sorts nothing.
  /// `visit` may change chip state only in the call that returns true.
  template <typename Visit>
  bool racks_by_free_ascending(std::int32_t min_free, Visit&& visit) const {
    return for_each_bit(free_counts(), static_cast<std::size_t>(std::max(min_free, 0)),
                        [&](std::size_t free) { return visit_bucket(free, visit); });
  }

  /// Visits the racks holding a kFree chip in (free descending, rack
  /// ascending) order until `visit(rack)` returns true, and returns whether
  /// it did.  `visit` must not change chip state.
  template <typename Visit>
  bool racks_by_free_descending(Visit&& visit) const {
    const std::span<const std::uint64_t> c = free_counts();
    for (std::size_t w = c.size(); w-- > 0;) {
      for (std::uint64_t bits = c[w]; bits != 0;) {
        const auto top = static_cast<std::size_t>(63 - std::countl_zero(bits));
        bits &= ~(std::uint64_t{1} << top);
        const std::size_t free = w * 64 + top;
        if (free == 0) return false;
        if (visit_bucket(free, visit)) return true;
      }
    }
    return false;
  }

  /// Visits the kFree chips of `rack` in ascending id order until
  /// `visit(chip)` returns true, and returns whether it did.  `visit` must
  /// not change chip state.
  template <typename Visit>
  bool for_each_free_chip(RackId rack, Visit&& visit) const {
    const TpuId base = rack * chips_per_rack();
    return for_each_bit(free_mask(rack), 0, [&](std::size_t i) {
      return visit(base + static_cast<TpuId>(i));
    });
  }

  [[nodiscard]] std::vector<TpuId> chips_in_state(ChipState s) const;
  [[nodiscard]] std::vector<TpuId> free_chips_in_rack(RackId rack) const;

  /// Per-dimension bandwidth of the static electrical interconnect: B/3.
  [[nodiscard]] Bandwidth dim_bandwidth() const;

  /// Capacity of one directed link (equals dim_bandwidth()).
  [[nodiscard]] Bandwidth link_bandwidth() const { return dim_bandwidth(); }

  /// Whether the directed link's far end leaves the rack (i.e. it is a
  /// wraparound link realized through the face OCS).
  [[nodiscard]] bool is_wraparound(const DirectedLink& link) const;

  /// The chip at the far end of a directed link (within-rack torus
  /// semantics: wraparound stays in the same rack unless racks are joined).
  [[nodiscard]] TpuId link_target(const DirectedLink& link) const;

  /// Total number of directed links in the cluster.
  [[nodiscard]] std::size_t directed_link_count() const {
    return static_cast<std::size_t>(chip_count()) * 6;
  }

 private:
  /// Calls visit(i) for the set bits i >= first of a bitset, ascending,
  /// until it returns true; returns whether it did.
  template <typename Visit>
  static bool for_each_bit(std::span<const std::uint64_t> words, std::size_t first,
                           Visit&& visit) {
    for (std::size_t w = first / 64; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      if (w == first / 64) bits &= ~std::uint64_t{0} << (first % 64);
      for (; bits != 0; bits &= bits - 1) {
        if (visit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)))) return true;
      }
    }
    return false;
  }

  /// Visits the racks with exactly `free` kFree chips, ascending.
  template <typename Visit>
  bool visit_bucket(std::size_t free, Visit& visit) const {
    return for_each_bit(racks_with_free(static_cast<std::int32_t>(free)), 0,
                        [&](std::size_t rack) { return visit(static_cast<RackId>(rack)); });
  }

  /// One chip of `chip`'s rack joined (`to_free`) or left the free set.
  void flip_free(TpuId chip, bool to_free);

  ClusterConfig config_;
  Torus rack_torus_;
  std::vector<ChipState> states_;
  std::vector<std::int32_t> rack_free_;  ///< kFree chips per rack
  std::int32_t free_count_{0};
  std::uint64_t free_epoch_{0};
  std::size_t mask_words_;   ///< ⌈chips_per_rack / 64⌉
  std::size_t rack_words_;   ///< ⌈racks / 64⌉
  std::size_t count_words_;  ///< ⌈(chips_per_rack + 1) / 64⌉
  std::size_t buckets_at_;   ///< offset of racks_with_free(0) in bits_
  std::size_t counts_at_;    ///< offset of free_counts() in bits_
  /// One flat table: the racks' free masks, then racks_with_free(n) for
  /// n = 0..chips_per_rack, then free_counts().
  std::vector<std::uint64_t> bits_;
};

}  // namespace lp::topo
