#include "topo/cluster.hpp"

#include <algorithm>
#include <cassert>

namespace lp::topo {

namespace {

constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

constexpr void set_bit(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

constexpr void clear_bit(std::uint64_t* words, std::size_t i) {
  words[i / 64] &= ~(std::uint64_t{1} << (i % 64));
}

// Sets bits 0..n-1 of a zeroed bitset, a word at a time.
constexpr void set_first(std::uint64_t* words, std::size_t n) {
  for (std::size_t w = 0; w * 64 < n; ++w) {
    words[w] = n - w * 64 >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n - w * 64)) - 1;
  }
}

}  // namespace

TpuCluster::TpuCluster(ClusterConfig config)
    : config_{config},
      rack_torus_{config.rack_shape},
      states_(static_cast<std::size_t>(config.racks) *
                  static_cast<std::size_t>(config.rack_shape.size()),
              ChipState::kFree),
      rack_free_(static_cast<std::size_t>(config.racks), config.rack_shape.size()),
      free_count_{config.racks * config.rack_shape.size()},
      mask_words_{words_for(static_cast<std::size_t>(config.rack_shape.size()))},
      rack_words_{words_for(static_cast<std::size_t>(config.racks))},
      count_words_{words_for(static_cast<std::size_t>(config.rack_shape.size()) + 1)},
      buckets_at_{static_cast<std::size_t>(config.racks) * mask_words_},
      counts_at_{buckets_at_ +
                 (static_cast<std::size_t>(config.rack_shape.size()) + 1) * rack_words_},
      bits_(counts_at_ + count_words_, 0) {
  assert(config.racks > 0);
  // Every chip starts free: full masks, and every rack in the top bucket.
  const auto per = static_cast<std::size_t>(chips_per_rack());
  const auto racks = static_cast<std::size_t>(config.racks);
  for (std::size_t r = 0; r < racks; ++r) set_first(&bits_[r * mask_words_], per);
  set_first(&bits_[buckets_at_ + per * rack_words_], racks);
  set_bit(&bits_[counts_at_], per);
}

void TpuCluster::flip_free(TpuId chip, bool to_free) {
  const RackId rack = rack_of(chip);
  const auto r = static_cast<std::size_t>(rack);
  const auto i = static_cast<std::size_t>(chip - rack * chips_per_rack());
  std::uint64_t* mask = &bits_[r * mask_words_];
  if (to_free) {
    set_bit(mask, i);
  } else {
    clear_bit(mask, i);
  }
  const auto from = static_cast<std::size_t>(rack_free_[r]);
  const std::size_t to = to_free ? from + 1 : from - 1;
  // Move the rack between count buckets, keeping free_counts() exact.
  std::uint64_t* old_bucket = &bits_[buckets_at_ + from * rack_words_];
  clear_bit(old_bucket, r);
  if (std::all_of(old_bucket, old_bucket + rack_words_,
                  [](std::uint64_t w) { return w == 0; })) {
    clear_bit(&bits_[counts_at_], from);
  }
  set_bit(&bits_[buckets_at_ + to * rack_words_], r);
  set_bit(&bits_[counts_at_], to);
  const std::int32_t delta = to_free ? 1 : -1;
  rack_free_[r] += delta;
  free_count_ += delta;
  if (to_free) ++free_epoch_;
}

std::int32_t TpuCluster::servers_per_rack() const {
  return chips_per_rack() / config_.server_group.size();
}

TpuId TpuCluster::chip_at(RackId rack, Coord c) const {
  return rack * chips_per_rack() + rack_torus_.index(c);
}

Coord TpuCluster::coord_of(TpuId chip) const {
  return rack_torus_.coord(chip % chips_per_rack());
}

std::int32_t TpuCluster::server_of(TpuId chip) const {
  const Coord c = coord_of(chip);
  const Shape& g = config_.server_group;
  const Shape& r = config_.rack_shape;
  const std::int32_t gx = c[0] / g[0];
  const std::int32_t gy = c[1] / g[1];
  const std::int32_t gz = c[2] / g[2];
  const std::int32_t groups_y = r[1] / g[1];
  const std::int32_t groups_z = r[2] / g[2];
  return (gx * groups_y + gy) * groups_z + gz;
}

std::vector<TpuId> TpuCluster::server_chips(TpuId chip) const {
  const std::int32_t server = server_of(chip);
  const RackId rack = rack_of(chip);
  std::vector<TpuId> chips;
  for (std::int32_t i = 0; i < chips_per_rack(); ++i) {
    const TpuId candidate = rack * chips_per_rack() + i;
    if (server_of(candidate) == server) chips.push_back(candidate);
  }
  return chips;
}

std::vector<TpuId> TpuCluster::chips_in_state(ChipState s) const {
  std::vector<TpuId> out;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == s) out.push_back(static_cast<TpuId>(i));
  }
  return out;
}

std::vector<TpuId> TpuCluster::free_chips_in_rack(RackId rack) const {
  std::vector<TpuId> out;
  out.reserve(static_cast<std::size_t>(free_in_rack(rack)));
  for_each_free_chip(rack, [&](TpuId chip) {
    out.push_back(chip);
    return false;
  });
  return out;
}

Bandwidth TpuCluster::dim_bandwidth() const {
  return config_.chip_bandwidth / static_cast<double>(kDims);
}

bool TpuCluster::is_wraparound(const DirectedLink& link) const {
  const Coord c = coord_of(link.chip);
  const std::int32_t e = config_.rack_shape[link.dim];
  return (link.sign > 0 && c[link.dim] == e - 1) || (link.sign < 0 && c[link.dim] == 0);
}

TpuId TpuCluster::link_target(const DirectedLink& link) const {
  const RackId rack = rack_of(link.chip);
  const Coord next = rack_torus_.neighbor(coord_of(link.chip), link.dim, link.sign);
  return chip_at(rack, next);
}

}  // namespace lp::topo
