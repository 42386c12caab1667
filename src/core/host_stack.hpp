// Circuit-switched host networking stack.
//
// "Server-scale optics will necessitate the development of new host
// networking software stacks optimized for circuit-switching as opposed to
// today's packetized data transmission" (§1).  This module is that stack's
// core decision: when a message needs a circuit that is not up, pay the
// reconfiguration r; when SerDes ports are exhausted, evict someone.
//
// HostStack keeps an LRU cache of live circuits per source chip, bounded by
// the tile's SerDes port count (the paper: "the number of connections that
// can be made by one LIGHTPATH tile is limited by the number of SerDes
// ports").  The cache is one table indexed by the source's flat tile index
// (wafer x tiles-per-wafer + tile); each entry lists that source's
// (destination, circuit) pairs most recently used first, so a hit scans at
// most max_peers entries and an eviction pops the back.  send() returns the
// message's latency:
//
//   hit:   transfer at the circuit's rate
//   miss:  r (+ eviction teardown) + transfer
//
// The stack owns the circuits it caches: only its own evictions and flush()
// tear them down.  Every circuit it opens carries wavelengths_per_circuit
// lambdas, so all of them share one rate, taken at construction; a hit reads
// no fabric state.  A miss whose source is short of Tx lambdas evicts before
// it asks the fabric for a circuit, so it never attempts a connect that the
// Tx count would refuse.
//
// The ablation bench compares this against per-message reconfiguration and
// against a static ring (direct-connect emulation with multi-hop
// forwarding), across working-set sizes and message sizes.
#pragma once

#include <cstdint>
#include <vector>

#include "lightpath/fabric.hpp"
#include "util/result.hpp"
#include "util/units.hpp"

namespace lp::core {

struct HostStackParams {
  /// Max concurrent circuits per source chip (SerDes port bound).
  std::uint32_t max_peers{8};
  /// Wavelengths per cached circuit: max_peers x this must fit the tile's
  /// 16 Tx lambdas.
  std::uint32_t wavelengths_per_circuit{2};
};

struct HostStackStats {
  std::uint64_t messages{0};
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t evictions{0};
  Duration reconfig_time{Duration::zero()};
  Duration transfer_time{Duration::zero()};

  [[nodiscard]] double hit_rate() const {
    return messages == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(messages);
  }
  [[nodiscard]] Duration total_time() const { return reconfig_time + transfer_time; }
};

class HostStack {
 public:
  HostStack(fabric::Fabric& fab, HostStackParams params = {});

  /// Sends `bytes` from `src` to `dst`, establishing (and possibly
  /// evicting) circuits as needed.  Returns the message latency, or an
  /// error if no circuit can be established even after eviction.  A tile
  /// off the fabric or max_peers == 0 is an error that counts no message and
  /// touches no circuit.
  ///
  /// Precondition: every circuit the stack caches is still established;
  /// nothing but this stack disconnects them.  Asserted on a hit in Debug
  /// builds.
  Result<Duration> send(fabric::GlobalTile src, fabric::GlobalTile dst, DataSize bytes);

  /// Whether a live circuit src->dst exists (no side effects).
  [[nodiscard]] bool has_circuit(fabric::GlobalTile src, fabric::GlobalTile dst) const;

  /// Tears down every cached circuit.
  void flush();

  [[nodiscard]] const HostStackStats& stats() const { return stats_; }
  void reset_stats() { stats_ = HostStackStats{}; }

 private:
  struct Peer {
    fabric::GlobalTile dst;
    fabric::CircuitId id;
  };

  /// Flat index of an on-fabric tile: wafer x tiles-per-wafer + tile.
  [[nodiscard]] std::size_t index_of(fabric::GlobalTile t) const {
    return std::size_t{t.wafer} * tiles_per_wafer_ + t.tile;
  }
  /// Tears down the least recently used of `peers`.
  void evict_lru(std::vector<Peer>& peers);

  fabric::Fabric& fabric_;
  HostStackParams params_;
  std::uint32_t tiles_per_wafer_;
  /// Rate of every circuit the stack opens (Circuit::bandwidth's product).
  Bandwidth rate_;
  /// Per source tile, by index_of(): its cached circuits, most recent first.
  std::vector<std::vector<Peer>> peers_;
  HostStackStats stats_;
};

}  // namespace lp::core
