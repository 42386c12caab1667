#include "core/host_stack.hpp"

#include <algorithm>
#include <cassert>

namespace lp::core {

using fabric::GlobalTile;

HostStack::HostStack(fabric::Fabric& fab, HostStackParams params)
    : fabric_{fab},
      params_{params},
      tiles_per_wafer_{static_cast<std::uint32_t>(fab.config().wafer.rows *
                                                  fab.config().wafer.cols)},
      rate_{fab.per_wavelength_rate() *
            static_cast<double>(params.wavelengths_per_circuit)},
      peers_(std::size_t{fab.wafer_count()} * tiles_per_wafer_) {}

bool HostStack::has_circuit(GlobalTile src, GlobalTile dst) const {
  if (!fabric_.contains(src)) return false;
  const std::vector<Peer>& peers = peers_[index_of(src)];
  return std::any_of(peers.begin(), peers.end(), [&](const Peer& p) { return p.dst == dst; });
}

void HostStack::evict_lru(std::vector<Peer>& peers) {
  fabric_.disconnect(peers.back().id);
  peers.pop_back();
  ++stats_.evictions;
}

Result<Duration> HostStack::send(GlobalTile src, GlobalTile dst, DataSize bytes) {
  if (params_.max_peers == 0) return Err("max_peers is 0: no circuit can be cached");
  if (!fabric_.contains(src) || !fabric_.contains(dst)) return Err("tile off the fabric");
  ++stats_.messages;
  std::vector<Peer>& peers = peers_[index_of(src)];

  Duration latency = Duration::zero();
  const auto hit =
      std::find_if(peers.begin(), peers.end(), [&](const Peer& p) { return p.dst == dst; });
  if (hit != peers.end()) {
    assert(fabric_.circuit(hit->id) != nullptr);  // see send()'s precondition
    ++stats_.hits;
    std::rotate(peers.begin(), hit, hit + 1);
  } else {
    ++stats_.misses;
    // While the source is short of Tx lambdas any connect is refused, so
    // evict without attempting one (a refusal builds its error message).
    const fabric::Tile& tile = fabric_.wafer(src.wafer).tile(src.tile);
    while (tile.tx_free() < params_.wavelengths_per_circuit && !peers.empty()) {
      evict_lru(peers);
    }
    // Then evict until the connect succeeds.
    auto attempt = fabric_.connect(src, dst, params_.wavelengths_per_circuit);
    while (!attempt && !peers.empty()) {
      evict_lru(peers);
      attempt = fabric_.connect(src, dst, params_.wavelengths_per_circuit);
    }
    if (!attempt) return Err("cannot establish circuit: " + attempt.error().message);
    // Port-bound eviction even when resources would allow more peers.
    while (peers.size() >= params_.max_peers) evict_lru(peers);
    peers.insert(peers.begin(), Peer{dst, attempt.value()});
    const fabric::Circuit* c = fabric_.circuit(attempt.value());
    const Duration setup =
        fabric_.reconfig().batch_latency(c != nullptr ? c->mzi_count : 1);
    stats_.reconfig_time += setup;
    latency += setup;
  }

  const Duration transfer = transfer_time(bytes, rate_);
  stats_.transfer_time += transfer;
  latency += transfer;
  return latency;
}

void HostStack::flush() {
  for (std::vector<Peer>& peers : peers_) {
    for (const Peer& p : peers) fabric_.disconnect(p.id);
    peers.clear();
  }
}

}  // namespace lp::core
