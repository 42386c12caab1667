#include "collective/autotuner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "lightpath/types.hpp"

namespace lp::coll {

Autotuner::Autotuner(TunerParams params) : params_{params} {}

std::span<const Algorithm> Autotuner::candidates(CollOp op) {
  return lowered_algorithms(op);
}

LoweringParams Autotuner::lowering(DataSize n, Duration reconfig) const {
  return LoweringParams{n, reconfig, params_.broadcast_chunks, params_.stripe_ways};
}

Duration Autotuner::predict(CollOp op, Algorithm algo, std::size_t m, DataSize n,
                            Bandwidth rate, Duration reconfig) const {
  Duration cost = Duration::zero();
  const bool lowered =
      lower(op, algo, m, lowering(n, reconfig), [&](const PhaseRun& run) {
        const Duration phase = params_.alpha * run.alpha_units + run.pre_delay +
                               transfer_time(run.bytes, rate);
        for (std::size_t i = 0; i < run.count; ++i) cost += phase;
      });
  return lowered ? cost : Duration::infinite();
}

Decision Autotuner::evaluate(CollOp op, std::size_t m, DataSize n,
                             Bandwidth rate, Duration reconfig) const {
  Decision best;
  bool have = false;
  for (const Algorithm algo : candidates(op)) {
    const Duration cost = predict(op, algo, m, n, rate, reconfig);
    // Documented total order: cost, then fixed algorithm rank, then name.
    const bool wins =
        !have || cost < best.predicted ||
        (cost == best.predicted &&
         (algorithm_rank(algo) < algorithm_rank(best.algo) ||
          (algorithm_rank(algo) == algorithm_rank(best.algo) &&
           std::strcmp(to_string(algo), to_string(best.algo)) < 0)));
    if (wins) {
      best.algo = algo;
      best.predicted = cost;
      have = true;
    }
  }
  return best;
}

std::uint32_t Autotuner::size_bucket(DataSize n) {
  const double bytes = std::max(n.to_bytes(), 1.0);
  return static_cast<std::uint32_t>(4.0 * std::log2(bytes));
}

DataSize Autotuner::bucket_representative(std::uint32_t bucket) {
  return DataSize::bytes(std::exp2((static_cast<double>(bucket) + 0.5) / 4.0));
}

std::uint64_t Autotuner::topology_fingerprint(std::span<const topo::TpuId> members,
                                              Bandwidth rate, Duration reconfig) {
  std::uint64_t h = members.size();
  for (const topo::TpuId id : members) {
    h = fabric::hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)));
  }
  h = fabric::hash_mix(h, std::bit_cast<std::uint64_t>(rate.to_bps()));
  h = fabric::hash_mix(h, std::bit_cast<std::uint64_t>(reconfig.to_seconds()));
  return h;
}

Decision Autotuner::pick(CollOp op, DataSize n, std::span<const topo::TpuId> members,
                         Bandwidth rate, Duration reconfig, std::uint64_t fabric_epoch) {
  return pick_keyed(op, n, members.size(),
                    topology_fingerprint(members, rate, reconfig), rate, reconfig,
                    fabric_epoch);
}

Decision Autotuner::pick_keyed(CollOp op, DataSize n, std::size_t m,
                               std::uint64_t topology_fingerprint, Bandwidth rate,
                               Duration reconfig, std::uint64_t fabric_epoch) {
  const std::uint32_t bucket = size_bucket(n);
  std::uint64_t key = 0x2545f4914f6cdd1dULL;
  key = fabric::hash_mix(key, static_cast<std::uint64_t>(op));
  key = fabric::hash_mix(key, bucket);
  key = fabric::hash_mix(key, topology_fingerprint);
  key = fabric::hash_mix(key, fabric_epoch);

  std::lock_guard<std::mutex> lock{mu_};
  if (const auto it = cache_.find(key); it != cache_.end()) {
    const Entry& e = it->second;
    if (e.op == op && e.bucket == bucket &&
        e.fingerprint == topology_fingerprint && e.epoch == fabric_epoch) {
      ++hits_;
      return Decision{e.algo, e.predicted, /*cache_hit=*/true};
    }
  }
  ++misses_;
  // Evaluate at the bucket's canonical size, not the requested one: the
  // decision must be a pure function of the cache key.
  const Decision d =
      evaluate(op, m, bucket_representative(bucket), rate, reconfig);
  if (cache_.size() >= params_.cache_capacity) cache_.clear();
  cache_[key] = Entry{op, bucket, topology_fingerprint, fabric_epoch, d.algo,
                      d.predicted};
  return d;
}

Schedule Autotuner::build(CollOp op, Algorithm algo,
                          std::span<const topo::TpuId> members, DataSize n,
                          Bandwidth rate, Duration reconfig) const {
  return lower_schedule(op, algo, members, rate, lowering(n, reconfig));
}

std::uint64_t Autotuner::hits() const {
  std::lock_guard<std::mutex> lock{mu_};
  return hits_;
}

std::uint64_t Autotuner::misses() const {
  std::lock_guard<std::mutex> lock{mu_};
  return misses_;
}

double alpha_units(const Schedule& schedule) {
  double units = 0.0;
  std::vector<topo::TpuId> srcs;
  for (const Phase& phase : schedule.phases) {
    if (phase.transfers.empty()) continue;
    srcs.clear();
    for (const Transfer& t : phase.transfers) srcs.push_back(t.src);
    std::sort(srcs.begin(), srcs.end());
    std::size_t best = 1, run = 1;
    for (std::size_t i = 1; i < srcs.size(); ++i) {
      run = srcs[i] == srcs[i - 1] ? run + 1 : 1;
      best = std::max(best, run);
    }
    units += static_cast<double>(best);
  }
  return units;
}

Duration measured_cost(Duration simulated_total, const Schedule& schedule,
                       Duration alpha) {
  return simulated_total + alpha * alpha_units(schedule);
}

}  // namespace lp::coll
