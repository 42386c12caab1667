#include "collective/autotuner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "lightpath/types.hpp"

namespace lp::coll {

Autotuner::Autotuner(TunerParams params) : params_{params} {}

std::vector<Algorithm> Autotuner::candidates(CollOp op) {
  switch (op) {
    case CollOp::kReduceScatter:
    case CollOp::kAllGather:
      return {Algorithm::kRing, Algorithm::kHalvingDoubling};
    case CollOp::kAllReduce:
      return {Algorithm::kRing, Algorithm::kTree, Algorithm::kHalvingDoubling};
    case CollOp::kBroadcast:
      return {Algorithm::kTree, Algorithm::kPipeline};
    case CollOp::kAllToAll:
      return {Algorithm::kRing, Algorithm::kRotation};
    case CollOp::kTransfer:
      return {Algorithm::kDirect, Algorithm::kStriped};
  }
  return {};
}

Duration Autotuner::predict(CollOp op, Algorithm algo, std::size_t m, DataSize n,
                            Bandwidth rate, Duration reconfig) const {
  if (op == CollOp::kTransfer) {
    // Point-to-point: the group is the {src, dst} pair.
    if (algo == Algorithm::kDirect) {
      return params_.alpha + reconfig + transfer_time(n, rate);
    }
    if (algo == Algorithm::kStriped) {
      const double w = std::max<std::uint32_t>(params_.stripe_ways, 1);
      return params_.alpha * w + reconfig + transfer_time(n / w, rate);
    }
    return Duration::infinite();
  }
  if (m < 2) return Duration::zero();  // empty schedule: nothing to exchange

  const double steps = static_cast<double>(m - 1);
  const Duration alpha = params_.alpha;
  // Power-of-two decomposition for the halving/doubling family.
  const std::uint32_t depth = floor_log2(m);
  const std::size_t pow2 = std::size_t{1} << depth;
  const bool rem = pow2 < m;
  Duration halving_beta = Duration::zero();
  for (std::uint32_t k = 1; k <= depth; ++k) {
    halving_beta +=
        transfer_time(n / static_cast<double>(std::size_t{1} << k), rate);
  }
  const double halving_phases = static_cast<double>(depth) + (rem ? 1.0 : 0.0);
  const Duration fold_beta = rem ? transfer_time(n, rate) : Duration::zero();
  const double tree_depth = static_cast<double>(ceil_log2(m));

  switch (op) {
    case CollOp::kReduceScatter:
    case CollOp::kAllGather:
      if (algo == Algorithm::kRing) {
        return alpha * steps + reconfig +
               transfer_time(n / static_cast<double>(m), rate) * steps;
      }
      if (algo == Algorithm::kHalvingDoubling) {
        return (alpha + reconfig) * halving_phases + fold_beta + halving_beta;
      }
      break;
    case CollOp::kAllReduce:
      if (algo == Algorithm::kRing) {
        return alpha * (2.0 * steps) + reconfig +
               transfer_time(n / static_cast<double>(m), rate) * (2.0 * steps);
      }
      if (algo == Algorithm::kTree) {
        return (alpha + reconfig + transfer_time(n, rate)) * (2.0 * tree_depth);
      }
      if (algo == Algorithm::kHalvingDoubling) {
        return (alpha + reconfig) * (2.0 * halving_phases) + fold_beta * 2.0 +
               halving_beta * 2.0;
      }
      break;
    case CollOp::kBroadcast:
      if (algo == Algorithm::kTree) {
        return (alpha + reconfig + transfer_time(n, rate)) * tree_depth;
      }
      if (algo == Algorithm::kPipeline) {
        const double c = std::max<std::uint32_t>(params_.broadcast_chunks, 1);
        const double phases = steps + (c - 1.0);
        return alpha * phases + reconfig + transfer_time(n / c, rate) * phases;
      }
      break;
    case CollOp::kAllToAll:
      if (algo == Algorithm::kRotation) {
        return (alpha + reconfig + transfer_time(n / steps, rate)) * steps;
      }
      if (algo == Algorithm::kRing) {
        return alpha * steps + reconfig +
               transfer_time(n * (static_cast<double>(m) / (2.0 * steps)), rate) *
                   steps;
      }
      break;
    case CollOp::kTransfer:
      break;  // handled above
  }
  return Duration::infinite();
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

std::uint64_t Autotuner::topology_fingerprint(
    const std::vector<topo::TpuId>& members, Bandwidth rate, Duration reconfig) {
  std::uint64_t h = members.size();
  for (const topo::TpuId id : members) {
    h = fabric::hash_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)));
  }
  h = fabric::hash_mix(h, std::bit_cast<std::uint64_t>(rate.to_bps()));
  h = fabric::hash_mix(h, std::bit_cast<std::uint64_t>(reconfig.to_seconds()));
  return h;
}

Decision Autotuner::pick(CollOp op, DataSize n,
                         const std::vector<topo::TpuId>& members, Bandwidth rate,
                         Duration reconfig, std::uint64_t fabric_epoch) {
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
                          const std::vector<topo::TpuId>& members, DataSize n,
                          Bandwidth rate, Duration reconfig) const {
  if (members.size() < 2) return Schedule{};
  switch (op) {
    case CollOp::kReduceScatter:
      if (algo == Algorithm::kRing)
        return build_ring_reduce_scatter_schedule(members, n, rate, reconfig);
      if (algo == Algorithm::kHalvingDoubling)
        return build_halving_reduce_scatter_schedule(members, n, rate, reconfig);
      break;
    case CollOp::kAllGather:
      if (algo == Algorithm::kRing)
        return build_ring_all_gather_schedule(members, n, rate, reconfig);
      if (algo == Algorithm::kHalvingDoubling)
        return build_doubling_all_gather_schedule(members, n, rate, reconfig);
      break;
    case CollOp::kAllReduce:
      if (algo == Algorithm::kRing)
        return build_elastic_ring_schedule(members, n, rate, reconfig);
      if (algo == Algorithm::kTree)
        return build_tree_all_reduce_schedule(members, n, rate, reconfig);
      if (algo == Algorithm::kHalvingDoubling)
        return build_halving_doubling_all_reduce_schedule(members, n, rate,
                                                          reconfig);
      break;
    case CollOp::kBroadcast:
      if (algo == Algorithm::kTree)
        return build_tree_broadcast_schedule(members, n, rate, reconfig);
      if (algo == Algorithm::kPipeline)
        return build_pipeline_broadcast_schedule(members, n,
                                                 params_.broadcast_chunks, rate,
                                                 reconfig);
      break;
    case CollOp::kAllToAll:
      if (algo == Algorithm::kRotation)
        return build_rotation_all_to_all_schedule(members, n, rate, reconfig);
      if (algo == Algorithm::kRing)
        return build_ring_all_to_all_schedule(members, n, rate, reconfig);
      break;
    case CollOp::kTransfer:
      if (algo == Algorithm::kDirect)
        return build_direct_transfer_schedule(members[0], members[1], n, rate,
                                              reconfig);
      if (algo == Algorithm::kStriped)
        return build_striped_transfer_schedule(members[0], members[1], n,
                                               params_.stripe_ways, rate,
                                               reconfig);
      break;
  }
  return Schedule{};
}

std::vector<PhaseStep> all_reduce_phases(Algorithm algo, std::size_t m, DataSize n,
                                         Duration reconfig) {
  std::vector<PhaseStep> phases;
  if (m < 2) return phases;
  switch (algo) {
    case Algorithm::kRing: {
      // build_elastic_ring_schedule: 2(m-1) steps of n/m, the circuits set
      // up once before the first.
      const DataSize per_step = n / static_cast<double>(m);
      phases.assign(2 * (m - 1), PhaseStep{Duration::zero(), per_step});
      phases.front().pre_delay = reconfig;
      break;
    }
    case Algorithm::kTree:
      // Reduce then broadcast, ceil(log2 m) full-buffer phases each, every
      // one on a fresh pair set.
      phases.assign(2 * ceil_log2(m), PhaseStep{reconfig, n});
      break;
    case Algorithm::kHalvingDoubling: {
      // Fold, halving (n/2 .. n/2^K), doubling (n/2^K .. n/2), unfold.
      const std::uint32_t depth = floor_log2(m);
      const bool fold = (std::size_t{1} << depth) < m;
      if (fold) phases.push_back({reconfig, n});
      for (std::uint32_t k = 1; k <= depth; ++k) {
        phases.push_back({reconfig, n / static_cast<double>(std::size_t{1} << k)});
      }
      for (std::uint32_t k = depth; k >= 1; --k) {
        phases.push_back({reconfig, n / static_cast<double>(std::size_t{1} << k)});
      }
      if (fold) phases.push_back({reconfig, n});
      break;
    }
    default:
      break;
  }
  return phases;
}

std::uint64_t Autotuner::hits() const {
  std::lock_guard<std::mutex> lock{mu_};
  return hits_;
}

std::uint64_t Autotuner::misses() const {
  std::lock_guard<std::mutex> lock{mu_};
  return misses_;
}

void Autotuner::clear() {
  std::lock_guard<std::mutex> lock{mu_};
  cache_.clear();
  hits_ = 0;
  misses_ = 0;
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
