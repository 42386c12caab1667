#include "collective/group_schedules.hpp"

#include <algorithm>

namespace lp::coll {

namespace {

Transfer make_transfer(topo::TpuId src, topo::TpuId dst, DataSize bytes,
                       Bandwidth rate) {
  Transfer t;
  t.src = src;
  t.dst = dst;
  t.bytes = bytes;
  t.dedicated_rate = rate;
  return t;
}

/// `steps` phases in which every member sends `per_step` bytes to the next
/// around the member ring; reconfiguration on the first phase only (the
/// ring circuits persist).  Shared body of the ring RS / AG / AllReduce
/// and the fixed-ring all-to-all.
Schedule ring_steps(const std::vector<topo::TpuId>& members, std::size_t steps,
                    DataSize per_step, Bandwidth rate, Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  for (std::size_t step = 0; step < steps; ++step) {
    Phase phase;
    if (step == 0) phase.pre_delay = reconfig_delay;
    for (std::size_t e = 0; e < m; ++e) {
      phase.transfers.push_back(
          make_transfer(members[e], members[(e + 1) % m], per_step, rate));
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

/// The fold pre-phase of the non-power-of-two halving algorithms: extras
/// members[pow2 + j] collapse their full buffers onto members[j].
Phase fold_phase(const std::vector<topo::TpuId>& members, std::size_t pow2,
                 DataSize n, Bandwidth rate, Duration reconfig_delay) {
  Phase phase;
  phase.pre_delay = reconfig_delay;
  for (std::size_t j = 0; j + pow2 < members.size(); ++j) {
    phase.transfers.push_back(
        make_transfer(members[pow2 + j], members[j], n, rate));
  }
  return phase;
}

/// One pairwise-exchange phase of the power-of-two core: every core member
/// i swaps `bytes` with its partner i XOR d.
Phase exchange_phase(const std::vector<topo::TpuId>& members, std::size_t pow2,
                     std::size_t d, DataSize bytes, Bandwidth rate,
                     Duration reconfig_delay) {
  Phase phase;
  phase.pre_delay = reconfig_delay;
  for (std::size_t i = 0; i < pow2; ++i) {
    phase.transfers.push_back(
        make_transfer(members[i], members[i ^ d], bytes, rate));
  }
  return phase;
}

}  // namespace

Schedule build_tree_broadcast_schedule(const std::vector<topo::TpuId>& members,
                                       DataSize n, Bandwidth rate,
                                       Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  if (m < 2) return schedule;
  const std::uint32_t depth = ceil_log2(m);
  for (std::uint32_t k = 0; k < depth; ++k) {
    Phase phase;
    phase.pre_delay = reconfig_delay;
    const std::size_t stride = std::size_t{1} << k;
    for (std::size_t i = 0; i < stride && i + stride < m; ++i) {
      phase.transfers.push_back(
          make_transfer(members[i], members[i + stride], n, rate));
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

Schedule build_tree_reduce_schedule(const std::vector<topo::TpuId>& members,
                                    DataSize n, Bandwidth rate,
                                    Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  if (m < 2) return schedule;
  const std::uint32_t depth = ceil_log2(m);
  for (std::uint32_t k = depth; k-- > 0;) {
    Phase phase;
    phase.pre_delay = reconfig_delay;
    const std::size_t stride = std::size_t{1} << k;
    for (std::size_t i = 0; i < stride && i + stride < m; ++i) {
      phase.transfers.push_back(
          make_transfer(members[i + stride], members[i], n, rate));
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

Schedule build_tree_all_reduce_schedule(const std::vector<topo::TpuId>& members,
                                        DataSize n, Bandwidth rate,
                                        Duration reconfig_delay) {
  Schedule schedule = build_tree_reduce_schedule(members, n, rate, reconfig_delay);
  Schedule bcast = build_tree_broadcast_schedule(members, n, rate, reconfig_delay);
  for (Phase& phase : bcast.phases) schedule.phases.push_back(std::move(phase));
  return schedule;
}

Schedule build_halving_reduce_scatter_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  if (m < 2) return schedule;
  const std::uint32_t depth = floor_log2(m);
  const std::size_t pow2 = std::size_t{1} << depth;
  if (pow2 < m) {
    schedule.phases.push_back(fold_phase(members, pow2, n, rate, reconfig_delay));
  }
  for (std::uint32_t k = 1; k <= depth; ++k) {
    schedule.phases.push_back(exchange_phase(
        members, pow2, pow2 >> k, n / static_cast<double>(std::size_t{1} << k),
        rate, reconfig_delay));
  }
  return schedule;
}

Schedule build_doubling_all_gather_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  if (m < 2) return schedule;
  const std::uint32_t depth = floor_log2(m);
  const std::size_t pow2 = std::size_t{1} << depth;
  for (std::uint32_t k = depth; k >= 1; --k) {
    schedule.phases.push_back(exchange_phase(
        members, pow2, pow2 >> k, n / static_cast<double>(std::size_t{1} << k),
        rate, reconfig_delay));
  }
  if (pow2 < m) {
    // Unfold: the leading core members hand the gathered buffer back out.
    Phase phase;
    phase.pre_delay = reconfig_delay;
    for (std::size_t j = 0; j + pow2 < m; ++j) {
      phase.transfers.push_back(
          make_transfer(members[j], members[pow2 + j], n, rate));
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

Schedule build_halving_doubling_all_reduce_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay) {
  Schedule schedule =
      build_halving_reduce_scatter_schedule(members, n, rate, reconfig_delay);
  if (schedule.phases.empty()) return schedule;
  Schedule gather =
      build_doubling_all_gather_schedule(members, n, rate, reconfig_delay);
  for (Phase& phase : gather.phases) schedule.phases.push_back(std::move(phase));
  return schedule;
}

Schedule build_elastic_ring_schedule(const std::vector<topo::TpuId>& members,
                                     DataSize n, Bandwidth rate,
                                     Duration reconfig_delay) {
  const std::size_t m = members.size();
  if (m < 2) return Schedule{};
  // m-1 reduce-scatter steps followed by m-1 all-gather steps, identical
  // traffic pattern in both halves.
  return ring_steps(members, 2 * (m - 1), n / static_cast<double>(m), rate,
                    reconfig_delay);
}

Schedule build_ring_reduce_scatter_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay) {
  const std::size_t m = members.size();
  if (m < 2) return Schedule{};
  return ring_steps(members, m - 1, n / static_cast<double>(m), rate, reconfig_delay);
}

Schedule build_ring_all_gather_schedule(const std::vector<topo::TpuId>& members,
                                        DataSize n, Bandwidth rate,
                                        Duration reconfig_delay) {
  return build_ring_reduce_scatter_schedule(members, n, rate, reconfig_delay);
}

Schedule build_pipeline_broadcast_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, std::uint32_t chunks,
    Bandwidth rate, Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  if (m < 2) return schedule;
  const std::size_t c = std::max<std::uint32_t>(chunks, 1);
  const DataSize per_chunk = n / static_cast<double>(c);
  const std::size_t phases = (m - 1) + (c - 1);
  for (std::size_t t = 0; t < phases; ++t) {
    Phase phase;
    if (t == 0) phase.pre_delay = reconfig_delay;
    for (std::size_t j = 0; j + 1 < m; ++j) {
      if (t < j || t - j >= c) continue;  // chunk t-j not in flight on edge j
      phase.transfers.push_back(
          make_transfer(members[j], members[j + 1], per_chunk, rate));
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

Schedule build_rotation_all_to_all_schedule(
    const std::vector<topo::TpuId>& members, DataSize n, Bandwidth rate,
    Duration reconfig_delay) {
  Schedule schedule;
  const std::size_t m = members.size();
  if (m < 2) return schedule;
  const DataSize per_round = n / static_cast<double>(m - 1);
  for (std::size_t k = 1; k < m; ++k) {
    Phase phase;
    phase.pre_delay = reconfig_delay;
    for (std::size_t i = 0; i < m; ++i) {
      phase.transfers.push_back(
          make_transfer(members[i], members[(i + k) % m], per_round, rate));
    }
    schedule.phases.push_back(std::move(phase));
  }
  return schedule;
}

Schedule build_ring_all_to_all_schedule(const std::vector<topo::TpuId>& members,
                                        DataSize n, Bandwidth rate,
                                        Duration reconfig_delay) {
  const std::size_t m = members.size();
  if (m < 2) return Schedule{};
  const DataSize per_phase =
      n * (static_cast<double>(m) / (2.0 * static_cast<double>(m - 1)));
  return ring_steps(members, m - 1, per_phase, rate, reconfig_delay);
}

Schedule build_direct_transfer_schedule(topo::TpuId src, topo::TpuId dst,
                                        DataSize n, Bandwidth rate,
                                        Duration reconfig_delay) {
  Schedule schedule;
  Phase phase;
  phase.pre_delay = reconfig_delay;
  phase.transfers.push_back(make_transfer(src, dst, n, rate));
  schedule.phases.push_back(std::move(phase));
  return schedule;
}

Schedule build_striped_transfer_schedule(topo::TpuId src, topo::TpuId dst,
                                         DataSize n, std::uint32_t ways,
                                         Bandwidth rate,
                                         Duration reconfig_delay) {
  Schedule schedule;
  const std::uint32_t w = std::max<std::uint32_t>(ways, 1);
  Phase phase;
  phase.pre_delay = reconfig_delay;
  for (std::uint32_t i = 0; i < w; ++i) {
    phase.transfers.push_back(
        make_transfer(src, dst, n / static_cast<double>(w), rate));
  }
  schedule.phases.push_back(std::move(phase));
  return schedule;
}

}  // namespace lp::coll
