#include "collective/lowering.hpp"

#include <algorithm>
#include <array>

namespace lp::coll {

namespace {

/// `steps` >= 1 ring steps of `bytes`: every member sends to the next around
/// the member ring, on circuits set up once, before the first step.
void ring(std::size_t steps, DataSize bytes, Duration reconfig, RunSink out) {
  out({1, reconfig, bytes, Pattern::kRotate, 1});
  if (steps > 1) out({steps - 1, Duration::zero(), bytes, Pattern::kRotate, 1});
}

/// The binomial tree's phases towards member 0 (`in`) or out from it, each
/// moving the full buffer between a fresh pair set.
void tree(std::size_t m, const LoweringParams& p, bool in, RunSink out) {
  const std::uint32_t depth = ceil_log2(m);
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t k = in ? depth - 1 - i : i;
    out({1, p.reconfig, p.n, in ? Pattern::kStrideIn : Pattern::kStrideOut,
         std::size_t{1} << k});
  }
}

/// The fold (`in`) or unfold between the m - 2^K extras and the leading
/// members: nothing when m is a power of two.
void fold(std::size_t m, const LoweringParams& p, bool in, RunSink out) {
  const std::size_t pow2 = std::size_t{1} << floor_log2(m);
  if (pow2 < m) {
    out({1, p.reconfig, p.n, in ? Pattern::kStrideIn : Pattern::kStrideOut, pow2});
  }
}

/// The power-of-two core's pairwise exchanges: n/2 .. n/2^K with partners
/// ever closer for the halving, the mirror image for the doubling.
void exchanges(std::size_t m, const LoweringParams& p, bool halving, RunSink out) {
  const std::uint32_t depth = floor_log2(m);
  const std::size_t pow2 = std::size_t{1} << depth;
  for (std::uint32_t i = 0; i < depth; ++i) {
    const std::uint32_t k = halving ? i + 1 : depth - i;
    out({1, p.reconfig, p.n / static_cast<double>(std::size_t{1} << k), Pattern::kXor,
         pow2 >> k});
  }
}

/// One row of the table: how `op` runs as `algo` on `m` >= 2 members (any
/// m for a transfer).
struct Row {
  CollOp op;
  Algorithm algo;
  void (*lower)(std::size_t m, const LoweringParams& p, RunSink out);
};

// Grouped by op, each op's rows in rank order: candidates() reads them.
constexpr Row kRows[] = {
    {CollOp::kReduceScatter, Algorithm::kRing,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       ring(m - 1, p.n / static_cast<double>(m), p.reconfig, out);
     }},
    {CollOp::kReduceScatter, Algorithm::kHalvingDoubling,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       fold(m, p, /*in=*/true, out);
       exchanges(m, p, /*halving=*/true, out);
     }},
    {CollOp::kAllGather, Algorithm::kRing,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       ring(m - 1, p.n / static_cast<double>(m), p.reconfig, out);
     }},
    {CollOp::kAllGather, Algorithm::kHalvingDoubling,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       exchanges(m, p, /*halving=*/false, out);
       fold(m, p, /*in=*/false, out);
     }},
    {CollOp::kAllReduce, Algorithm::kRing,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       // The ReduceScatter half then the AllGather half on the same circuits.
       ring(2 * (m - 1), p.n / static_cast<double>(m), p.reconfig, out);
     }},
    {CollOp::kAllReduce, Algorithm::kTree,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       tree(m, p, /*in=*/true, out);
       tree(m, p, /*in=*/false, out);
     }},
    {CollOp::kAllReduce, Algorithm::kHalvingDoubling,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       fold(m, p, /*in=*/true, out);
       exchanges(m, p, /*halving=*/true, out);
       exchanges(m, p, /*halving=*/false, out);
       fold(m, p, /*in=*/false, out);
     }},
    {CollOp::kBroadcast, Algorithm::kTree,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       tree(m, p, /*in=*/false, out);
     }},
    {CollOp::kBroadcast, Algorithm::kPipeline,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       // At step t chunk t - j crosses edge j, for every chunk in flight.
       const std::size_t c = p.chunks;
       const DataSize per_chunk = p.n / static_cast<double>(c);
       for (std::size_t t = 0; t < (m - 1) + (c - 1); ++t) {
         out({1, t == 0 ? p.reconfig : Duration::zero(), per_chunk, Pattern::kChain,
              t + 1 > c ? t + 1 - c : 0, std::min(t + 1, m - 1)});
       }
     }},
    {CollOp::kAllToAll, Algorithm::kRing,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       const double md = static_cast<double>(m);
       ring(m - 1, p.n * (md / (2.0 * static_cast<double>(m - 1))), p.reconfig, out);
     }},
    {CollOp::kAllToAll, Algorithm::kRotation,
     [](std::size_t m, const LoweringParams& p, RunSink out) {
       const DataSize per_round = p.n / static_cast<double>(m - 1);
       for (std::size_t k = 1; k < m; ++k) {
         out({1, p.reconfig, per_round, Pattern::kRotate, k});
       }
     }},
    {CollOp::kTransfer, Algorithm::kDirect,
     [](std::size_t, const LoweringParams& p, RunSink out) {
       out({1, p.reconfig, p.n, Pattern::kRepeat, 1});
     }},
    {CollOp::kTransfer, Algorithm::kStriped,
     [](std::size_t, const LoweringParams& p, RunSink out) {
       const double w = p.ways;
       out({1, p.reconfig, p.n / w, Pattern::kRepeat, p.ways, 0, w});
     }},
};

constexpr bool rows_grouped_in_rank_order() {
  for (std::size_t i = 1; i < std::size(kRows); ++i) {
    const Row& a = kRows[i - 1];
    const Row& b = kRows[i];
    if (a.op > b.op || (a.op == b.op && algorithm_rank(a.algo) >= algorithm_rank(b.algo))) {
      return false;
    }
  }
  return true;
}
static_assert(rows_grouped_in_rank_order());

constexpr auto kAlgorithms = [] {
  std::array<Algorithm, std::size(kRows)> algos{};
  for (std::size_t i = 0; i < algos.size(); ++i) algos[i] = kRows[i].algo;
  return algos;
}();

const Row* find_row(CollOp op, Algorithm algo) {
  for (const Row& row : kRows) {
    if (row.op == op && row.algo == algo) return &row;
  }
  return nullptr;
}

/// The transfers of one phase of `p` over `members`, in posting order.
void append_transfers(Phase& phase, const PhaseRun& p,
                      std::span<const topo::TpuId> members, Bandwidth rate) {
  const std::size_t m = members.size();
  const auto send = [&](std::size_t src, std::size_t dst) {
    Transfer& t = phase.transfers.emplace_back();
    t.src = members[src];
    t.dst = members[dst];
    t.bytes = p.bytes;
    t.dedicated_rate = rate;
  };
  switch (p.pattern) {
    case Pattern::kRotate:
      phase.transfers.reserve(m);
      for (std::size_t i = 0; i < m; ++i) send(i, (i + p.arg) % m);
      break;
    case Pattern::kStrideOut:
      phase.transfers.reserve(std::min(p.arg, m - p.arg));
      for (std::size_t i = 0; i < p.arg && i + p.arg < m; ++i) send(i, i + p.arg);
      break;
    case Pattern::kStrideIn:
      phase.transfers.reserve(std::min(p.arg, m - p.arg));
      for (std::size_t i = 0; i < p.arg && i + p.arg < m; ++i) send(i + p.arg, i);
      break;
    case Pattern::kXor: {
      const std::size_t core = std::size_t{1} << floor_log2(m);
      phase.transfers.reserve(core);
      for (std::size_t i = 0; i < core; ++i) send(i, i ^ p.arg);
      break;
    }
    case Pattern::kChain:
      phase.transfers.reserve(p.end - p.arg);
      for (std::size_t j = p.arg; j < p.end; ++j) send(j, j + 1);
      break;
    case Pattern::kRepeat:
      phase.transfers.reserve(p.arg);
      for (std::size_t i = 0; i < p.arg; ++i) send(0, 1);
      break;
  }
}

}  // namespace

std::span<const Algorithm> lowered_algorithms(CollOp op) {
  std::size_t first = 0;
  while (first < kAlgorithms.size() && kRows[first].op != op) ++first;
  std::size_t last = first;
  while (last < kAlgorithms.size() && kRows[last].op == op) ++last;
  return std::span<const Algorithm>{kAlgorithms}.subspan(first, last - first);
}

bool lower(CollOp op, Algorithm algo, std::size_t m, const LoweringParams& params,
           RunSink sink) {
  const Row* row = find_row(op, algo);
  if (row == nullptr) return false;
  // A group of fewer than two exchanges nothing; a transfer's group is the
  // {src, dst} pair whatever m says.
  if (m < 2 && op != CollOp::kTransfer) return true;
  LoweringParams p = params;
  p.chunks = std::max<std::uint32_t>(p.chunks, 1);
  p.ways = std::max<std::uint32_t>(p.ways, 1);
  row->lower(m, p, sink);
  return true;
}

Schedule lower_schedule(CollOp op, Algorithm algo, std::span<const topo::TpuId> members,
                        Bandwidth rate, const LoweringParams& params) {
  Schedule schedule;
  if (members.size() < 2) return schedule;
  lower(op, algo, members.size(), params, [&](const PhaseRun& run) {
    for (std::size_t i = 0; i < run.count; ++i) {
      Phase& phase = schedule.phases.emplace_back();
      phase.pre_delay = run.pre_delay;
      append_transfers(phase, run, members, rate);
    }
  });
  return schedule;
}

}  // namespace lp::coll
