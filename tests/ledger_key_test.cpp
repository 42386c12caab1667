// The maintained ledger key (Wafer::ledger_key, Fabric::ledger_key) must be
// a function of the ledger state alone: whatever order the writes came in,
// two fabrics have equal keys exactly when they have equal ledger digests.
// The plan cache revalidates against the key, so a key that remembered
// history would turn hits into misses, and one that missed a slot would
// replay stale plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lightpath/fabric.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lp::fabric {
namespace {

FabricConfig two_wafer_config() {
  FabricConfig config;
  config.wafer.rows = 4;
  config.wafer.cols = 8;
  config.wafer.lanes_per_edge = 12;
  config.wafer_count = 2;
  return config;
}

Fabric make_fabric() {
  Fabric fab{two_wafer_config()};
  fab.add_fiber_link({0, 7}, {1, 0}, 6);
  fab.add_fiber_link({0, 31}, {1, 24}, 6);
  return fab;
}

GlobalTile random_tile(Rng& rng, const Fabric& fab) {
  return GlobalTile{static_cast<WaferId>(rng.uniform_index(fab.wafer_count())),
                    static_cast<TileId>(rng.uniform_index(fab.wafer(0).tile_count()))};
}

/// One ledger write and, through Done, its exact undo.
struct Op {
  enum Kind { kLanes, kTx, kRx, kConnect, kConnectVia, kFaults, kFiberDown, kKinds };
  Kind kind{kLanes};
  GlobalTile a{};
  GlobalTile b{};
  Direction dir{Direction::kNorth};
  std::uint32_t n{1};
  std::vector<Direction> hops;
  std::vector<fault::Fault> faults;
  std::size_t link{0};
};

/// What one fabric did for one op.
struct Done {
  bool ok{false};
  CircuitId id{0};
  std::optional<fault::FaultSet> faults;
};

Op random_op(Rng& rng, const Fabric& fab) {
  Op op;
  op.kind = static_cast<Op::Kind>(rng.uniform_index(Op::kKinds));
  op.a = random_tile(rng, fab);
  op.n = 1 + static_cast<std::uint32_t>(rng.uniform_index(3));
  switch (op.kind) {
    case Op::kLanes:
      do {
        op.dir = static_cast<Direction>(rng.uniform_index(4));
      } while (!fab.wafer(op.a.wafer).neighbor(op.a.tile, op.dir));
      break;
    case Op::kConnect:
      do {
        op.b = random_tile(rng, fab);
      } while (op.b == op.a);
      break;
    case Op::kConnectVia:
      op.b.wafer = op.a.wafer;
      do {
        op.b.tile = static_cast<TileId>(rng.uniform_index(fab.wafer(0).tile_count()));
      } while (op.b == op.a);
      op.hops = Fabric::xy_route(fab.wafer(op.a.wafer), op.a.tile, op.b.tile);
      // Half the time take the row moves first: a different path between
      // the same endpoints.
      if (rng.bernoulli(0.5)) {
        std::stable_partition(op.hops.begin(), op.hops.end(), [](Direction d) {
          return d == Direction::kNorth || d == Direction::kSouth;
        });
      }
      break;
    case Op::kFaults:
      for (std::size_t i = 0, k = 1 + rng.uniform_index(2); i < k; ++i) {
        fault::Fault f;
        f.kind = std::array{fault::FaultKind::kMziStuck, fault::FaultKind::kLaserLoss,
                            fault::FaultKind::kChipDeath,
                            fault::FaultKind::kFiberCut}[rng.uniform_index(4)];
        f.tile = random_tile(rng, fab);
        f.direction = static_cast<Direction>(rng.uniform_index(4));
        f.dead_lasers = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
        f.fiber_link = rng.uniform_index(fab.fiber_links().size());
        op.faults.push_back(f);
      }
      break;
    case Op::kFiberDown:
      op.link = rng.uniform_index(fab.fiber_links().size());
      break;
    default:
      break;
  }
  return op;
}

Done apply(Fabric& fab, const Op& op) {
  Done done;
  Wafer& w = fab.wafer(op.a.wafer);
  switch (op.kind) {
    case Op::kLanes: done.ok = w.reserve_lanes(op.a.tile, op.dir, op.n); break;
    case Op::kTx: done.ok = w.reserve_tx(op.a.tile, op.n); break;
    case Op::kRx: done.ok = w.reserve_rx(op.a.tile, op.n); break;
    case Op::kConnect:
    case Op::kConnectVia: {
      const auto id = op.kind == Op::kConnect ? fab.connect(op.a, op.b, op.n)
                                              : fab.connect_via(op.a, op.b, op.hops, op.n);
      done.ok = id.ok();
      if (done.ok) done.id = id.value();
      break;
    }
    case Op::kFaults:
      done.faults.emplace();
      done.faults->add_all(op.faults);
      done.faults->apply_to(fab);
      done.ok = true;
      break;
    case Op::kFiberDown:
      done.ok = !fab.fiber_links()[op.link].down;
      fab.set_fiber_link_down(op.link, true);
      break;
    default:
      break;
  }
  return done;
}

void undo(Fabric& fab, const Op& op, Done& done) {
  if (!done.ok) return;
  Wafer& w = fab.wafer(op.a.wafer);
  switch (op.kind) {
    case Op::kLanes: w.release_lanes(op.a.tile, op.dir, op.n); break;
    case Op::kTx: w.release_tx(op.a.tile, op.n); break;
    case Op::kRx: w.release_rx(op.a.tile, op.n); break;
    case Op::kConnect:
    case Op::kConnectVia: fab.disconnect(done.id); break;
    case Op::kFaults: done.faults->revert(fab); break;
    case Op::kFiberDown: fab.set_fiber_link_down(op.link, false); break;
    default: break;
  }
}

/// `order` with random disjoint adjacent pairs swapped: the same operations
/// in a different order, whose prefixes often reach the same state.
std::vector<std::size_t> shuffled_neighbours(Rng& rng, std::vector<std::size_t> order) {
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (rng.bernoulli(0.5)) {
      std::swap(order[i], order[i + 1]);
      ++i;
    }
  }
  return order;
}

// --- Key equality is digest equality, whatever the history -----------------

TEST(LedgerKey, KeyEqualityIsDigestEqualityOver200SeededCases) {
  constexpr std::size_t kCases = 200;
  std::size_t equal_steps = 0;
  std::size_t unequal_steps = 0;

  for (std::size_t c = 0; c < kCases; ++c) {
    Rng rng{util::task_seed(0x1ed9e5u, c)};
    Fabric fa = make_fabric();
    Fabric fb = make_fabric();
    const std::uint64_t empty_key = fa.ledger_key();

    std::vector<Op> ops;
    for (std::size_t i = 0, m = 6 + rng.uniform_index(10); i < m; ++i) {
      ops.push_back(random_op(rng, fa));
    }
    std::vector<std::size_t> order(ops.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::vector<std::size_t> undo_order(order.rbegin(), order.rend());
    const std::vector<std::size_t> order_b = shuffled_neighbours(rng, order);
    const std::vector<std::size_t> undo_b = shuffled_neighbours(rng, undo_order);
    std::vector<Done> done_a(ops.size());
    std::vector<Done> done_b(ops.size());

    // Every state either fabric passes through, both ways round: a key that
    // depended on history would map one digest to two keys.
    std::unordered_map<std::uint64_t, std::uint64_t> key_of_digest;
    std::unordered_map<std::uint64_t, std::uint64_t> digest_of_key;
    const auto check = [&](const char* phase, std::size_t step) {
      for (const Fabric* f : {&fa, &fb}) {
        const std::uint64_t digest = f->ledger_digest();
        const std::uint64_t key = f->ledger_key();
        const auto seen_key = key_of_digest.emplace(digest, key).first;
        const auto seen_digest = digest_of_key.emplace(key, digest).first;
        ASSERT_EQ(seen_key->second, key) << "case " << c << " " << phase << " step " << step;
        ASSERT_EQ(seen_digest->second, digest)
            << "case " << c << " " << phase << " step " << step;
      }
      const bool same_digest = fa.ledger_digest() == fb.ledger_digest();
      ASSERT_EQ(fa.ledger_key() == fb.ledger_key(), same_digest)
          << "case " << c << " " << phase << " step " << step;
      ++(same_digest ? equal_steps : unequal_steps);
    };

    check("start", 0);
    for (std::size_t s = 0; s < ops.size(); ++s) {
      done_a[order[s]] = apply(fa, ops[order[s]]);
      done_b[order_b[s]] = apply(fb, ops[order_b[s]]);
      check("apply", s);
    }
    for (std::size_t s = 0; s < ops.size(); ++s) {
      undo(fa, ops[undo_order[s]], done_a[undo_order[s]]);
      undo(fb, ops[undo_b[s]], done_b[undo_b[s]]);
      check("undo", s);
    }
    EXPECT_EQ(fa.ledger_key(), empty_key) << "case " << c;
    EXPECT_EQ(fb.ledger_key(), empty_key) << "case " << c;
  }
  // Both outcomes must be common, or the check above proves little.
  EXPECT_GT(equal_steps, kCases * 2);
  EXPECT_GT(unequal_steps, kCases * 2);
}

TEST(LedgerKey, UnusedWaferKeysToZero) {
  const Fabric fab = make_fabric();
  for (WaferId w = 0; w < fab.wafer_count(); ++w) EXPECT_EQ(fab.wafer(w).ledger_key(), 0u);
}

TEST(LedgerKey, ConnectThenDisconnectRestoresTheKeyExactly) {
  Rng rng{0xc0ffeeULL};
  Fabric fab = make_fabric();
  // A loaded background, so restores happen on non-trivial ledgers.
  std::vector<CircuitId> background;
  for (int i = 0; i < 12; ++i) {
    const GlobalTile a = random_tile(rng, fab);
    const GlobalTile b = random_tile(rng, fab);
    if (const auto id = fab.connect(a, b, 1); id.ok()) background.push_back(id.value());
  }
  std::size_t placed = 0;
  for (int i = 0; i < 300; ++i) {
    const Op op = random_op(rng, fab);
    if (op.kind != Op::kConnect && op.kind != Op::kConnectVia) continue;
    const std::uint64_t key = fab.ledger_key();
    const std::uint64_t digest = fab.ledger_digest();
    Done done = apply(fab, op);
    if (done.ok) {
      ++placed;
      EXPECT_NE(fab.ledger_key(), key) << "a circuit must move the key";
    } else {
      EXPECT_EQ(fab.ledger_key(), key) << "a refused circuit must leave the key";
    }
    undo(fab, op, done);
    ASSERT_EQ(fab.ledger_key(), key) << "iteration " << i;
    ASSERT_EQ(fab.ledger_digest(), digest) << "iteration " << i;
  }
  EXPECT_GT(placed, 50u);
}

// --- Every slot is in the key ----------------------------------------------

TEST(LedgerKey, EverySingleSlotChangesTheKey) {
  Fabric fab = make_fabric();
  const std::uint64_t base = fab.ledger_key();
  std::set<std::uint64_t> keys{base};
  std::size_t slots = 0;
  // Each write lands in one slot; every slot must give a key of its own
  // (a key that ignored the slot would map a Tx and an Rx write, or two
  // edges' writes, to one key).
  const auto probe = [&](auto write, auto restore, const char* what, WaferId w,
                         TileId t) {
    for (std::uint32_t n : {1u, 2u}) {
      write(n);
      EXPECT_TRUE(keys.insert(fab.ledger_key()).second)
          << what << " wafer " << w << " tile " << t << " n " << n;
      restore(n);
      ASSERT_EQ(fab.ledger_key(), base) << what << " wafer " << w << " tile " << t;
    }
    ++slots;
  };
  for (WaferId w = 0; w < fab.wafer_count(); ++w) {
    Wafer& wafer = fab.wafer(w);
    for (TileId t = 0; t < wafer.tile_count(); ++t) {
      for (Direction d : kAllDirections) {
        if (!wafer.neighbor(t, d)) continue;
        probe([&](std::uint32_t n) { ASSERT_TRUE(wafer.reserve_lanes(t, d, n)); },
              [&](std::uint32_t n) { wafer.release_lanes(t, d, n); }, "edge", w, t);
      }
      probe([&](std::uint32_t n) { ASSERT_TRUE(wafer.reserve_tx(t, n)); },
            [&](std::uint32_t n) { wafer.release_tx(t, n); }, "tx", w, t);
      probe([&](std::uint32_t n) { ASSERT_TRUE(wafer.reserve_rx(t, n)); },
            [&](std::uint32_t n) { wafer.release_rx(t, n); }, "rx", w, t);
    }
  }
  EXPECT_EQ(slots, 2u * (2 * (4 * 7 + 3 * 8) + 2 * 32));
  for (std::size_t link = 0; link < fab.fiber_links().size(); ++link) {
    fab.set_fiber_link_down(link, true);
    EXPECT_TRUE(keys.insert(fab.ledger_key()).second) << "fiber " << link << " down";
    fab.set_fiber_link_down(link, false);
    ASSERT_EQ(fab.ledger_key(), base);
  }
}

TEST(LedgerKey, FiberUsageIsInTheKey) {
  // Two bundles between the same tiles: which one a circuit rides changes
  // only the fibers' used counts, never a wafer's ledger.
  const auto fabric_with = [](std::uint32_t first_bundle_fibers) {
    Fabric fab{two_wafer_config()};
    fab.add_fiber_link({0, 7}, {1, 0}, first_bundle_fibers);
    fab.add_fiber_link({0, 7}, {1, 0}, 4);
    return fab;
  };
  Fabric on_first = fabric_with(4);
  Fabric on_second = fabric_with(1);
  ASSERT_TRUE(on_first.connect({0, 0}, {1, 9}, 2).ok());
  ASSERT_TRUE(on_second.connect({0, 0}, {1, 9}, 2).ok());
  ASSERT_EQ(on_first.fiber_links()[0].used, 2u);
  ASSERT_EQ(on_second.fiber_links()[1].used, 2u);
  for (WaferId w = 0; w < 2; ++w) {
    ASSERT_EQ(on_first.wafer(w).ledger_key(), on_second.wafer(w).ledger_key());
  }
  EXPECT_NE(on_first.ledger_digest(), on_second.ledger_digest());
  EXPECT_NE(on_first.ledger_key(), on_second.ledger_key());
}

TEST(LedgerKey, CopiedFabricKeepsItsKey) {
  Fabric fab = make_fabric();
  ASSERT_TRUE(fab.connect({0, 0}, {1, 9}, 2).ok());
  ASSERT_TRUE(fab.connect({0, 3}, {0, 20}, 3).ok());
  const Fabric copy = fab;
  EXPECT_EQ(copy.ledger_key(), fab.ledger_key());
  EXPECT_EQ(copy.ledger_digest(), fab.ledger_digest());
}

}  // namespace
}  // namespace lp::fabric
