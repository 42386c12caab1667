// LightpathFabric: the public API of the photonic interconnect.
//
// A Fabric is one or more wafers (32 tiles each) plus attached fibers
// between wafers (paper §3, "Fiber connectivity between LIGHTPATH wafers").
// Chips stack one-per-tile; the fabric's job is to establish dedicated,
// contention-free optical circuits between chips on demand:
//
//   Fabric fabric{config};
//   auto c = fabric.connect({0, tileA}, {0, tileB}, /*wavelengths=*/4);
//   // ... traffic flows at 4 x 224 Gbps with zero intermediate contention
//   fabric.disconnect(c.value());
//
// connect() uses deterministic dimension-ordered (XY) routing on the tile
// grid and first-fit fiber selection across wafers; smarter planners (path
// diversity, non-overlapping demand sets, decentralized setup, fault
// repair) live in the routing/ module and operate on the same Wafer
// resource ledger via reserve_path()/release_path().
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lightpath/circuit.hpp"
#include "lightpath/reconfig.hpp"
#include "lightpath/types.hpp"
#include "lightpath/wafer.hpp"
#include "phys/link_budget.hpp"
#include "phys/modulator.hpp"
#include "util/result.hpp"
#include "util/slot_table.hpp"

namespace lp::fabric {

struct FabricConfig {
  WaferParams wafer{};
  std::uint32_t wafer_count{1};
  phys::ModulatorParams modulator{};
  ReconfigParams reconfig{};
  phys::LinkBudgetParams budget{};
};

/// A bundle of fibers attaching one tile of one wafer to a tile of another.
struct FiberLink {
  GlobalTile a{};
  GlobalTile b{};
  std::uint32_t fibers{16};
  std::uint32_t used{0};
  Length length{Length::meters(2.0)};
  /// A cut bundle: existing circuits keep their accounting (the fault layer
  /// decides their fate) but no new circuit may be placed on it.
  bool down{false};
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config = {});

  [[nodiscard]] const FabricConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t wafer_count() const {
    return static_cast<std::uint32_t>(wafers_.size());
  }
  [[nodiscard]] Wafer& wafer(WaferId w) { return wafers_[w]; }
  [[nodiscard]] const Wafer& wafer(WaferId w) const { return wafers_[w]; }
  /// Whether `t` names a tile of this fabric (wafer and tile in range).
  [[nodiscard]] bool contains(GlobalTile t) const {
    return t.wafer < wafers_.size() && t.tile < wafers_[t.wafer].tile_count();
  }

  /// Declare a fiber bundle between two wafer-edge tiles.  Returns its index.
  std::size_t add_fiber_link(GlobalTile a, GlobalTile b, std::uint32_t fibers,
                             Length length = Length::meters(2.0));
  [[nodiscard]] const std::vector<FiberLink>& fiber_links() const { return fiber_links_; }

  /// Mark a fiber bundle cut (or restore it).  Down links are skipped by
  /// fiber selection; circuits already riding the link are untouched here —
  /// the fault/health layer diagnoses and repairs them.
  void set_fiber_link_down(std::size_t index, bool down);

  /// Data rate of a single modulated wavelength (224 Gbps by default),
  /// taken from the modulator once at construction.
  [[nodiscard]] Bandwidth per_wavelength_rate() const { return per_wavelength_rate_; }

  /// Establish a circuit carrying `wavelengths` lambdas from chip at `a` to
  /// chip at `b`.  Reserves Tx at a, Rx at b, lanes along the path, and
  /// (cross-wafer) one fiber per wavelength.  Accounts reconfiguration time
  /// in the controller.  Fails without side effects if either endpoint is
  /// off the fabric or any resource is unavailable.
  Result<CircuitId> connect(GlobalTile a, GlobalTile b, std::uint32_t wavelengths);

  /// Like connect(), but along an explicit same-wafer hop path (produced by
  /// an external router).  The path must lead from a.tile to b.tile, and
  /// the two tiles must differ, as for connect().  The circuit keeps its
  /// own copy of the hops.
  Result<CircuitId> connect_via(GlobalTile a, GlobalTile b,
                                std::span<const Direction> hops,
                                std::uint32_t wavelengths);

  /// Tear down a circuit and release all its resources.  Idempotent.
  void disconnect(CircuitId id);

  /// The established circuit `id`, or nullptr.  The pointer stays valid
  /// until that circuit is disconnected.
  [[nodiscard]] const Circuit* circuit(CircuitId id) const;
  [[nodiscard]] std::size_t active_circuits() const { return circuits_.size(); }

  /// Ids of all established circuits in ascending order (deterministic
  /// iteration for health scans and teardown sweeps).
  [[nodiscard]] std::vector<CircuitId> circuit_ids() const;

  /// Fiber link index a cross-wafer circuit rides, if any.
  [[nodiscard]] std::optional<std::size_t> fiber_link_of(CircuitId id) const;

  /// Capacity of an established circuit.
  [[nodiscard]] Bandwidth circuit_bandwidth(CircuitId id) const;

  /// Physical-layer verdict for an established circuit; an unknown id gets
  /// a report that does not close.
  [[nodiscard]] phys::LinkBudgetReport circuit_budget(CircuitId id) const;

  /// The link budget of config().budget, built once at construction: what
  /// circuit_budget and the health monitor's diagnoses evaluate.
  [[nodiscard]] const phys::LinkBudget& link_budget() const { return link_budget_; }

  /// Dimension-ordered route on one wafer: all column moves then row moves
  /// (XY), or the rows first when `rows_first` (YX).
  [[nodiscard]] static std::vector<Direction> xy_route(const Wafer& wafer, TileId from,
                                                       TileId to, bool rows_first = false);

  [[nodiscard]] ReconfigController& reconfig() { return reconfig_; }
  [[nodiscard]] const ReconfigController& reconfig() const { return reconfig_; }

  /// Monotonic configuration epoch.  Every event that can invalidate a
  /// memoized plan — fault apply/revert, a committed repair rung, a spare
  /// swap, a fiber bundle going down or up — bumps it; the plan cache keys
  /// entries on the epoch so stale plans are never replayed silently.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  void bump_epoch() { ++epoch_; }

  /// Order-sensitive hash of the complete resource ledger: every wafer's
  /// edge/tile occupancy plus every fiber link's usage and up/down state.
  /// O(tiles) per call.  Serve and cluster fold it into their report
  /// digests, so its value is fixed; the plan cache uses ledger_key().
  [[nodiscard]] std::uint64_t ledger_digest() const;

  /// Key of the same state for revalidation: each wafer's maintained
  /// Wafer::ledger_key() chained with every fiber link's (used, down), so
  /// O(wafers + links) per call.  Deterministic planning is a pure function
  /// of this state, so key equality is sufficient for a memoized plan to
  /// replay exactly (barring a collision, see Wafer::ledger_key()),
  /// whatever writes came between.
  [[nodiscard]] std::uint64_t ledger_key() const;

 private:
  struct FiberChoice {
    std::size_t link_index;
    bool forward;  ///< true if routing a->b along the stored link
  };

  /// A cross-wafer circuit's fiber link and the tile where its second
  /// segment starts.
  struct Crossing {
    std::size_t link_index;
    GlobalTile entry;
  };

  /// One established circuit and the fiber link it rides, if any.
  struct CircuitSlot {
    Circuit circuit;
    std::optional<std::size_t> fiber_link;
  };

  /// Writes the dimension-ordered route from `from` to `to` into `hops`.
  static void write_xy_route(const Wafer& wafer, TileId from, TileId to, bool rows_first,
                             std::vector<Direction>& hops);

  /// First fiber link between the two wafers with >= `fibers` spare whose
  /// endpoints are both on the fabric.
  [[nodiscard]] std::optional<FiberChoice> find_fiber(WaferId from, WaferId to,
                                                      std::uint32_t fibers) const;

  /// Reserves Tx at a, Rx at b and then the lanes along the route that
  /// write_route(route_[0]) writes, and registers the circuit; releases
  /// what it took if a step fails.  The route is written only once Tx and
  /// Rx are held, so a connect that fails for want of lambdas walks none.
  template <typename WriteRoute>
  Result<CircuitId> commit_same_wafer(GlobalTile a, GlobalTile b,
                                      std::uint32_t wavelengths, WriteRoute&& write_route);
  Result<CircuitId> connect_cross_wafer(GlobalTile a, GlobalTile b,
                                        std::uint32_t wavelengths);

  /// Stores a committed circuit under the next id and programs its
  /// switches: one segment from `a` along route_[0], plus one from the
  /// crossing's entry along route_[1] when it crosses wafers.  Every field
  /// of the (possibly recycled) slot is overwritten, and the route buffers
  /// take back the hop vectors the slot held.
  CircuitId register_circuit(GlobalTile a, GlobalTile b, std::uint32_t wavelengths,
                             std::optional<Crossing> crossing);

  FabricConfig config_;
  Bandwidth per_wavelength_rate_;
  phys::LinkBudget link_budget_;
  std::vector<Wafer> wafers_;
  std::vector<FiberLink> fiber_links_;
  util::SlotTable<CircuitSlot> circuits_;
  /// Hops of the circuit being committed, one buffer per segment.  They
  /// trade places with a slot's hop vectors on commit, so steady churn
  /// reuses route storage instead of allocating it.
  std::array<std::vector<Direction>, 2> route_;
  ReconfigController reconfig_;
  CircuitId next_id_{1};
  std::uint64_t epoch_{0};
};

}  // namespace lp::fabric
