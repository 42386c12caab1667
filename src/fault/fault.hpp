// Component-level fault injection for the photonic fabric.
//
// The §4.2 failure argument (and core/failure_study) models one fault: a
// whole chip dies.  Real photonic fabrics degrade piecewise — MZIs stick at
// a port or drift slow, waveguide insertion loss creeps past the link
// budget, fibers get cut, lasers die — and recovery from that spectrum is
// the systems problem follow-on work (LUMION, MORPHLUX) centers on.  This
// module provides:
//
//   * `Fault` — one typed component fault with its physical severity;
//   * `FaultInjector` — deterministic sampling of fault sets per trial,
//     seeded via util::task_seed so Monte-Carlo sweeps are bit-identical at
//     any thread count, with correlated per-wafer bursts (a bad wafer or a
//     thermal event takes out several components at once);
//   * `FaultSet` — an overlay of active faults on a live fabric::Fabric:
//     pure queries for the health monitor, plus apply_to()/revert() side
//     effects (quarantining faulty lanes from the routing ledger, downing
//     cut fiber links, programming stuck MZIs, stretching drifted taus) so
//     the repair ladder's reroutes naturally avoid broken hardware.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "lightpath/fabric.hpp"
#include "phys/mzi.hpp"
#include "phys/wdm.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lp::fault {

enum class FaultKind : std::uint8_t {
  /// MZI switch frozen at one output port (phys/mzi): circuits whose path
  /// traverses the switch go dark.
  kMziStuck = 0,
  /// Thermo-optic drift: the switch still works but settles slowly and
  /// leaks excess loss per traversal (phys/mzi).
  kMziDrift = 1,
  /// Per-waveguide insertion-loss drift on one directed inter-tile edge
  /// (phys/loss): aging, contamination, or a hot neighbor.
  kWaveguideLoss = 2,
  /// A fiber bundle between wafers is cut (lightpath/fabric).
  kFiberCut = 3,
  /// Dead lasers at a tile's Tx block (phys/wdm): the circuit must re-lock
  /// onto healthy channels or move its source.
  kLaserLoss = 4,
  /// The stacked chip dies (§4.2's original fault).
  kChipDeath = 5,
};

[[nodiscard]] constexpr const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kMziStuck: return "mzi-stuck";
    case FaultKind::kMziDrift: return "mzi-drift";
    case FaultKind::kWaveguideLoss: return "waveguide-loss";
    case FaultKind::kFiberCut: return "fiber-cut";
    case FaultKind::kLaserLoss: return "laser-loss";
    case FaultKind::kChipDeath: return "chip-death";
  }
  return "?";
}

/// One component fault.  Which fields are meaningful depends on `kind`;
/// unused fields keep their defaults.
struct Fault {
  FaultKind kind{FaultKind::kWaveguideLoss};
  /// Faulted tile (all kinds; for kFiberCut, the link's `a` endpoint, kept
  /// so per-wafer burst confinement has a wafer to anchor on).
  fabric::GlobalTile tile{};
  /// Faulted switch / directed edge (kMziStuck, kMziDrift, kWaveguideLoss).
  fabric::Direction direction{fabric::Direction::kNorth};
  /// Index into Fabric::fiber_links() (kFiberCut).
  std::size_t fiber_link{0};
  /// Excess insertion loss: per edge for kWaveguideLoss, per traversal for
  /// kMziDrift.
  Decibel excess_loss{Decibel::zero()};
  /// Settle-time stretch factor (kMziDrift).
  double tau_factor{1.0};
  /// Dead Tx lasers at the tile (kLaserLoss).
  std::uint32_t dead_lasers{0};
  /// Port the switch froze at (kMziStuck).
  phys::MziPort stuck_port{phys::MziPort::kBar};
};

struct FaultModelParams {
  /// Relative draw weights per kind (need not sum to 1).
  double mzi_stuck_weight{1.0};
  double mzi_drift_weight{1.5};
  double waveguide_drift_weight{2.0};
  double fiber_cut_weight{0.75};
  double laser_loss_weight{1.5};
  double chip_death_weight{0.5};
  /// Correlated fault burst: with this probability a trial draws extra
  /// faults in a correlated failure domain (see rack_power_probability).
  double burst_probability{0.15};
  std::uint32_t burst_extra_min{1};
  std::uint32_t burst_extra_max{3};
  /// Given a burst fires, probability its domain is a rack-power event
  /// spanning servers — the extra faults cycle across the *other* wafers,
  /// so the burst is guaranteed cross-server whenever the fabric has more
  /// than one wafer.  Otherwise the burst is confined to the first fault's
  /// wafer (a bad wafer or a local thermal event).  On a single-wafer
  /// fabric every burst degenerates to the per-wafer domain.
  double rack_power_probability{0.25};
  /// Severity distributions (Gaussians truncated below at ~0).
  double waveguide_drift_mean_db{2.5};
  double waveguide_drift_sigma_db{1.0};
  double mzi_drift_excess_mean_db{0.9};
  double mzi_drift_excess_sigma_db{0.3};
  double mzi_drift_tau_factor{4.0};
  std::uint32_t max_dead_lasers{4};
  /// Waveguide drift at or above this is quarantined from new routes when
  /// the fault set is applied (below it the edge stays routable and the
  /// budget absorbs the hit).
  Decibel quarantine_threshold{Decibel::db(3.0)};
};

/// The set of faults currently active on one fabric, with the bookkeeping
/// to apply them to (and exactly revert them from) the live resource
/// ledger.
class FaultSet {
 public:
  FaultSet() = default;

  void add(const Fault& f);
  void add_all(const std::vector<Fault>& faults);

  [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }
  [[nodiscard]] bool empty() const { return faults_.empty(); }

  // --- queries (valid whether or not the set is applied) ---
  [[nodiscard]] bool chip_dead(fabric::GlobalTile t) const;
  [[nodiscard]] bool mzi_stuck(fabric::GlobalTile t, fabric::Direction d) const;
  /// Excess loss a traversal of this tile's switch picks up from drift.
  [[nodiscard]] Decibel mzi_drift_excess(fabric::GlobalTile t, fabric::Direction d) const;
  /// Excess insertion loss on the directed edge leaving `t` toward `d`.
  [[nodiscard]] Decibel waveguide_excess(fabric::GlobalTile t, fabric::Direction d) const;
  [[nodiscard]] std::uint32_t dead_lasers(fabric::GlobalTile t) const;
  [[nodiscard]] bool fiber_cut(std::size_t link_index) const;
  /// Whether any fault sits on the hops of a light path: a stuck or
  /// drifted switch, or waveguide excess.  Without one, mzi_stuck,
  /// mzi_drift_excess and waveguide_excess answer false and zero everywhere.
  [[nodiscard]] bool has_hop_faults() const {
    return !stuck_.empty() || !drift_.empty() || !wg_excess_.empty();
  }

  // --- side effects on the live fabric ---
  /// Applies the overlay: downs cut fiber links, quarantines the free lanes
  /// of edges with a stuck switch or with waveguide drift at or above
  /// `quarantine_threshold` (so routing avoids them), reserves the dead
  /// chips' endpoint wavelengths, programs stuck MZIs to their frozen port,
  /// and stretches drifted taus.  Established circuits keep their
  /// resources; diagnosing and repairing them is the health monitor's and
  /// the repair ladder's job.
  void apply_to(fabric::Fabric& fab, Decibel quarantine_threshold = Decibel::db(3.0));

  /// Exactly releases everything apply_to() reserved and restores fiber
  /// flags and MZI parameters.  (MZI phase transients are restored to the
  /// pre-fault target, not replayed — their trajectory is not load-bearing
  /// for budget math.)
  void revert(fabric::Fabric& fab);

  [[nodiscard]] bool applied() const { return applied_; }

 private:
  using EdgeKey = std::tuple<fabric::WaferId, fabric::TileId, std::uint8_t>;
  using TileKey = std::tuple<fabric::WaferId, fabric::TileId>;

  static EdgeKey edge_key(fabric::GlobalTile t, fabric::Direction d) {
    return {t.wafer, t.tile, static_cast<std::uint8_t>(d)};
  }
  static TileKey tile_key(fabric::GlobalTile t) { return {t.wafer, t.tile}; }

  void quarantine_edge(fabric::Fabric& fab, fabric::WaferId w, fabric::TileId t,
                       fabric::Direction d);

  std::vector<Fault> faults_;
  std::map<EdgeKey, phys::MziPort> stuck_;
  std::map<EdgeKey, std::pair<double, double>> drift_;  ///< excess dB, tau factor
  std::map<EdgeKey, double> wg_excess_;
  std::map<TileKey, std::uint32_t> lasers_;
  std::set<TileKey> dead_chips_;
  std::set<std::size_t> cut_links_;

  // apply_to() bookkeeping for exact revert.
  struct ReservedEdge {
    fabric::WaferId wafer{};
    fabric::TileId tile{};
    fabric::Direction dir{};
    std::uint32_t lanes{};
  };
  struct ReservedEndpoint {
    fabric::GlobalTile tile{};
    std::uint32_t tx{};
    std::uint32_t rx{};
  };
  struct MziRestore {
    fabric::GlobalTile tile{};
    fabric::Direction dir{};
    Duration tau{};
    phys::MziPort target{};
  };
  std::vector<ReservedEdge> reserved_edges_;
  std::vector<ReservedEndpoint> reserved_endpoints_;
  std::vector<MziRestore> mzi_restore_;
  std::vector<std::size_t> downed_links_;
  bool applied_{false};
};

/// The correlated failure domain a sampled trial drew.
enum class BurstDomain : std::uint8_t {
  kNone = 0,       ///< no burst: a single independent fault
  kWafer = 1,      ///< burst confined to the first fault's wafer (server)
  kRackPower = 2,  ///< rack-power burst spanning wafers (cross-server)
};

[[nodiscard]] constexpr const char* to_string(BurstDomain d) {
  switch (d) {
    case BurstDomain::kNone: return "none";
    case BurstDomain::kWafer: return "wafer";
    case BurstDomain::kRackPower: return "rack-power";
  }
  return "?";
}

/// One trial's faults plus the correlated domain that produced them.
struct SampledFaults {
  std::vector<Fault> faults;
  BurstDomain domain{BurstDomain::kNone};
};

// Gray (intermittent) fault processes — see fault/gray.hpp.
struct GrayModelParams;
struct GrayEpisode;

/// Deterministic fault sampling against one fabric's geometry.
class FaultInjector {
 public:
  explicit FaultInjector(const fabric::Fabric& fab, FaultModelParams params = {},
                         std::uint64_t seed = 0xfa57);

  [[nodiscard]] const FaultModelParams& params() const { return params_; }

  /// The fault set of trial `trial`: a pure function of (seed, trial) via
  /// util::task_seed, so a parallel sweep draws identical faults no matter
  /// which worker evaluates the trial.
  [[nodiscard]] std::vector<Fault> sample_trial(std::uint64_t trial) const;

  /// Like sample_trial, but reporting the correlated domain drawn.
  [[nodiscard]] SampledFaults sample_trial_with_domain(std::uint64_t trial) const;

  /// Draws one trial's faults (first fault + optional correlated burst)
  /// from an external stream.
  [[nodiscard]] std::vector<Fault> sample(Rng& rng) const;

  /// Draws one trial's faults and the burst domain.  When the burst is
  /// kWafer the extras are confined to the first fault's wafer; when it is
  /// kRackPower, extra fault i is confined to wafer (w0 + 1 + i) mod
  /// wafer_count — a rack-power event sweeping across servers.
  [[nodiscard]] SampledFaults sample_with_domain(Rng& rng) const;

  /// Draws a single fault; `confine` restricts tile selection to a wafer
  /// (burst correlation).
  [[nodiscard]] Fault sample_one(Rng& rng,
                                 std::optional<fabric::WaferId> confine = {}) const;

  // --- gray (intermittent) episodes, alongside the permanent faults ---
  // Defined in fault/gray.cpp; include fault/gray.hpp for the types.

  /// Draws one gray episode (flap trace + transient-settle/BER riders) on a
  /// uniformly drawn directed-edge component.
  [[nodiscard]] GrayEpisode sample_gray(Rng& rng, const GrayModelParams& params) const;

  /// Like sample_gray but with the flapping component pinned by the caller
  /// (e.g. a ring edge's source transceiver).
  [[nodiscard]] GrayEpisode sample_gray_at(Rng& rng, const GrayModelParams& params,
                                           fabric::GlobalTile tile,
                                           fabric::Direction direction) const;

  /// Episode for gray trial `trial`: a pure function of (seed, trial) on a
  /// stream family distinct from sample_trial's.
  [[nodiscard]] GrayEpisode sample_gray_trial(std::uint64_t trial,
                                              const GrayModelParams& params) const;

 private:
  const fabric::Fabric* fab_;
  FaultModelParams params_;
  std::uint64_t seed_;
};

}  // namespace lp::fault
