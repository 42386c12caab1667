// Gray (intermittent) fault processes.
//
// The permanent taxonomy in fault/fault.hpp models fail-stop: a component
// breaks and stays broken until repaired.  Real photonic fabrics also fail
// *gray* — an MZI drifts back and forth across its lock threshold, OCS port
// programming transiently times out, laser power sags and recovers — and a
// controller that treats every transition as a permanent fault thrashes the
// repair ladder (the regime LUMION's reconfiguration-based recovery
// targets).  This module provides the three intermittent processes:
//
//   * FlapTrace — a deterministic two-state Markov (up/down) dip train per
//     component: exponential holding times in each state, a geometric
//     number of dips per episode.  A trace is a pure function of the RNG
//     stream that drew it, so sweeps stay bit-identical at any thread
//     count.
//   * Transient MZI settle failures — a per-attempt oracle
//     (settle_transient_failure) for "the programming attempt timed out
//     and rolled back": a pure function of (seed, attempt ordinal) via
//     util::task_seed, wired into routing::EscalationOptions.
//   * BER-burst degradation — a window of pre-FEC error bursts whose
//     excess loss stays *under* the HealthMonitor's 0.5 dB margin (the
//     health check passes) yet multiplies delivered goodput by
//     ber_goodput_factor.  The fabric lies: only end-to-end accounting
//     sees it.
//
// FaultInjector (fault/fault.hpp) generates gray episodes alongside the
// permanent faults via sample_gray / sample_gray_trial, defined here.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lp::fault {

struct GrayModelParams {
  /// Two-state Markov holding times (exponential): expected time the link
  /// stays locked between dips, and the expected dip length.  Dips are
  /// short against the heartbeat period — that is what makes the failure
  /// gray: by the time a repair is programmed the link is often up again.
  double mean_up_seconds{5.0};
  double mean_down_seconds{0.002};
  /// After each dip the episode continues flapping with this probability
  /// (geometric dip count, expectation 1/(1-p)), capped at max_dips.
  double continue_probability{0.75};
  std::uint32_t max_dips{16};
  /// Probability one optical programming attempt transiently times out
  /// (OCS/settle transient) while the gray layer is active.
  double settle_failure_probability{0.2};
  /// Probability an episode carries a BER burst, its length, the excess
  /// loss (kept below the 0.5 dB health margin so diagnosis stays
  /// healthy), and the goodput multiplier while the burst is active.
  double ber_burst_probability{0.3};
  double mean_ber_burst_seconds{2.0};
  Decibel ber_excess{Decibel::db(0.3)};
  double ber_goodput_factor{0.6};
};

/// One component's up/down dip train, relative to the episode start.
/// toggles()[2k] is the k-th down-transition and toggles()[2k+1] the
/// re-lock that ends it; toggles()[0] == 0 (an episode begins with the
/// link dropping) and the sequence is strictly increasing with an even
/// length (every episode ends re-locked).
class FlapTrace {
 public:
  FlapTrace() = default;
  explicit FlapTrace(std::vector<double> toggles_s);

  [[nodiscard]] const std::vector<double>& toggles() const { return toggles_s_; }
  [[nodiscard]] std::size_t dips() const { return toggles_s_.size() / 2; }
  /// Whether the link is down `t_s` seconds after the episode start
  /// (half-open intervals: down on [down, up), so a query exactly at the
  /// re-lock instant reports up).
  [[nodiscard]] bool down_at(double t_s) const;
  [[nodiscard]] double dip_start(std::size_t k) const { return toggles_s_[2 * k]; }
  [[nodiscard]] double dip_seconds(std::size_t k) const {
    return toggles_s_[2 * k + 1] - toggles_s_[2 * k];
  }
  /// Total seconds spent down across every dip.
  [[nodiscard]] double down_seconds() const;
  /// Episode length (time of the final re-lock); zero for an empty trace.
  [[nodiscard]] double duration_seconds() const {
    return toggles_s_.empty() ? 0.0 : toggles_s_.back();
  }

 private:
  std::vector<double> toggles_s_;
};

/// Dips make_flap_trace reserves room for up front (at most max_dips).
inline constexpr std::uint32_t kReservedDips = 64;

/// Draws one dip train from `rng` (dip/hold lengths, geometric dip count).
/// Determinism: the trace is a pure function of the stream state, so a
/// caller seeding Rng{task_seed(seed, episode)} gets the same trace on
/// every worker.  Makes one heap allocation for a trace of up to
/// min(max_dips, kReservedDips) dips.
[[nodiscard]] FlapTrace make_flap_trace(Rng& rng, const GrayModelParams& params);

/// One gray episode: a flapping component plus its riders.  The component
/// identifies a directed edge's switch/transceiver; which circuit that
/// degrades is the consumer's lookup, exactly as with permanent faults.
struct GrayEpisode {
  fabric::GlobalTile tile{};
  fabric::Direction direction{fabric::Direction::kNorth};
  FlapTrace trace;
  /// Per-attempt transient settle-failure probability while this episode's
  /// repairs run (copied from the model so consumers need no params).
  double settle_failure_probability{0.0};
  /// BER burst rider: active for ber_seconds from the episode start when
  /// ber_burst is set.  ber_excess stays under the health margin.
  bool ber_burst{false};
  double ber_seconds{0.0};
  Decibel ber_excess{Decibel::zero()};
  double ber_goodput_factor{1.0};
};

/// Transient settle-failure oracle: whether programming attempt `attempt`
/// times out, as a pure function of (seed, attempt) via util::task_seed —
/// the same attempt ordinal fails identically on every thread and climb.
[[nodiscard]] bool settle_transient_failure(std::uint64_t seed, std::uint64_t attempt,
                                            double probability);

/// Stable damper/bookkeeping key for a directed-edge component.
[[nodiscard]] std::uint64_t gray_component_key(fabric::GlobalTile t, fabric::Direction d);

}  // namespace lp::fault
