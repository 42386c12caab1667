// Event-driven open-loop inference-serving simulator.
//
// Ties the whole stack together on the calendar-queue EventEngine: Poisson
// request arrivals (serve/workload) land on model replicas laid out as rows
// of a LIGHTPATH wafer; each replica runs continuous batching with chunked
// prefill and per-token decode rounds; decode rounds drive MoE expert
// all-to-all rotations and admission drives KV-cache migration flows, both
// expressed as circuit demands through core::HostStack (LRU circuit cache,
// reconfiguration r on miss); component faults (fault/FaultInjector) strike
// on an accelerated MTBF clock, are noticed at heartbeat granularity, and
// are repaired by the bounded-timeout ladder (runtime::drive_recovery) with
// route searches going through a runtime::FaultPlane's PlanCache — the same
// fault plane the training-run resilience layer owns.
//
// The output is SLO accounting: p50/p99/p999 request latency and the
// fraction of *offered* requests that completed within the SLO (abandoned
// and still-queued requests count against attainment, as an open-loop
// system demands).
//
// Determinism: a run is a pure function of ServingParams.  The sweep
// derives each point's seed via util::task_seed and folds results in point
// order, so reports are bit-identical at any thread count (the `digest`
// field makes that checkable with one comparison).
#pragma once

#include <cstdint>
#include <vector>

#include "core/host_stack.hpp"
#include "fault/fault.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "runtime/recovery.hpp"
#include "serve/workload.hpp"
#include "util/units.hpp"

namespace lp::serve {

struct ServingParams {
  TrafficParams traffic{};

  /// Replica r owns row r of the wafer: replicas x tiles_per_replica must
  /// equal rows x cols of `wafer`.
  std::uint32_t replicas{16};
  std::uint32_t tiles_per_replica{16};
  fabric::FabricConfig fabric{};  ///< wafer shape set in run_serving if left 4x8

  /// Continuous batching: max concurrent sequences per replica.
  std::uint32_t batch_capacity{64};
  /// Prompt tokens retired per sequence per round while prefilling.
  std::uint32_t prefill_chunk{64};
  /// Round time = round_base + round_per_seq x active + max expert-send
  /// latency across the replica's tiles.
  Duration round_base{Duration::micros(40.0)};
  Duration round_per_seq{Duration::nanos(250.0)};

  /// Expert rotation fan-out: each tile cycles its all-to-all partner over
  /// this many neighbors (< host.max_peers so steady state stays circuit-hit).
  std::uint32_t expert_peers{4};
  /// Wavelengths per backbone ring circuit.
  std::uint32_t backbone_wavelengths{1};
  core::HostStackParams host{6, 1};

  /// Arrivals stop at `horizon`; the engine then drains for `drain` more
  /// simulated time so in-flight requests can finish.
  Duration horizon{Duration::millis(50.0)};
  Duration drain{Duration::millis(20.0)};
  /// Per-request latency SLO (arrival -> last decode token).
  Duration slo{Duration::millis(2.5)};

  /// Component-fault clock: per-chip MTBF in hours, accelerated so a
  /// millisecond-scale run sees a few strikes (0 disables faults).
  double mtbf_hours{0.002};
  fault::FaultModelParams fault_model{};
  fault::HealthMonitorParams health{};
  runtime::RecoveryPolicy recovery{};

  /// Gray (flap) episodes per chip-hour on the replica backbones, Poisson
  /// like mtbf_hours (0 disables the layer; the pre-gray report is
  /// bit-identical).  Dips pause the replica; the controller response
  /// depends on gray_hysteresis: naive thrashes the repair ladder (and
  /// flushes the host circuit cache) on every transition, dampened
  /// quarantines the flapper and rides the dips out.
  double flap_rate_per_hour{0.0};
  fault::GrayModelParams gray{};
  bool gray_hysteresis{true};
  fault::FlapDamperParams damper{};

  std::uint64_t seed{0x5e12e};
};

struct ServingReport {
  double arrival_rate{0.0};

  std::uint64_t offered{0};
  std::uint64_t completed{0};
  std::uint64_t met_slo{0};
  /// Requests stranded on a replica taken offline (or arriving with no
  /// replica online).
  std::uint64_t abandoned{0};
  /// Queued or mid-batch when the drain window closed.
  std::uint64_t in_flight_at_end{0};

  std::uint64_t rounds{0};
  std::uint64_t kv_migrations{0};
  std::uint64_t expert_sends{0};
  std::uint64_t send_failures{0};
  /// Decode rounds whose expert exchange the collective autotuner routed
  /// over the standing next-neighbor circuits (store-and-forward ring)
  /// instead of a rotating pairing; rounds - expert_ring_rounds rotated.
  std::uint64_t expert_ring_rounds{0};
  /// KV migrations the autotuner striped across parallel tile-pair
  /// circuits; kv_migrations - kv_striped went as one bulk transfer.
  std::uint64_t kv_striped{0};

  std::uint64_t fault_events{0};
  std::uint64_t detections{0};
  std::uint64_t repairs{0};
  std::uint64_t repair_failures{0};
  std::uint64_t churn_flushes{0};
  std::uint64_t replicas_offline{0};
  /// Summed replica pause time charged by detection + repair ladders.
  Duration stall_time{Duration::zero()};
  /// Gray-failure accounting (all zero when flap_rate_per_hour == 0).
  std::uint64_t flap_episodes{0};
  std::uint64_t flap_transitions{0};
  /// Flap-triggered ladder climbs (each thrashes: every attempt inside a
  /// dip fails transiently) — the naive arm's per-transition cost.
  std::uint64_t flap_repairs{0};
  /// Flap-triggered climbs the damper suppressed while quarantined.
  std::uint64_t suppressed_repairs{0};
  std::uint64_t quarantines{0};
  std::uint64_t transient_repair_failures{0};
  /// Summed replica pause charged by dips + flap thrash.
  Duration flap_stall{Duration::zero()};

  Duration p50{Duration::zero()};
  Duration p99{Duration::zero()};
  Duration p999{Duration::zero()};
  Duration max_latency{Duration::zero()};

  core::HostStackStats host{};

  /// Completion latencies in completion order, seconds.  The percentile
  /// fields above are computed from exactly this sample set; kept so benches
  /// can re-bin / re-quantile without rerunning the sim.
  std::vector<double> latencies;

  /// met_slo / offered — the open-loop attainment (unserved offered load
  /// counts as missed).
  [[nodiscard]] double slo_attainment() const {
    return offered == 0 ? 1.0
                        : static_cast<double>(met_slo) / static_cast<double>(offered);
  }

  /// Order-sensitive hash over the completion-latency stream and the
  /// counters above: two runs are behaviorally identical iff digests match.
  std::uint64_t digest{0};
};

/// Runs one serving simulation to completion.
[[nodiscard]] ServingReport run_serving(const ServingParams& params);

struct ServingSweepConfig {
  ServingParams base{};
  /// Arrival rates (req/s) to sweep; each point reruns the full sim.
  std::vector<double> arrival_rates;
  /// 0 = LIGHTPATH_THREADS / hardware default.
  unsigned threads{0};
};

struct ServingSweepReport {
  std::vector<ServingReport> points;  ///< one per arrival rate, in order
};

/// Sweeps arrival rate vs SLO attainment.  Points run in parallel; point i
/// uses task_seed(base.seed, i), so the report is bit-identical at any
/// thread count.
[[nodiscard]] ServingSweepReport run_serving_sweep(const ServingSweepConfig& config);

}  // namespace lp::serve
