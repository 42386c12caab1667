#include "runtime/training_run.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "topo/cluster.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lp::runtime {
namespace {

fabric::FabricConfig run_fabric_config() {
  fabric::FabricConfig config;
  config.wafer_count = 2;
  return config;
}

}  // namespace

BucketCosts all_reduce_bucket_costs(coll::Algorithm algo, std::size_t m, DataSize n,
                                    Bandwidth rate, Duration reconfig) {
  BucketCosts costs;
  bool leading = true;
  coll::lower(coll::CollOp::kAllReduce, algo, m, {.n = n, .reconfig = reconfig},
              [&](const coll::PhaseRun& run) {
                // A phase moving 0 B at a zero rate (0/0) costs nothing, not NaN.
                const Duration longest =
                    std::max(Duration::zero(), transfer_time(run.bytes, rate));
                // Summed in locals: `costs` could alias `run` for all the
                // compiler knows, which kept it in memory (~2x slower).
                const Duration pre = run.pre_delay;
                BucketCosts sum = costs;
                for (std::size_t i = 0; i < run.count; ++i) {
                  sum.first += pre + longest;
                  sum.steady += longest;
                  if (!leading) sum.steady += pre;
                  leading = false;
                }
                costs = sum;
              });
  return costs;
}

TrainingRun::TrainingRun(const RunConfig& config)
    : config_{config},
      fab_{run_fabric_config()},
      injector_{fab_, config.model, config.seed},
      plane_{fab_, config.health, config.damper, config.gray_hysteresis},
      tuner_{coll::TunerParams{.alpha = config.cost.alpha}} {
  // Fiber bundles between wafer 0's east column and wafer 1's west column,
  // one per row, generously sized so fibers are never the binding resource.
  const auto& w = fab_.wafer(0);
  for (std::int32_t row = 0; row < w.rows(); ++row) {
    fab_.add_fiber_link({0, w.tile_at({row, w.cols() - 1})}, {1, w.tile_at({row, 0})},
                        64);
  }
  establish_ring();
  rebuild_costs();
}

void TrainingRun::establish_ring() {
  // Tiles 0..k-1 of wafer 0 then 0..k-1 of wafer 1, closed into one ring
  // with two cross-wafer edges.  Tiles k.. stay idle: the spare pool.
  const std::uint32_t tiles = fab_.wafer(0).tile_count();
  const std::uint32_t k = std::min(config_.ring_tiles_per_wafer, tiles);
  for (fabric::WaferId wafer = 0; wafer < fab_.wafer_count(); ++wafer) {
    for (fabric::TileId t = 0; t < k; ++t) members_.push_back({wafer, t});
  }
  circuits_.resize(members_.size());
  for (std::size_t e = 0; e < members_.size(); ++e) {
    auto placed = fab_.connect(members_[e], members_[(e + 1) % members_.size()],
                               config_.wavelengths);
    circuits_[e] = placed ? placed.value() : 0;
  }
  ring_changed_ = true;
}

bool TrainingRun::BucketCollective::same_as(const BucketCollective& o) const {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return members == o.members && bits(rate.to_bps()) == bits(o.rate.to_bps()) &&
         bits(reconfig.to_seconds()) == bits(o.reconfig.to_seconds());
}

TrainingRun::BucketCollective TrainingRun::bucket_collective() const {
  BucketCollective c;
  c.members = members_.size();
  if (config_.policy == RunPolicy::kPhotonicRepair) {
    // The ring runs at its slowest edge (a 1-lambda elastic bridge drags
    // every step down — the price of staying alive).
    c.rate = Bandwidth::zero();
    for (const fabric::CircuitId id : circuits_) {
      const Bandwidth b = fab_.circuit_bandwidth(id);
      if (c.rate.is_zero() || b < c.rate) c.rate = b;
    }
    c.reconfig = config_.cost.reconfig;
  } else {
    c.rate = config_.cost.chip_bandwidth / static_cast<double>(config_.cost.total_dims);
  }
  return c;
}

std::vector<topo::TpuId> TrainingRun::member_ids() const {
  const std::uint32_t tiles = fab_.wafer(0).tile_count();
  std::vector<topo::TpuId> ids;
  ids.reserve(members_.size());
  for (const fabric::GlobalTile& m : members_) {
    ids.push_back(static_cast<topo::TpuId>(m.wafer * tiles + m.tile));
  }
  return ids;
}

void TrainingRun::rebuild_costs() {
  const BucketCollective c = bucket_collective();
  costs_epoch_ = fab_.epoch();
  ring_changed_ = false;
  // The pick, the costs and the timeline are pure functions of these
  // inputs and the config: a respare that keeps the member count and every
  // ring width would re-derive exactly what the run holds (DESIGN §7).
  if (costs_inputs_ && c.same_as(*costs_inputs_)) return;
  costs_inputs_ = c;
  // The autotuner races ring vs tree vs halving-doubling for the bucket
  // AllReduce at the surviving topology's rate; at the default 64 MiB
  // buckets the ring wins (bandwidth-bound), while small-bucket configs and
  // shrunk rings flip to log-depth schedules.  Decisions are memoized on
  // (op, size bucket, member fingerprint, fabric epoch); a derivation runs
  // only on new inputs, so each one meets a new key.
  const coll::Decision pick =
      tuner_.pick(coll::CollOp::kAllReduce, config_.iteration.bucket_bytes, member_ids(),
                  c.rate, c.reconfig, fab_.epoch());
  bucket_algo_ = pick.algo;
  bucket_costs_ = all_reduce_bucket_costs(pick.algo, c.members,
                                          config_.iteration.bucket_bytes, c.rate,
                                          c.reconfig);
  timeline_ = core::overlap_buckets(config_.iteration, bucket_costs_.first,
                                    bucket_costs_.steady);
}

coll::Schedule TrainingRun::schedule() const {
  const BucketCollective c = bucket_collective();
  return tuner_.build(coll::CollOp::kAllReduce, bucket_algo_, member_ids(),
                      config_.iteration.bucket_bytes, c.rate, c.reconfig);
}

Duration TrainingRun::shrink_ring(std::size_t i, RunReport& report) {
  ring_changed_ = true;
  Duration dur = Duration::zero();
  const std::size_t n = members_.size();
  std::size_t pe = (i + n - 1) % n;
  fab_.disconnect(circuits_[pe]);
  fab_.disconnect(circuits_[i]);  // may already be gone (ladder fell through)
  members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
  circuits_.erase(circuits_.begin() + static_cast<std::ptrdiff_t>(i));
  ++report.elastic_shrinks;
  if (pe > i) --pe;
  // Bridge the survivors around the gap, degrading to a single wavelength
  // if the full-width circuit will not place; if even that fails (the fault
  // quarantined everything between them), drop the unreachable neighbor too
  // and keep going — the elastic contract is that the run continues on
  // whatever ring still lights up.
  while (members_.size() >= 2) {
    const fabric::GlobalTile from = members_[pe];
    const fabric::GlobalTile to = members_[(pe + 1) % members_.size()];
    Result<fabric::CircuitId> placed = fab_.connect(from, to, config_.wavelengths);
    if (!placed) placed = fab_.connect(from, to, 1);
    if (placed) {
      circuits_[pe] = placed.value();
      const fabric::Circuit* c = fab_.circuit(placed.value());
      dur += fab_.reconfig().batch_latency(c->mzi_count);
      return dur;
    }
    const std::size_t drop = (pe + 1) % members_.size();
    fab_.disconnect(circuits_[drop]);
    members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(drop));
    circuits_.erase(circuits_.begin() + static_cast<std::ptrdiff_t>(drop));
    if (drop < pe) --pe;
    ++report.elastic_shrinks;
  }
  return dur;  // ring collapsed; run() stops at the next loop check
}

Duration TrainingRun::recover_dead_member(std::size_t i, RunReport& report,
                                          bool& removed, bool assume_dead) {
  ring_changed_ = true;  // a respared member or a shrunk ring
  Duration dur = Duration::zero();
  const std::size_t n = members_.size();
  const std::size_t pe = (i + n - 1) % n;
  const fabric::CircuitId in_id = circuits_[pe];
  const fabric::CircuitId out_id = circuits_[i];

  // The in-edge (prev -> dead) picks the spare: respare re-anchors it as
  // prev -> spare (plus the reverse circuit, which the ring does not use).
  routing::EscalationOptions opts = plane_.repair_options(config_.wavelengths);
  routing::free_tiles(fab_, spares_);
  opts.spare_candidates = spares_;
  routing::DegradedCircuit victim_in = fault::to_degraded(plane_.diagnose(in_id));
  // Misclassification path: the diagnosis is healthy (the member only
  // flaps), but the controller has decided it is dead — force the flags so
  // the ladder anchors the respare on the surviving neighbor, exactly as it
  // would for a genuinely dead chip.
  if (assume_dead) victim_in.dst_dead = true;
  const RecoveryResult res_in =
      drive_recovery(fab_, victim_in, config_.recovery, opts);
  dur += res_in.total();
  if (res_in.recovered && res_in.rung == routing::RepairRung::kRespare &&
      res_in.circuits.size() == 2) {
    const fabric::GlobalTile spare = fab_.circuit(res_in.circuits[0])->dst;
    fab_.disconnect(res_in.circuits[1]);
    circuits_[pe] = res_in.circuits[0];
    ++report.recovered_by[routing::rung_index(routing::RepairRung::kRespare)];

    // The out-edge (dead -> next) must land on the same spare.
    routing::EscalationOptions opts_out = plane_.repair_options(config_.wavelengths);
    opts_out.spare_candidates = {&spare, 1};
    routing::DegradedCircuit victim_out = fault::to_degraded(plane_.diagnose(out_id));
    if (assume_dead) victim_out.src_dead = true;
    const RecoveryResult res_out =
        drive_recovery(fab_, victim_out, config_.recovery, opts_out);
    dur += res_out.total();
    if (res_out.recovered && res_out.rung == routing::RepairRung::kRespare &&
        res_out.circuits.size() == 2) {
      fab_.disconnect(res_out.circuits[0]);
      circuits_[i] = res_out.circuits[1];
      members_[i] = spare;
      ++report.recovered_by[routing::rung_index(routing::RepairRung::kRespare)];
      removed = false;
      return dur;
    }
  }
  // Respare exhausted (no spare placeable, or the pair could not complete):
  // elastic degradation instead of migration.
  dur += shrink_ring(i, report);
  removed = true;
  return dur;
}

TrainingRun::EventOutcome TrainingRun::play_gray_episode(Duration t0, Rng& gray_stream,
                                                         RunReport& report) {
  EventOutcome out;
  // The flapping component: the source transceiver of a uniformly chosen
  // ring edge (the same spatial granularity the permanent injector uses).
  const std::size_t e = gray_stream.uniform_index(circuits_.size());
  const fabric::Circuit* c = fab_.circuit(circuits_[e]);
  if (c == nullptr || c->segments.empty() || c->segments.front().hops.empty()) {
    return out;  // collapsed edge; nothing to flap
  }
  const fabric::GlobalTile tile{c->segments.front().wafer, c->segments.front().from};
  const fabric::Direction dir = c->segments.front().hops.front();
  const fault::GrayEpisode ep =
      injector_.sample_gray_at(gray_stream, config_.gray, tile, dir);
  const std::uint64_t key = fault::gray_component_key(tile, dir);
  const bool photonic = config_.policy == RunPolicy::kPhotonicRepair;

  for (std::size_t k = 0; k < ep.trace.dips(); ++k) {
    const Duration t_dip = t0 + Duration::seconds(ep.trace.dip_start(k));
    ++report.flap_transitions;
    // The link is dark for the dip either way: the ring stalls.
    const Duration dark = Duration::seconds(ep.trace.dip_seconds(k));
    out.recovery += dark;
    report.flap_stall += dark;
    // The electrical baseline has no optical controller to thrash; it just
    // rides the dips out (gray-vs-gray comparisons are photonic-only).
    if (!photonic) continue;
    const std::optional<RecoveryResult> res =
        plane_.flap(key, t_dip, circuits_[e], config_.recovery, config_.wavelengths);
    if (!res) continue;  // quarantined: ride it out
    ++report.flap_repairs;
    report.transient_repair_failures += res->transient_failures;
    out.recovery += res->total();
    if (!config_.gray_hysteresis) {
      const std::uint32_t seen = ++dips_seen_[key];
      if (seen >= config_.naive_misclassify_after) {
        // The naive controller has watched the same component "fail"
        // repeatedly and declares the chip dead: a full respare with state
        // loss — the gray failure priced as fail-stop.
        ++report.misclassifications;
        bool removed = false;
        out.recovery += recover_dead_member(e, report, removed, /*assume_dead=*/true);
        out.state_loss = true;
        dips_seen_.erase(key);
        break;  // the flapper left the ring; the remaining dips are latent
      }
    }
  }

  // BER-burst rider: excess loss below the health margin, so diagnosis
  // stays healthy while delivered goodput drops to ber_goodput_factor for
  // the burst.  Both arms pay it identically — only end-to-end accounting
  // sees a fabric that lies.
  if (ep.ber_burst) {
    ++report.ber_bursts;
    const double factor = std::max(ep.ber_goodput_factor, 0.05);
    const Duration extra = Duration::seconds(ep.ber_seconds * (1.0 / factor - 1.0));
    report.ber_slowdown += extra;
    out.recovery += extra;
  }
  return out;
}

TrainingRun::EventOutcome TrainingRun::recover_photonic(RunReport& report) {
  EventOutcome out;

  // Pass 1 — dead members: replace with a spare (respare pair) or shrink.
  // Either way the member's device state is gone: rollback.
  std::size_t i = 0;
  while (i < members_.size() && members_.size() >= 2) {
    if (!plane_.active().chip_dead(members_[i])) {
      ++i;
      continue;
    }
    bool removed = false;
    out.recovery += recover_dead_member(i, report, removed);
    out.state_loss = true;
    if (!removed) ++i;
  }

  // Pass 2 — surviving-but-degraded edges: retune/reroute in place (pure
  // stall, no state loss).  No spare candidates here: a live-endpoint
  // respare would silently move the member's identity.  If the optical
  // rungs are exhausted, the edge's source member is dropped and the ring
  // bridges around it.  Each repair can change the topology, so rescan from
  // the top after every action, bounded by the ring size.
  std::size_t guard = 4 * (members_.size() + 1);
  bool progress = true;
  while (progress && guard-- > 0 && members_.size() >= 2) {
    progress = false;
    for (std::size_t e = 0; e < circuits_.size(); ++e) {
      const auto diag = plane_.diagnose(circuits_[e]);
      if (diag.health == fault::CircuitHealth::kHealthy) continue;
      const RecoveryResult res =
          drive_recovery(fab_, fault::to_degraded(diag), config_.recovery,
                         plane_.repair_options(config_.wavelengths));
      out.recovery += res.total();
      if (res.recovered) {
        ++report.recovered_by[routing::rung_index(res.rung)];
        if (!res.circuits.empty()) {
          circuits_[e] = res.circuits[0];
          ring_changed_ = true;
        }
      } else {
        out.recovery += shrink_ring(e, report);
        out.state_loss = true;
      }
      progress = true;
      break;
    }
  }
  return out;
}

RunReport TrainingRun::run() {
  RunReport report;
  report.policy = config_.policy;
  report.ring_size_initial = static_cast<std::uint32_t>(members_.size());

  // Healthy baseline under this policy's own interconnect: the goodput
  // denominator, so the metric isolates availability, not raw bandwidth.
  report.ideal_time =
      timeline_.report.iteration * static_cast<double>(config_.iterations);

  // Fault arrivals: Poisson over the initial ring's chips, one serial
  // stream; fault contents come from a second stream so adding draws to one
  // never perturbs the other.
  const double rate_per_sec = static_cast<double>(members_.size()) /
                              (config_.mtbf_hours * 3600.0);
  Rng arrivals{util::task_seed(config_.seed, 0)};
  Rng fault_stream{util::task_seed(config_.seed, 1)};
  const bool scripted = !config_.script.empty();
  std::size_t script_idx = 0;
  // The next fault: the next script entry, or a Poisson gap drawn from
  // `from` (the run restarts the clock wherever training resumes).
  const auto next_fault_after = [&](Duration from) {
    if (!scripted) return from + Duration::seconds(arrivals.exponential(rate_per_sec));
    return script_idx < config_.script.size() ? config_.script[script_idx].at
                                              : Duration::infinite();
  };
  Duration next_fault = next_fault_after(Duration::zero());

  // Gray (flap) episodes: an independent Poisson process on its own pair of
  // streams, so enabling the gray layer never perturbs the permanent fault
  // timeline (and flap_rate_per_hour == 0 reproduces it bit-identically).
  const bool gray_on = config_.flap_rate_per_hour > 0.0;
  const double gray_rate_per_sec = static_cast<double>(members_.size()) *
                                   config_.flap_rate_per_hour / 3600.0;
  Rng gray_arrivals{util::task_seed(config_.seed, 4)};
  Rng gray_stream{util::task_seed(config_.seed, 5)};
  Duration next_gray =
      gray_on ? Duration::seconds(gray_arrivals.exponential(gray_rate_per_sec))
              : Duration::infinite();

  Duration clock = Duration::zero();
  Duration last_checkpoint = Duration::zero();
  std::uint32_t completed = 0;

  while (completed < config_.iterations && members_.size() >= 2) {
    const Duration iter_dur = timeline_.report.iteration;
    const bool fault_pending = !scripted || script_idx < config_.script.size();
    const Duration t_fault =
        fault_pending ? std::max(next_fault, clock) : Duration::infinite();
    const Duration t_gray = std::max(next_gray, clock);
    const bool gray_first = t_gray < t_fault;
    const Duration t_f = gray_first ? t_gray : t_fault;
    if (t_f >= clock + iter_dur) {
      clock += iter_dur;
      ++completed;
      if (clock - last_checkpoint >= config_.checkpoint_interval) {
        last_checkpoint = clock;
      }
      continue;
    }

    // An event strikes inside this iteration.
    const Duration offset = t_f - clock;
    EventOutcome outcome;
    if (gray_first) {
      ++report.flap_episodes;
      outcome = play_gray_episode(t_f, gray_stream, report);
    } else {
      const bool mid_collective = timeline_.collective_in_flight(offset);
      std::vector<fault::Fault> faults;
      if (scripted) {
        faults = config_.script[script_idx].faults;
        ++script_idx;
      } else {
        faults = injector_.sample(fault_stream);
      }
      ++report.fault_events;
      report.faults_injected += faults.size();
      if (mid_collective) ++report.mid_collective_faults;

      plane_.strike(faults, config_.model.quarantine_threshold);
      const bool any_unhealthy =
          std::any_of(circuits_.begin(), circuits_.end(), [&](fabric::CircuitId id) {
            return plane_.diagnose(id).health != fault::CircuitHealth::kHealthy;
          });
      if (!any_unhealthy) {
        // Latent fault: no ring circuit degraded, training never notices.
        next_fault = next_fault_after(t_f);
        continue;
      }
      ++report.detections;
      plane_.set_now(t_f);  // keep the quarantine view current for the repairs

      if (config_.policy == RunPolicy::kElectricalMigration) {
        // Rack-granularity baseline: any degraded circuit drains the job and
        // restarts it on fresh hardware — which also clears the fault
        // overlay.
        ++report.migrations;
        outcome.recovery = config_.migration_latency;
        outcome.state_loss = true;
        plane_.revert_all();
      } else {
        outcome = recover_photonic(report);
      }
    }

    // Heartbeat detection (gray episodes charge it identically in both
    // arms — the controller still has to look).
    const Duration detect_done = config_.recovery.detected_at(t_f);
    report.lost.detection += detect_done - t_f;
    report.lost.recovery += outcome.recovery;

    Duration resume = detect_done + outcome.recovery;
    if (outcome.state_loss) {
      // Rollback: everything since the checkpoint is replayed.  Progress is
      // not rewound; the replay is charged as wall clock instead, which is
      // the same goodput arithmetic without re-simulating the iterations.
      const Duration redo = t_f - last_checkpoint;
      report.lost.redo += redo;
      ++report.rollbacks;
      resume += redo;
      clock = resume;  // the interrupted iteration restarts under new costs
    } else {
      // Pure stall (retune/reroute/dips): the interrupted iteration picks up
      // where it left off and finishes its remaining schedule.
      clock = resume + (iter_dur - offset);
      ++completed;
      if (clock - last_checkpoint >= config_.checkpoint_interval) {
        last_checkpoint = clock;
      }
    }
    report.recover_seconds.push_back((resume - t_f).to_seconds());

    if (config_.policy == RunPolicy::kPhotonicRepair &&
        (ring_changed_ || fab_.epoch() != costs_epoch_)) {
      rebuild_costs();
    }

    if (gray_first) {
      next_gray = clock + Duration::seconds(gray_arrivals.exponential(gray_rate_per_sec));
    } else {
      next_fault = next_fault_after(clock);
    }
  }

  report.iterations_completed = completed;
  report.ring_size_final = static_cast<std::uint32_t>(members_.size());
  report.wall_clock = clock;
  const fault::FlapDamperStats& damped = plane_.damper_stats();
  report.suppressed_repairs = damped.suppressed_repairs;
  report.quarantines = damped.quarantines;
  report.probations = damped.probations;
  report.relapses = damped.relapses;
  return report;
}

ResilienceSweepReport run_resilience_sweep(const ResilienceSweepConfig& config) {
  const std::size_t trials = config.trials;
  const std::vector<RunReport> reports = util::paired_sweep<RunReport>(
      config.mtbf_points.size(), trials, config.base.seed, config.threads,
      [&](std::size_t p, std::size_t arm, std::uint64_t seed) {
        RunConfig rc = config.base;
        rc.mtbf_hours = config.mtbf_points[p];
        rc.policy = arm == 0 ? RunPolicy::kPhotonicRepair : RunPolicy::kElectricalMigration;
        rc.seed = seed;
        TrainingRun run{rc};
        return run.run();
      });

  // Fold in ascending task order: bit-identical at any thread count.
  ResilienceSweepReport out;
  for (std::size_t p = 0; p < config.mtbf_points.size(); ++p) {
    for (int pol = 0; pol < 2; ++pol) {
      MtbfPointReport pt;
      pt.mtbf_hours = config.mtbf_points[p];
      pt.policy = pol == 0 ? RunPolicy::kPhotonicRepair
                           : RunPolicy::kElectricalMigration;
      pt.trials = config.trials;
      std::vector<double> recover_all;
      for (std::size_t t = 0; t < trials; ++t) {
        const RunReport& r = reports[(p * 2 + static_cast<std::size_t>(pol)) * trials + t];
        const double g = r.goodput();
        pt.goodput_mean += g;
        pt.goodput_min = std::min(pt.goodput_min, g);
        pt.goodput_max = std::max(pt.goodput_max, g);
        pt.lost_redo_seconds += r.lost.redo.to_seconds();
        pt.lost_detection_seconds += r.lost.detection.to_seconds();
        pt.lost_recovery_seconds += r.lost.recovery.to_seconds();
        pt.fault_events += r.fault_events;
        pt.detections += r.detections;
        pt.rollbacks += r.rollbacks;
        pt.elastic_shrinks += r.elastic_shrinks;
        pt.migrations += r.migrations;
        pt.transient_repair_failures += r.transient_repair_failures;
        pt.suppressed_repairs += r.suppressed_repairs;
        pt.quarantines += r.quarantines;
        for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
          pt.recovered_by[k] += r.recovered_by[k];
        }
        recover_all.insert(recover_all.end(), r.recover_seconds.begin(),
                           r.recover_seconds.end());
      }
      const double n = static_cast<double>(trials);
      pt.goodput_mean /= n;
      pt.lost_redo_seconds /= n;
      pt.lost_detection_seconds /= n;
      pt.lost_recovery_seconds /= n;
      if (!recover_all.empty()) {
        const std::vector<double> q = percentiles(recover_all, {50.0, 99.0});
        pt.recover_p50_seconds = q[0];
        pt.recover_p99_seconds = q[1];
      }
      out.points.push_back(pt);
    }
  }
  return out;
}

std::uint64_t GraySweepReport::digest() const {
  std::uint64_t h = 0;
  const auto mix_double = [&](double v) {
    h = fabric::hash_mix(h, std::bit_cast<std::uint64_t>(v));
  };
  for (const GrayPointReport& pt : points) {
    mix_double(pt.flap_rate_per_hour);
    h = fabric::hash_mix(h, pt.hysteresis ? 1u : 0u);
    h = fabric::hash_mix(h, pt.trials);
    mix_double(pt.goodput_mean);
    mix_double(pt.goodput_min);
    mix_double(pt.goodput_max);
    h = fabric::hash_mix(h, pt.flap_episodes);
    h = fabric::hash_mix(h, pt.flap_transitions);
    h = fabric::hash_mix(h, pt.flap_repairs);
    h = fabric::hash_mix(h, pt.suppressed_repairs);
    h = fabric::hash_mix(h, pt.quarantines);
    h = fabric::hash_mix(h, pt.probations);
    h = fabric::hash_mix(h, pt.relapses);
    h = fabric::hash_mix(h, pt.misclassifications);
    h = fabric::hash_mix(h, pt.rollbacks);
    h = fabric::hash_mix(h, pt.transient_repair_failures);
    h = fabric::hash_mix(h, pt.ber_bursts);
    mix_double(pt.flap_stall_seconds);
    mix_double(pt.ber_slowdown_seconds);
  }
  return h;
}

GraySweepReport run_gray_sweep(const GraySweepConfig& config) {
  const std::size_t trials = config.trials;
  // Arm 0 is the hysteresis controller, arm 1 the naive one.
  const std::vector<RunReport> reports = util::paired_sweep<RunReport>(
      config.flap_rates_per_hour.size(), trials, config.base.seed, config.threads,
      [&](std::size_t p, std::size_t arm, std::uint64_t seed) {
        RunConfig rc = config.base;
        rc.policy = RunPolicy::kPhotonicRepair;
        rc.flap_rate_per_hour = config.flap_rates_per_hour[p];
        rc.gray_hysteresis = arm == 0;
        rc.seed = seed;
        TrainingRun run{rc};
        return run.run();
      });

  // Fold in ascending task order: bit-identical at any thread count.
  GraySweepReport out;
  for (std::size_t p = 0; p < config.flap_rates_per_hour.size(); ++p) {
    for (int arm = 0; arm < 2; ++arm) {
      GrayPointReport pt;
      pt.flap_rate_per_hour = config.flap_rates_per_hour[p];
      pt.hysteresis = arm == 0;
      pt.trials = config.trials;
      for (std::size_t t = 0; t < trials; ++t) {
        const RunReport& r = reports[(p * 2 + static_cast<std::size_t>(arm)) * trials + t];
        const double g = r.goodput();
        pt.goodput_mean += g;
        pt.goodput_min = std::min(pt.goodput_min, g);
        pt.goodput_max = std::max(pt.goodput_max, g);
        pt.flap_episodes += r.flap_episodes;
        pt.flap_transitions += r.flap_transitions;
        pt.flap_repairs += r.flap_repairs;
        pt.suppressed_repairs += r.suppressed_repairs;
        pt.quarantines += r.quarantines;
        pt.probations += r.probations;
        pt.relapses += r.relapses;
        pt.misclassifications += r.misclassifications;
        pt.rollbacks += r.rollbacks;
        pt.transient_repair_failures += r.transient_repair_failures;
        pt.ber_bursts += r.ber_bursts;
        pt.flap_stall_seconds += r.flap_stall.to_seconds();
        pt.ber_slowdown_seconds += r.ber_slowdown.to_seconds();
      }
      pt.goodput_mean /= static_cast<double>(trials);
      out.points.push_back(pt);
    }
  }
  return out;
}

}  // namespace lp::runtime
