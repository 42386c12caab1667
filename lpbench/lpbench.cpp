// lpbench: the repository's performance ledger.
//
//   lpbench --workload serve|cluster|train_gray|control_plane --seed N
//           [--seconds S] [--trace 0|1] [--trace-out FILE] [--json FILE]
//
// One closed-loop caller per workload (a rep starts when the previous one
// returns), at most two threads.  A run pins itself to the fastest CPUs,
// runs one warm-up rep that is discarded, builds the workload's world with
// no simulated work for half a second (setup_s), then runs measured reps
// until --seconds have passed.  Every rep's outputs are checked; the last
// stdout line is one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
// and traced reps and reports the per-layer metrics: spans recorded around
// every library call the driver makes, plus counters read from the
// library's reports and stats() accessors.  See README.md for what each
// workload and metric measures.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/scheduler.hpp"
#include "collective/autotuner.hpp"
#include "core/host_stack.hpp"
#include "fault/fault.hpp"
#include "lightpath/fabric.hpp"
#include "routing/plan_cache.hpp"
#include "runtime/recovery.hpp"
#include "runtime/training_run.hpp"
#include "serve/serving_sim.hpp"
#include "sim/flow_sim.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace lp;
using lpbench::now_us;
using lpbench::Scope;
using lpbench::Tracer;

// ---------------------------------------------------------------------------
// Metric schema.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics (--trace 1).  Every workload reports all of them; a
/// layer the workload bypasses reads 0.  "<span>_pct" is the share of traced
/// rep time spent in spans of that name (self time); sim_ms / sim_s are
/// simulated time, every other time unit is host time.
constexpr MetricDef kPerLayer[] = {
    // The driver itself.
    {"bench.rep_s", "s"},
    {"bench.self_s", "s"},
    {"bench.trace_overhead", "ratio"},
    {"bench.calls", "count"},
    {"bench.call_p50_us", "us"},
    {"bench.call_tail_us", "us"},
    {"bench.call_tail_pct", "%"},
    // Host-time shares of the library calls the driver times.
    {"routing.place_hit_pct", "%"},
    {"routing.place_miss_pct", "%"},
    {"routing.release_pct", "%"},
    {"collective.pick_pct", "%"},
    {"collective.build_pct", "%"},
    {"sim.flow_run_pct", "%"},
    {"core.host_send_pct", "%"},
    {"fault.apply_pct", "%"},
    {"fault.revert_pct", "%"},
    {"runtime.recover_pct", "%"},
    {"runtime.run_hysteresis_pct", "%"},
    {"runtime.run_naive_pct", "%"},
    {"serve.run_1000k_pct", "%"},
    {"serve.run_1500k_pct", "%"},
    {"serve.run_2000k_pct", "%"},
    {"cluster.run_photonic_pct", "%"},
    {"cluster.run_electrical_pct", "%"},
    // routing::PlanCache.
    {"routing.plan_hit_ratio", "ratio"},
    {"routing.plan_misses", "count"},
    {"routing.epoch_invalidations", "count"},
    {"routing.digest_mismatches", "count"},
    {"routing.replay_aborts", "count"},
    {"routing.route_hit_ratio", "ratio"},
    // coll::Autotuner and sim::FlowSimulator.
    {"collective.picks", "count"},
    {"collective.tune_hit_ratio", "ratio"},
    {"sim.flow_runs", "count"},
    // core::HostStack.
    {"core.host_messages", "count"},
    {"core.host_hit_ratio", "ratio"},
    {"core.host_evictions", "count"},
    {"core.host_reconfig_ms", "sim_ms"},
    // fault/: injected faults and the gray-failure damper.
    {"fault.fault_events", "count"},
    {"fault.flap_episodes", "count"},
    {"fault.quarantines", "count"},
    {"fault.suppressed_repairs", "count"},
    {"fault.transient_repair_failures", "count"},
    // runtime/: repair ladder and training runs.
    {"runtime.recoveries", "count"},
    {"runtime.recovered_ratio", "ratio"},
    {"runtime.recover_tail_ms", "sim_ms"},
    {"runtime.recover_tail_pct", "%"},
    {"runtime.recovered_by_rung1", "count"},
    {"runtime.recovered_by_rung2", "count"},
    {"runtime.recovered_by_rung3", "count"},
    {"runtime.recovered_by_rung4", "count"},
    {"runtime.recovered_by_rung5", "count"},
    {"runtime.flap_repairs", "count"},
    {"runtime.rollbacks", "count"},
    {"runtime.elastic_shrinks", "count"},
    {"runtime.misclassifications", "count"},
    {"runtime.lost_redo_s", "sim_s"},
    {"runtime.lost_detect_s", "sim_s"},
    {"runtime.lost_recovery_s", "sim_s"},
    {"runtime.flap_stall_s", "sim_s"},
    {"train.goodput", "ratio"},
    {"train.goodput_naive", "ratio"},
    // serve/.
    {"serve.slo_attainment", "ratio"},
    {"serve.p99_ms", "sim_ms"},
    {"serve.abandoned", "count"},
    {"serve.rounds", "count"},
    {"serve.expert_sends", "count"},
    {"serve.expert_ring_rounds", "count"},
    {"serve.kv_migrations", "count"},
    {"serve.kv_striped", "count"},
    {"serve.send_failures", "count"},
    {"serve.repairs", "count"},
    {"serve.repair_failures", "count"},
    {"serve.churn_flushes", "count"},
    {"serve.replicas_offline", "count"},
    {"serve.stall_ms", "sim_ms"},
    // cluster/.
    {"cluster.accepted_load", "ratio"},
    {"cluster.accepted_gain", "ratio"},
    {"cluster.aborted", "count"},
    {"cluster.morphs", "count"},
    {"cluster.morph_aborts", "count"},
    {"cluster.morph_deferrals", "count"},
    {"cluster.respares", "count"},
    {"cluster.inplace_repairs", "count"},
    {"cluster.elastic_shrinks", "count"},
    {"cluster.requeues", "count"},
    {"cluster.migrations", "count"},
    {"cluster.queue_p99_s", "sim_s"},
    {"cluster.frag_stranding", "ratio"},
    {"cluster.utilization", "ratio"},
};

/// Median and quartiles of one metric's samples (linear interpolation).
struct Summary {
  double median{0.0};
  double q1{0.0};
  double q3{0.0};
  std::size_t n{0};
};

Summary summarize(const std::vector<double>& xs) {
  if (xs.empty()) return {};
  return Summary{percentile(xs, 50.0), percentile(xs, 25.0), percentile(xs, 75.0),
                 xs.size()};
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// What one rep did.
struct Rep {
  std::uint64_t digest{0};
  /// Units of simulated work (requests, jobs, iterations, cycles).
  std::uint64_t ops{0};
  /// Library calls made, and how many of them returned an error.
  std::uint64_t calls{0};
  std::uint64_t failed{0};
  /// Output checks that did not hold.
  std::vector<std::string> errors;
  /// Host time of each top-level call (traced pass only).
  std::vector<double> call_us;
  /// Per-layer values read from reports and stats (traced pass only).
  std::map<std::string, double> layer;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the world with no simulated work; timed as setup_s.
  virtual void setup() = 0;
  /// One rep.  `tracer` is non-null in the traced pass; `warmup` marks the
  /// discarded first rep.
  virtual Rep rep(Tracer* tracer, bool warmup) = 0;
  /// Threads a rep runs on.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }
};

/// Times `fn` as a span of `name` on `tracer` (when tracing) and as a call
/// sample of `rep`.
template <typename Fn>
auto timed_call(Tracer* tracer, Rep& rep, const char* name, Fn&& fn) {
  const Scope scope{tracer, name};
  const double t0 = tracer != nullptr ? now_us() : 0.0;
  auto result = fn();
  if (tracer != nullptr) rep.call_us.push_back(now_us() - t0);
  return result;
}

// --- serve -----------------------------------------------------------------

/// Open-loop serving on the default 16x16 wafer below, at and past the SLO
/// knee: the only workload that runs sim::EventEngine at millions of
/// events, with the HostStack hit path and cached autotuner picks inside.
class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    serve::ServingParams p = params(0, 0);
    p.horizon = Duration::zero();
    p.drain = Duration::zero();
    (void)serve::run_serving(p);
  }

  Rep rep(Tracer* tracer, bool) override {
    Rep rep;
    std::uint64_t met = 0;
    std::uint64_t offered = 0;
    std::uint64_t host_hits = 0;
    double stall_ms = 0.0;
    double host_reconfig_ms = 0.0;
    std::vector<double> low_rate_latencies;
    for (std::size_t r = 0; r < kRates.size(); ++r) {
      for (std::size_t s = 0; s < kSeedsPerRate; ++s) {
        const serve::ServingParams p = params(r, s);
        const serve::ServingReport out =
            timed_call(tracer, rep, kSpans[r], [&] { return serve::run_serving(p); });
        ++rep.calls;
        rep.ops += out.offered;
        rep.digest = fabric::hash_mix(rep.digest, out.digest);
        rep.check(out.offered == out.completed + out.abandoned + out.in_flight_at_end,
                  "serve: offered != completed + abandoned + in_flight_at_end");
        met += out.met_slo;
        offered += out.offered;
        if (tracer == nullptr) continue;
        if (r == 0) {
          low_rate_latencies.insert(low_rate_latencies.end(), out.latencies.begin(),
                                out.latencies.end());
        }
        auto& l = rep.layer;
        l["serve.abandoned"] += static_cast<double>(out.abandoned);
        l["serve.rounds"] += static_cast<double>(out.rounds);
        l["serve.expert_sends"] += static_cast<double>(out.expert_sends);
        l["serve.expert_ring_rounds"] += static_cast<double>(out.expert_ring_rounds);
        l["serve.kv_migrations"] += static_cast<double>(out.kv_migrations);
        l["serve.kv_striped"] += static_cast<double>(out.kv_striped);
        l["serve.send_failures"] += static_cast<double>(out.send_failures);
        l["serve.repairs"] += static_cast<double>(out.repairs);
        l["serve.repair_failures"] += static_cast<double>(out.repair_failures);
        l["serve.churn_flushes"] += static_cast<double>(out.churn_flushes);
        l["serve.replicas_offline"] += static_cast<double>(out.replicas_offline);
        l["fault.fault_events"] += static_cast<double>(out.fault_events);
        l["fault.flap_episodes"] += static_cast<double>(out.flap_episodes);
        l["fault.quarantines"] += static_cast<double>(out.quarantines);
        l["fault.suppressed_repairs"] += static_cast<double>(out.suppressed_repairs);
        l["fault.transient_repair_failures"] +=
            static_cast<double>(out.transient_repair_failures);
        l["core.host_messages"] += static_cast<double>(out.host.messages);
        l["core.host_evictions"] += static_cast<double>(out.host.evictions);
        host_hits += out.host.hits;
        host_reconfig_ms += out.host.reconfig_time.to_millis();
        stall_ms += out.stall_time.to_millis();
      }
    }
    if (tracer != nullptr) {
      auto& l = rep.layer;
      l["serve.slo_attainment"] = ratio(met, offered);
      l["serve.p99_ms"] = 1e3 * percentile(low_rate_latencies, 99.0);
      l["serve.stall_ms"] = stall_ms;
      l["core.host_hit_ratio"] =
          ratio(host_hits, static_cast<std::uint64_t>(l["core.host_messages"]));
      l["core.host_reconfig_ms"] = host_reconfig_ms;
    }
    return rep;
  }

 private:
  static constexpr std::array<double, 3> kRates{1.0e6, 1.5e6, 2.0e6};
  static constexpr std::array<const char*, 3> kSpans{
      "serve.run_1000k", "serve.run_1500k", "serve.run_2000k"};
  static constexpr std::size_t kSeedsPerRate = 2;

  [[nodiscard]] serve::ServingParams params(std::size_t rate, std::size_t s) const {
    serve::ServingParams p;  // defaults: 16x16 wafer, accelerated MTBF, no gray
    p.traffic.arrival_rate = kRates[rate];
    p.horizon = Duration::millis(100.0);
    p.drain = Duration::millis(20.0);
    p.seed = util::task_seed(seed_, rate * kSeedsPerRate + s);
    return p;
  }

  std::uint64_t seed_;
};

// --- cluster ---------------------------------------------------------------

/// The paper's pod (64 racks / 4096 chips) under Poisson slice jobs, chip
/// faults and flapping chips, photonic morphing vs electrical-only: the only
/// workload that exercises topo::SliceAllocator, morph harvesting, the OCS
/// port pool and the parallel sweep engine.
class ClusterWorkload final : public Workload {
 public:
  explicit ClusterWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    cluster::ClusterParams p = config(1).base;
    p.horizon = Duration::zero();
    p.drain = Duration::zero();
    (void)cluster::run_cluster(p);
  }

  Rep rep(Tracer* tracer, bool warmup) override {
    return tracer == nullptr ? sweep(warmup ? 1 : 2) : traced(*tracer);
  }

  [[nodiscard]] std::size_t threads() const override { return 2; }

 private:
  /// One MTBF point, one trial, both policies: the sweep's two tasks.  The
  /// warm-up runs them serially, so comparing its digest with the measured
  /// reps' checks that the sweep is thread-count invariant.
  [[nodiscard]] cluster::ClusterSweepConfig config(unsigned threads) const {
    cluster::ClusterSweepConfig c;  // default ClusterConfig: 64 racks
    c.base.arrival_rate_per_s = 16.0;
    c.base.horizon = Duration::seconds(240.0);
    c.base.drain = Duration::seconds(240.0);
    c.base.mtbf_hours = 1.0;
    c.base.flap_rate_per_hour = 240.0;
    c.base.gray_hysteresis = true;
    c.base.seed = seed_;
    c.mtbf_points = {1.0};
    c.trials = 1;
    c.threads = threads;
    return c;
  }

  Rep sweep(unsigned threads) {
    Rep rep;
    const cluster::ClusterSweepReport out = cluster::run_cluster_sweep(config(threads));
    rep.calls = 2;
    rep.digest = out.digest;
    rep.ops = out.points[0].offered + out.points[1].offered;
    rep.check(out.points[0].accepted_load_mean > out.points[1].accepted_load_mean,
              "cluster: photonic accepted load not above electrical");
    return rep;
  }

  /// The sweep's two tasks run directly through run_cluster (with the
  /// sweep's task seed) on two threads, so each policy gets its own span.
  Rep traced(Tracer& tracer) {
    Rep rep;
    const cluster::ClusterSweepConfig c = config(2);
    std::array<cluster::ClusterReport, 2> out;
    std::array<double, 2> start{};
    std::array<double, 2> end{};
    const auto run = [&](std::size_t i) {
      cluster::ClusterParams p = c.base;
      p.mtbf_hours = c.mtbf_points[0];
      p.policy = i == 0 ? cluster::SchedulerPolicy::kPhotonicMorph
                        : cluster::SchedulerPolicy::kElectricalOnly;
      p.seed = util::task_seed(c.base.seed, 0);
      start[i] = now_us();
      out[i] = cluster::run_cluster(p);
      end[i] = now_us();
    };
    {
      std::jthread electrical{run, 1};
      run(0);
    }
    tracer.add("cluster.run_photonic", start[0], end[0], 0);
    tracer.add("cluster.run_electrical", start[1], end[1], 1);
    const cluster::ClusterReport& ph = out[0];
    const cluster::ClusterReport& el = out[1];
    rep.calls = 2;
    rep.call_us = {end[0] - start[0], end[1] - start[1]};
    rep.digest = fabric::hash_mix(fabric::hash_mix(0, ph.digest), el.digest);
    rep.ops = ph.offered + el.offered;
    rep.check(ph.accepted_load() > el.accepted_load(),
              "cluster: photonic accepted load not above electrical");

    auto& l = rep.layer;
    l["cluster.accepted_load"] = ph.accepted_load();
    l["cluster.accepted_gain"] = ph.accepted_load() - el.accepted_load();
    l["cluster.aborted"] = static_cast<double>(ph.aborted);
    l["cluster.morphs"] = static_cast<double>(ph.morphs);
    l["cluster.morph_aborts"] = static_cast<double>(ph.morph_aborts);
    l["cluster.morph_deferrals"] = static_cast<double>(ph.morph_deferrals);
    l["cluster.respares"] = static_cast<double>(ph.respares);
    l["cluster.inplace_repairs"] = static_cast<double>(ph.inplace_repairs);
    l["cluster.elastic_shrinks"] = static_cast<double>(ph.elastic_shrinks);
    l["cluster.requeues"] = static_cast<double>(ph.requeues + el.requeues);
    l["cluster.migrations"] = static_cast<double>(el.migrations);
    l["cluster.queue_p99_s"] = ph.queue_delay_p99_s;
    l["cluster.frag_stranding"] = ph.frag_stranding_avg;
    l["cluster.utilization"] = ph.utilization_avg;
    l["fault.fault_events"] = static_cast<double>(ph.fault_events);
    l["fault.flap_episodes"] = static_cast<double>(ph.flap_events);
    l["fault.quarantines"] = static_cast<double>(ph.chip_quarantines);
    l["fault.suppressed_repairs"] = static_cast<double>(ph.suppressed_repairs);
    l["runtime.flap_repairs"] = static_cast<double>(ph.flap_repairs);
    for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
      l["runtime.recovered_by_rung" + std::to_string(k + 1)] =
          static_cast<double>(ph.recovered_by[k]);
    }
    return rep;
  }

  std::uint64_t seed_;
};

// --- train_gray --------------------------------------------------------------

/// A 56-chip training ring under flapping links, the hysteresis controller
/// against the naive one: the repair ladder (drive_recovery ->
/// escalate_repair -> PlanCache::route_for) and fault::FlapDamper do the
/// work, with no EventEngine underneath.  Permanent faults are off: their
/// host cost grows with the faults already absorbed, so it varies several
/// fold from seed to seed, while flap episodes are many small independent
/// events.
class TrainGrayWorkload final : public Workload {
 public:
  explicit TrainGrayWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    runtime::RunConfig c = config(true, 0);
    c.iterations = 0;
    runtime::TrainingRun run{c};
    (void)run.run();
  }

  Rep rep(Tracer* tracer, bool) override {
    Rep rep;
    std::array<double, 2> goodput{};
    std::uint64_t tune_hits = 0;
    std::uint64_t tune_lookups = 0;
    std::vector<double> recover;
    auto& l = rep.layer;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
      for (std::size_t arm = 0; arm < 2; ++arm) {
        const bool hysteresis = arm == 0;
        runtime::TrainingRun run{config(hysteresis, trial)};
        const char* span = hysteresis ? "runtime.run_hysteresis" : "runtime.run_naive";
        const runtime::RunReport r =
            timed_call(tracer, rep, span, [&] { return run.run(); });
        ++rep.calls;
        rep.ops += r.iterations_completed;
        rep.digest = fabric::hash_mix(rep.digest, digest(r));
        rep.check(r.iterations_completed == kIterations,
                  "train_gray: a run did not complete every iteration");
        goodput[arm] += r.goodput();
        if (tracer == nullptr) continue;

        tune_hits += run.tuner().hits();
        tune_lookups += run.tuner().hits() + run.tuner().misses();
        recover.insert(recover.end(), r.recover_seconds.begin(), r.recover_seconds.end());
        l["runtime.flap_repairs"] += static_cast<double>(r.flap_repairs);
        l["runtime.rollbacks"] += static_cast<double>(r.rollbacks);
        l["runtime.elastic_shrinks"] += static_cast<double>(r.elastic_shrinks);
        l["runtime.misclassifications"] += static_cast<double>(r.misclassifications);
        l["runtime.lost_redo_s"] += r.lost.redo.to_seconds();
        l["runtime.lost_detect_s"] += r.lost.detection.to_seconds();
        l["runtime.lost_recovery_s"] += r.lost.recovery.to_seconds();
        l["runtime.flap_stall_s"] += r.flap_stall.to_seconds();
        for (std::size_t k = 0; k < routing::kRepairRungCount; ++k) {
          l["runtime.recovered_by_rung" + std::to_string(k + 1)] +=
              static_cast<double>(r.recovered_by[k]);
        }
        l["fault.fault_events"] += static_cast<double>(r.fault_events);
        l["fault.flap_episodes"] += static_cast<double>(r.flap_episodes);
        l["fault.quarantines"] += static_cast<double>(r.quarantines);
        l["fault.suppressed_repairs"] += static_cast<double>(r.suppressed_repairs);
        l["fault.transient_repair_failures"] +=
            static_cast<double>(r.transient_repair_failures);
      }
    }
    rep.check(goodput[0] > goodput[1], "train_gray: hysteresis goodput not above naive");
    if (tracer == nullptr) return rep;

    const double tail = lpbench::tail_percentile(recover.size());
    l["runtime.recoveries"] = static_cast<double>(recover.size());
    l["runtime.recover_tail_pct"] = tail;
    l["runtime.recover_tail_ms"] = tail > 0.0 ? 1e3 * percentile(recover, tail) : 0.0;
    l["train.goodput"] = goodput[0] / kTrials;
    l["train.goodput_naive"] = goodput[1] / kTrials;
    l["collective.tune_hit_ratio"] = ratio(tune_hits, tune_lookups);
    l["collective.picks"] = static_cast<double>(tune_lookups);
    return rep;
  }

 private:
  /// Four independent trials of 500 iterations per controller: the rep's
  /// host time averages over four flap timelines.
  static constexpr std::size_t kTrials = 4;
  static constexpr std::uint32_t kIterations = 500;

  /// The gray-failure bench's controller setup (50 us backoff base, 50%
  /// jitter) at 400 flaps per chip-hour.  Both controllers of a trial face
  /// one timeline.
  [[nodiscard]] runtime::RunConfig config(bool hysteresis, std::size_t trial) const {
    runtime::RunConfig c;  // 2 x 28-tile ring = 56 chips
    c.iterations = kIterations;
    c.mtbf_hours = 1e9;
    c.flap_rate_per_hour = 400.0;
    c.recovery.rung_backoff.base = Duration::micros(50.0);
    c.recovery.rung_backoff.jitter_fraction = 0.5;
    c.gray_hysteresis = hysteresis;
    c.seed = util::task_seed(seed_, trial);
    return c;
  }

  /// RunReport has no digest of its own: fold every outcome field.
  static std::uint64_t digest(const runtime::RunReport& r) {
    std::uint64_t h = 0;
    for (const std::uint64_t v :
         {std::uint64_t{r.iterations_completed}, std::uint64_t{r.ring_size_final},
          r.fault_events, r.detections, r.rollbacks, r.elastic_shrinks, r.migrations,
          r.flap_episodes, r.flap_transitions, r.flap_repairs, r.suppressed_repairs,
          r.quarantines, r.misclassifications, r.transient_repair_failures,
          bits(r.lost.redo.to_seconds()), bits(r.lost.detection.to_seconds()),
          bits(r.lost.recovery.to_seconds()), bits(r.flap_stall.to_seconds()),
          bits(r.wall_clock.to_seconds()), bits(r.ideal_time.to_seconds())}) {
      h = fabric::hash_mix(h, v);
    }
    for (const std::uint64_t v : r.recovered_by) h = fabric::hash_mix(h, v);
    for (const double s : r.recover_seconds) h = fabric::hash_mix(h, bits(s));
    return h;
  }

  std::uint64_t seed_;
};

// --- control_plane -----------------------------------------------------------

/// The driver calls the layer APIs itself, cycle by cycle: the only place
/// where planning, tuning, flow solving, host sends and the repair ladder
/// are each timed per call.
class ControlPlaneWorkload final : public Workload {
 public:
  explicit ControlPlaneWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override { const World world{seed_}; }

  Rep rep(Tracer* tracer, bool) override {
    Rep rep;
    World world{seed_};
    for (std::size_t k = 0; k < kCycles; ++k) {
      const double t0 = now_us();
      {
        const Scope scope{tracer, "bench.cycle"};
        cycle(world, k, tracer, rep);
      }
      if (tracer != nullptr) rep.call_us.push_back(now_us() - t0);
    }
    rep.ops = kCycles;
    if (tracer == nullptr) return rep;

    auto& l = rep.layer;
    const routing::PlanCacheStats& pc = world.cache.stats();
    l["routing.plan_hit_ratio"] = ratio(pc.hits, pc.hits + pc.misses);
    l["routing.plan_misses"] = static_cast<double>(pc.misses);
    l["routing.epoch_invalidations"] = static_cast<double>(pc.epoch_invalidations);
    l["routing.digest_mismatches"] = static_cast<double>(pc.digest_mismatches);
    l["routing.replay_aborts"] = static_cast<double>(pc.replay_aborts);
    l["routing.route_hit_ratio"] = ratio(pc.route_hits, pc.route_hits + pc.route_misses);
    const std::uint64_t picks = world.tuner.hits() + world.tuner.misses();
    l["collective.picks"] = static_cast<double>(picks);
    l["collective.tune_hit_ratio"] = ratio(world.tuner.hits(), picks);
    l["sim.flow_runs"] = static_cast<double>(kCycles);
    const core::HostStackStats& hs = world.host.stats();
    l["core.host_messages"] = static_cast<double>(hs.messages);
    l["core.host_hit_ratio"] = hs.hit_rate();
    l["core.host_evictions"] = static_cast<double>(hs.evictions);
    l["core.host_reconfig_ms"] = hs.reconfig_time.to_millis();
    l["fault.fault_events"] = static_cast<double>(world.faults_applied);
    l["runtime.recoveries"] = static_cast<double>(world.probes);
    l["runtime.recovered_ratio"] = ratio(world.recovered, world.probes);
    for (std::size_t r = 0; r < routing::kRepairRungCount; ++r) {
      l["runtime.recovered_by_rung" + std::to_string(r + 1)] =
          static_cast<double>(world.recovered_by[r]);
    }
    return rep;
  }

 private:
  static constexpr std::size_t kCycles = 1024;
  static constexpr std::size_t kSets = 8;
  static constexpr std::size_t kDemandsPerSet = 128;
  static constexpr std::size_t kGroupSize = 32;
  static constexpr std::size_t kSendsPerSource = 16;
  /// A fault probe every kProbeEvery cycles bumps the wafer epoch, so every
  /// set misses the plan cache once per kProbeEvery cycles: 25% misses.
  static constexpr std::size_t kProbeEvery = 32;
  static constexpr std::int32_t kGrid = 16;
  static constexpr std::uint32_t kTiles = kGrid * kGrid;

  /// One host-stack source and the peers it cycles through.
  struct Source {
    fabric::GlobalTile tile{};
    std::vector<fabric::GlobalTile> peers;
  };

  /// Everything a rep mutates, rebuilt per rep so reps do identical work.
  struct World {
    explicit World(std::uint64_t seed)
        : wafer(wafer_config()),
          cache(wafer),
          host_fabric(host_config()),
          host(host_fabric),
          injector(wafer, {}, util::task_seed(seed, 1)),
          flow(wafer.per_wavelength_rate()) {
      Rng rng{util::task_seed(seed, 0)};
      const auto tile = [&] {
        const auto id = static_cast<fabric::TileId>(rng.uniform_index(kTiles));
        return fabric::GlobalTile{0, id};
      };
      // The plan cache's recurring demand sets (bench_circuit_churn's
      // shape) and the AllReduce group over each set's first sources.
      for (std::size_t s = 0; s < kSets; ++s) {
        std::vector<routing::Demand> demands;
        std::vector<topo::TpuId> group;
        for (std::size_t i = 0; i < kDemandsPerSet; ++i) {
          routing::Demand d;
          d.src = tile();
          do {
            d.dst = tile();
          } while (d.dst == d.src);
          demands.push_back(d);
          const auto id = static_cast<topo::TpuId>(d.src.tile);
          if (group.size() < kGroupSize &&
              std::find(group.begin(), group.end(), id) == group.end()) {
            group.push_back(id);
          }
        }
        sets.push_back(std::move(demands));
        groups.push_back(std::move(group));
      }
      // Host-stack sources on their own fabric, with pairwise-distinct
      // tiles: two keep a working set under max_peers (hits), two cycle
      // through twice max_peers (every send evicts and reconnects).
      std::set<fabric::TileId> used;
      const auto fresh = [&] {
        fabric::GlobalTile t = tile();
        while (!used.insert(t.tile).second) t = tile();
        return t;
      };
      const std::uint32_t max_peers = core::HostStackParams{}.max_peers;
      for (const std::uint32_t peers : {max_peers / 2, max_peers / 2, 2 * max_peers,
                                        2 * max_peers}) {
        Source src;
        src.tile = fresh();
        for (std::uint32_t p = 0; p < peers; ++p) src.peers.push_back(fresh());
        sources.push_back(std::move(src));
      }
      probe_a = tile();
      do {
        probe_b = tile();
      } while (probe_b == probe_a);
      spares = {tile(), tile()};
    }

    static fabric::FabricConfig wafer_config() {
      fabric::FabricConfig c;  // bench_circuit_churn's wafer
      c.wafer.rows = kGrid;
      c.wafer.cols = kGrid;
      c.wafer.tile.tx_wavelengths = 64;
      c.wafer.tile.rx_wavelengths = 64;
      return c;
    }
    static fabric::FabricConfig host_config() {
      fabric::FabricConfig c;
      c.wafer.rows = kGrid;
      c.wafer.cols = kGrid;
      return c;
    }

    fabric::Fabric wafer;
    routing::PlanCache cache;
    /// Separate fabric, so the LRU's circuits never move the wafer's
    /// ledger digest (the plan cache's revalidation key).
    fabric::Fabric host_fabric;
    core::HostStack host;
    coll::Autotuner tuner;
    fault::FaultInjector injector;
    sim::FlowSimulator flow;
    std::vector<std::vector<routing::Demand>> sets;
    std::vector<std::vector<topo::TpuId>> groups;
    std::vector<Source> sources;
    fabric::GlobalTile probe_a{};
    fabric::GlobalTile probe_b{};
    std::vector<fabric::GlobalTile> spares;
    /// Placed-circuit count of each set's first placement.
    std::array<std::size_t, kSets> placed{};
    std::array<bool, kSets> seen{};
    std::uint64_t probes{0};
    std::uint64_t recovered{0};
    std::uint64_t faults_applied{0};
    std::array<std::uint64_t, routing::kRepairRungCount> recovered_by{};
  };

  static void cycle(World& w, std::size_t k, Tracer* tracer, Rep& rep) {
    const std::size_t s = k % kSets;

    // Plan, then tear down.  The span name (hit or miss) is known only once
    // the call returns, so the span is added after the fact.
    const std::uint64_t hits_before = w.cache.stats().hits;
    const double t0 = tracer != nullptr ? now_us() : 0.0;
    const routing::PlanReport plan = w.cache.place_all(w.sets[s]);
    if (tracer != nullptr) {
      tracer->add(w.cache.stats().hits > hits_before ? "routing.place_hit"
                                                     : "routing.place_miss",
                  t0, now_us(), 0);
    }
    ++rep.calls;
    if (!plan.complete()) ++rep.failed;
    if (!w.seen[s]) {
      w.seen[s] = true;
      w.placed[s] = plan.placed.size();
    }
    rep.check(plan.placed.size() == w.placed[s],
              "control_plane: a plan hit and miss placed different counts");
    rep.digest = fabric::hash_mix(rep.digest, plan.placed.size());
    rep.digest = fabric::hash_mix(rep.digest, plan.mzis_programmed);
    rep.digest = fabric::hash_mix(rep.digest, bits(plan.reconfig_latency.to_seconds()));
    {
      const Scope scope{tracer, "routing.release"};
      w.cache.release_all(plan);
    }
    ++rep.calls;
    rep.check(w.wafer.active_circuits() == 0,
              "control_plane: circuits left on the wafer after release_all");

    // Tune, build and simulate an AllReduce over the set's group.  The
    // tuner keys on the group's health, which the probe below leaves
    // unchanged (its faults are reverted), hence a constant epoch.
    const DataSize bytes = DataSize::kib(64.0 * static_cast<double>(1u << (k % 15)));
    const Bandwidth rate = w.wafer.per_wavelength_rate();
    const Duration reconfig = Duration::micros(3.7);
    coll::Decision pick;
    {
      const Scope scope{tracer, "collective.pick"};
      pick = w.tuner.pick(coll::CollOp::kAllReduce, bytes, w.groups[s], rate, reconfig, 0);
    }
    coll::Schedule schedule;
    {
      const Scope scope{tracer, "collective.build"};
      schedule = w.tuner.build(coll::CollOp::kAllReduce, pick.algo, w.groups[s], bytes,
                               rate, reconfig);
    }
    sim::ScheduleResult flow;
    {
      const Scope scope{tracer, "sim.flow_run"};
      flow = w.flow.run(schedule);
    }
    rep.calls += 3;
    rep.digest = fabric::hash_mix(rep.digest, static_cast<std::uint64_t>(pick.algo));
    rep.digest = fabric::hash_mix(rep.digest, bits(flow.total.to_seconds()));

    // Host sends: kSendsPerSource from each source, round-robin over its
    // peers.
    for (const Source& src : w.sources) {
      const Scope scope{tracer, "core.host_send"};
      for (std::size_t i = 0; i < kSendsPerSource; ++i) {
        const auto latency = w.host.send(src.tile, src.peers[i % src.peers.size()],
                                         DataSize::kib(256.0));
        ++rep.calls;
        if (!latency) {
          ++rep.failed;
          continue;
        }
        rep.digest = fabric::hash_mix(rep.digest, bits(latency.value().to_seconds()));
      }
    }

    if (k % kProbeEvery == kProbeEvery - 1) probe(w, k / kProbeEvery, tracer, rep);
  }

  /// ClusterScheduler::price_recovery's probe, with the sampled faults also
  /// applied to the wafer: connect a probe circuit, apply the faults, climb
  /// the repair ladder for the probe, tear everything down, revert.
  static void probe(World& w, std::size_t index, Tracer* tracer, Rep& rep) {
    const std::vector<fault::Fault> faults = w.injector.sample_trial(index);
    if (faults.empty()) return;
    auto circuit = w.wafer.connect(w.probe_a, w.probe_b, 1);
    ++rep.calls;
    if (!circuit) {
      ++rep.failed;
      return;
    }
    fault::FaultSet set;
    set.add_all(faults);
    {
      const Scope scope{tracer, "fault.apply"};
      set.apply_to(w.wafer);
    }
    w.faults_applied += faults.size();

    routing::DegradedCircuit victim;
    victim.id = circuit.value();
    switch (faults.front().kind) {
      case fault::FaultKind::kMziStuck:
      case fault::FaultKind::kFiberCut: victim.hard_down = true; break;
      case fault::FaultKind::kMziDrift:
      case fault::FaultKind::kWaveguideLoss: victim.budget_failed = true; break;
      case fault::FaultKind::kLaserLoss: victim.dead_lasers = 2; break;
      case fault::FaultKind::kChipDeath: victim.src_dead = true; break;
    }
    routing::EscalationOptions options;
    options.wavelengths = 1;
    options.cache = &w.cache;
    if (victim.src_dead) options.spare_candidates = w.spares;
    runtime::RecoveryResult result;
    {
      const Scope scope{tracer, "runtime.recover"};
      result = runtime::drive_recovery(w.wafer, victim, runtime::RecoveryPolicy{}, options);
    }
    ++w.probes;
    if (result.recovered) {
      ++w.recovered;
      ++w.recovered_by[routing::rung_index(result.rung)];
    }
    const std::uint64_t outcome =
        result.recovered ? 1 + routing::rung_index(result.rung) : 0;
    rep.digest = fabric::hash_mix(rep.digest, outcome);
    rep.digest = fabric::hash_mix(rep.digest, bits(result.total().to_seconds()));

    w.wafer.disconnect(circuit.value());
    for (const fabric::CircuitId id : result.circuits) w.wafer.disconnect(id);
    {
      const Scope scope{tracer, "fault.revert"};
      set.revert(w.wafer);
    }
    rep.calls += 3;
    rep.check(w.wafer.active_circuits() == 0,
              "control_plane: circuits left on the wafer after the fault probe");
  }

  std::uint64_t seed_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "serve") return std::make_unique<ServeWorkload>(seed);
  if (name == "cluster") return std::make_unique<ClusterWorkload>(seed);
  if (name == "train_gray") return std::make_unique<TrainGrayWorkload>(seed);
  if (name == "control_plane") return std::make_unique<ControlPlaneWorkload>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string trace_out;
  std::string json_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lpbench: %s\n"
               "usage: lpbench --workload serve|cluster|train_gray|control_plane "
               "--seed N [--seconds S] [--trace 0|1] [--trace-out FILE] [--json FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--json") {
      o.json_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Timing builds only: assertions compiled in (no NDEBUG) or a sanitizer
/// would measure the instrumentation, not the library.
const char* untimeable_build() {
#if !defined(NDEBUG)
  return "assertions are enabled (Debug build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  return nullptr;
#endif
}

/// The process's resident-set high-water mark (VmHWM).  Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launcher's own
/// footprint does not leak in.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Pins the process to the CPUs where the library currently runs fastest.
/// On a shared host a vCPU whose physical core is busy with another tenant
/// runs the library up to ~1.6x slower, and which vCPU that is changes over
/// minutes; an unpinned rep runs wherever the scheduler puts it.  Before
/// every rep the driver times the workload's set-up for a few milliseconds
/// on each allowed CPU and pins itself, and so the threads it starts, to the
/// fastest ones.
class CpuPicker {
 public:
  CpuPicker() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) CPU_ZERO(&allowed_);
  }

  /// Pins to the `n` fastest allowed CPUs; returns the first one, or -1
  /// when affinity cannot be set.
  int pin_fastest(std::size_t n, Workload& workload) {
    std::vector<std::pair<double, std::size_t>> speed;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pin({cpu})) continue;
      std::vector<double> us;
      const double start = now_us();
      while (us.size() < 3 || now_us() - start < kProbeUs) {
        const double t0 = now_us();
        workload.setup();
        us.push_back(now_us() - t0);
      }
      speed.emplace_back(percentile(us, 50.0), cpu);
    }
    if (speed.empty()) return -1;
    std::sort(speed.begin(), speed.end());
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < std::min(n, speed.size()); ++i) {
      chosen.push_back(speed[i].second);
    }
    return pin(chosen) ? static_cast<int>(chosen.front()) : -1;
  }

 private:
  static constexpr double kProbeUs = 5000.0;

  static bool pin(const std::vector<std::size_t>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const std::size_t cpu : cpus) CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }

  cpu_set_t allowed_;
};

struct Result {
  std::string name;
  std::string unit;
  std::vector<double> samples;
};

/// Per-layer metrics of the traced reps: span shares and driver times from
/// the spans, counters from the last rep (reps are identical, as checked by
/// their digests).
std::vector<Result> layer_results(const Tracer& tracer, const std::vector<Rep>& traced,
                                  const std::vector<double>& untraced_wall,
                                  const std::vector<double>& traced_wall) {
  const std::vector<lpbench::Span>& spans = tracer.spans();
  const std::vector<double> self = lpbench::self_times_us(spans);
  const int reps = static_cast<int>(traced.size());
  // Per rep: rep span duration, self time of driver spans, self time by name.
  std::vector<double> rep_us(static_cast<std::size_t>(reps), 0.0);
  std::vector<double> driver_us(static_cast<std::size_t>(reps), 0.0);
  std::vector<std::map<std::string, double>> by_name(static_cast<std::size_t>(reps));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto r = static_cast<std::size_t>(spans[i].rep);
    const std::string name = spans[i].name;
    if (name == "bench.rep") rep_us[r] += spans[i].duration_us();
    if (name.rfind("bench.", 0) == 0) driver_us[r] += self[i];
    by_name[r][name] += self[i];
  }

  std::map<std::string, std::vector<double>> samples;
  for (int r = 0; r < reps; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    samples["bench.rep_s"].push_back(rep_us[ri] * 1e-6);
    samples["bench.self_s"].push_back(driver_us[ri] * 1e-6);
    for (const MetricDef& m : kPerLayer) {
      const std::string metric = m.name;
      if (metric.size() < 4 || metric.compare(metric.size() - 4, 4, "_pct") != 0) continue;
      const auto it = by_name[ri].find(metric.substr(0, metric.size() - 4));
      if (it != by_name[ri].end()) {
        samples[metric].push_back(100.0 * it->second / rep_us[ri]);
      }
    }
  }
  std::vector<double> calls;
  for (const Rep& rep : traced) {
    calls.insert(calls.end(), rep.call_us.begin(), rep.call_us.end());
  }
  double tail = lpbench::tail_percentile(calls.size());
  if (tail == 0.0) tail = 100.0;  // too few calls for a percentile: the max
  samples["bench.calls"] = {static_cast<double>(traced.back().calls)};
  samples["bench.call_p50_us"] = {percentile(calls, 50.0)};
  samples["bench.call_tail_us"] = {percentile(calls, tail)};
  samples["bench.call_tail_pct"] = {tail};
  samples["bench.trace_overhead"] = {summarize(traced_wall).median /
                                         summarize(untraced_wall).median -
                                     1.0};
  for (const auto& [name, value] : traced.back().layer) samples[name] = {value};

  std::vector<Result> out;
  for (const MetricDef& m : kPerLayer) {
    const auto it = samples.find(m.name);
    out.push_back(Result{m.name, m.unit,
                         it != samples.end() ? it->second : std::vector<double>{0.0}});
    if (it != samples.end()) samples.erase(it);
  }
  for (const auto& entry : samples) {
    std::fprintf(stderr, "lpbench: metric %s is not in the per-layer table\n",
                 entry.first.c_str());
    std::exit(3);
  }
  return out;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

/// The ledger record: header, then median / quartiles / n of every metric.
std::string record_json(const Options& o, const std::vector<Result>& results,
                        bool correct, std::uint64_t attempted, std::uint64_t failed,
                        std::uint64_t digest) {
  std::string out = "{\"header\":{\"git_rev\":\"" LPBENCH_GIT_REV
                    "\",\"build_type\":\"" LPBENCH_BUILD_TYPE
                    "\",\"compiler\":\"" __VERSION__ "\",\"nproc\":" +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ",\"workload\":\"" + o.workload +
                    "\",\"seed\":" + std::to_string(o.seed) +
                    ",\"seconds\":" + fmt(o.seconds) +
                    ",\"trace\":" + (o.trace ? "1" : "0") +
                    "},\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"digest\":\"" +
                    std::to_string(digest) + "\",\"metrics\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Summary s = summarize(results[i].samples);
    out += (i == 0 ? "" : ",");
    out += "{\"name\":\"" + results[i].name + "\",\"unit\":\"" + results[i].unit +
           "\",\"workload\":\"" + o.workload + "\",\"kind\":\"" +
           (o.trace ? "layer" : "e2e") + "\",\"median\":" + fmt(s.median) +
           ",\"q1\":" + fmt(s.q1) + ",\"q3\":" + fmt(s.q3) +
           ",\"n\":" + std::to_string(s.n) + "}";
  }
  return out + "]}\n";
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o.workload, o.seed);
  if (!workload) usage(("unknown workload " + o.workload).c_str());
  std::printf("lpbench %s seed=%llu seconds=%g trace=%d rev=%s build=%s nproc=%u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, LPBENCH_GIT_REV, LPBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());

  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Rep& rep, const char* pass) {
    for (const std::string& e : rep.errors) errors.push_back(std::string(pass) + ": " + e);
    attempted += rep.calls;
    failed += rep.failed + (rep.errors.empty() ? 0 : 1);
  };

  CpuPicker cpus;
  cpus.pin_fastest(workload->threads(), *workload);
  const Rep warm = workload->rep(nullptr, true);
  account(warm, "warm-up");
  attempted = 0;  // the warm-up's calls are not part of the measurement
  failed = 0;

  // Set-up, after the warm-up so the clock and caches are warm: repeated
  // for at least half a second, so its median is steady even when one
  // build is sub-millisecond.
  std::vector<double> setup_s;
  cpus.pin_fastest(1, *workload);
  const double setup_start = now_us();
  while (setup_s.size() < 5 || now_us() - setup_start < 0.5e6) {
    const double t0 = now_us();
    workload->setup();
    setup_s.push_back((now_us() - t0) * 1e-6);
  }

  Tracer tracer;
  std::vector<double> wall;
  std::vector<double> ops_per_s;
  std::vector<double> traced_wall;
  std::vector<int> rep_cpu;
  std::vector<Rep> traced;
  const double deadline = now_us() + o.seconds * 1e6;
  while (wall.size() < 3 || now_us() < deadline) {
    rep_cpu.push_back(cpus.pin_fastest(workload->threads(), *workload));
    const double t0 = now_us();
    const Rep rep = workload->rep(nullptr, false);
    const double dt = (now_us() - t0) * 1e-6;
    wall.push_back(dt);
    ops_per_s.push_back(static_cast<double>(rep.ops) / dt);
    account(rep, "untraced");
    if (rep.digest != warm.digest) {
      errors.push_back("untraced: digest differs from warm-up");
    }
    if (!o.trace) continue;

    const int id = static_cast<int>(traced.size());
    tracer.set_rep(id);
    cpus.pin_fastest(workload->threads(), *workload);
    const double t1 = now_us();
    Rep traced_rep;
    {
      const Scope scope{&tracer, "bench.rep"};
      traced_rep = workload->rep(&tracer, false);
    }
    traced_wall.push_back((now_us() - t1) * 1e-6);
    account(traced_rep, "traced");
    if (traced_rep.digest != warm.digest) {
      errors.push_back("traced: digest differs from untraced");
    }
    traced.push_back(std::move(traced_rep));
  }

  std::vector<Result> results;
  if (o.trace) {
    results = layer_results(tracer, traced, wall, traced_wall);
    if (!o.trace_out.empty() &&
        !write_file(o.trace_out, lpbench::chrome_json(tracer.spans()))) {
      errors.push_back("cannot write " + o.trace_out);
    }
  } else {
    // The end-to-end metrics: every workload reports all of them.
    results = {{"setup_s", "s", setup_s},
               {"ops_per_s", "1/s", ops_per_s},
               {"peak_rss_mb", "MiB", {peak_rss_mb()}}};
  }

  const bool correct = errors.empty();
  for (const Result& r : results) {
    const Summary s = summarize(r.samples);
    std::printf("  %-34s %14.6g %-6s (q1 %.6g, q3 %.6g, n %zu)\n", r.name.c_str(), s.median,
                r.unit.c_str(), s.q1, s.q3, s.n);
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED %s\n", e.c_str());
  std::printf("checks: %s, digest %016llx, %zu measured reps\n", correct ? "pass" : "FAIL",
              static_cast<unsigned long long>(warm.digest), wall.size());
  std::printf("untraced rep wall_s:");
  for (std::size_t i = 0; i < wall.size(); ++i) {
    std::printf(" %.4f@cpu%d", wall[i], rep_cpu[i]);
  }
  std::printf("\n");
  if (!o.json_out.empty() &&
      !write_file(o.json_out,
                  record_json(o, results, correct, attempted, failed, warm.digest))) {
    std::fprintf(stderr, "lpbench: cannot write %s\n", o.json_out.c_str());
    return 1;
  }

  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + results[i].name + "\": {\"value\": " +
            fmt(summarize(results[i].samples).median) + ", \"unit\": \"" + results[i].unit +
            "\"}";
  }
  std::printf("%s}}\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (const char* why = untimeable_build()) {
    std::fprintf(stderr, "lpbench: refusing to run: %s\n", why);
    return 2;
  }
  // Fixed allocator policy.  By default glibc raises its mmap threshold as
  // large blocks are freed and trims the heap top whenever 128 KiB of it is
  // free, so whether a buffer is recycled or freshly page-faulted differs
  // from process to process.  On a virtual machine, where a page fault can
  // cost tens of microseconds, that made set-up time and peak RSS bimodal
  // across runs of the same workload.  Here blocks of 128 KiB and more are
  // always mapped (and unmapped when freed), and the heap is never trimmed.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return run(options);
}
