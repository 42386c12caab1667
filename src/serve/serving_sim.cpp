#include "serve/serving_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <deque>
#include <vector>

#include "collective/autotuner.hpp"
#include "runtime/fault_plane.hpp"
#include "sim/event_engine.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace lp::serve {

namespace {

using fabric::CircuitId;
using fabric::GlobalTile;

/// One request waiting in a replica's queue.
struct Request {
  double arrival{0.0};  ///< seconds
  std::uint32_t prefill_tokens{1};
  std::uint32_t prefill_left{1};
  std::uint32_t decode_left{1};
  std::size_t prefill_replica{0};
  bool migrate{false};
  /// KV-migration latency charged at admission, folded into the request's
  /// completion latency (the decode stream starts that much later).
  double extra{0.0};
};

/// A batched sequence, filed under the round it finishes in: all that its
/// completion reads.
struct Finishing {
  double arrival{0.0};
  double extra{0.0};
};

struct Replica {
  std::vector<GlobalTile> tiles;
  /// Flat tile ids of `tiles`, the member list the autotuner fingerprints.
  std::vector<topo::TpuId> ids;
  /// Autotuner::topology_fingerprint of `ids` at the host-circuit model.
  std::uint64_t fingerprint{0};
  /// Intra-replica backbone ring (weights/activations plane).  These are
  /// the circuits the health monitor diagnoses and the repair ladder
  /// rebuilds; HostStack traffic rides its own cached circuits.
  std::vector<CircuitId> backbone;
  std::deque<Request> queue;
  /// Sequences in the batch, counting any that never finish (prefill left
  /// with prefill_chunk == 0: they hold their slot for good).
  std::size_t active{0};
  /// Rounds run so far; round k retires finishing[k & (size - 1)].
  std::uint64_t rounds_run{0};
  /// Ring of per-round buckets, empty until the first admission.  Its
  /// power-of-two size is at least the largest rounds-to-finish filed so
  /// far, so each live bucket holds one round's sequences, in admission
  /// order: the order they complete in.
  std::vector<std::vector<Finishing>> finishing;
  double paused_until{0.0};
  std::uint32_t rotation{0};
  bool round_scheduled{false};
  bool online{true};
};

class ServingSim {
 public:
  explicit ServingSim(const ServingParams& params)
      : params_{params},
        fab_{params.fabric},
        host_{fab_, params.host},
        plane_{fab_, params.health, params.damper, params.gray_hysteresis},
        injector_{fab_, params.fault_model, util::task_seed(params.seed, 0)},
        gen_{params.traffic, params.replicas, params.seed},
        fault_rng_{util::task_seed(params.seed, 3)},
        gray_rng_{util::task_seed(params.seed, 4)} {
    tuner_rate_ = fab_.per_wavelength_rate() *
                  static_cast<double>(params.host.wavelengths_per_circuit);
    tuner_reconfig_ = fab_.reconfig().settle_latency();
  }

  ServingReport run();

 private:
  [[nodiscard]] double now_s() const { return engine_.now().to_seconds(); }

  void setup_replicas();
  void schedule_first_events();

  void arrival();
  void round(std::size_t r);
  void fault_event();
  void gray_event();
  void detection();

  void kick(std::size_t r, double at);
  void admit(std::size_t r);
  void enter_batch(Replica& rep, const Request& q);
  void complete(const Finishing& f, double done_t);
  void take_offline(std::size_t r);
  [[nodiscard]] std::size_t resolve_online(std::size_t preferred) const;

  ServingParams params_;
  fabric::Fabric fab_;
  core::HostStack host_;
  /// Fault overlays, diagnosis, the repair cache and the flap damper.
  runtime::FaultPlane plane_;
  fault::FaultInjector injector_;
  RequestGenerator gen_;
  Rng fault_rng_;
  Rng gray_rng_;
  sim::EventEngine engine_;
  /// Picks expert-exchange and KV-migration shapes per (size bucket,
  /// replica fingerprint, fabric epoch).  The rate/reconfig pair below is
  /// the host-circuit model the picks are evaluated against.
  coll::Autotuner tuner_;
  Bandwidth tuner_rate_{Bandwidth::zero()};
  Duration tuner_reconfig_{Duration::zero()};

  std::vector<Replica> replicas_;
  std::vector<double> latencies_;
  ServingReport report_;
};

void ServingSim::setup_replicas() {
  const auto& wafer = fab_.wafer(0);
  const auto tiles = static_cast<std::int32_t>(params_.tiles_per_replica);
  replicas_.resize(params_.replicas);
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    rep.tiles.reserve(params_.tiles_per_replica);
    for (std::int32_t t = 0; t < tiles; ++t) {
      rep.tiles.push_back(GlobalTile{
          0, wafer.tile_at({static_cast<std::int32_t>(r), t})});
      rep.ids.push_back(static_cast<topo::TpuId>(rep.tiles.back().tile));
    }
    rep.fingerprint =
        coll::Autotuner::topology_fingerprint(rep.ids, tuner_rate_, tuner_reconfig_);
    // Ring circuits t -> t+1 (the wrap link routes back across the row).
    for (std::size_t t = 0; t < rep.tiles.size(); ++t) {
      const auto next = (t + 1) % rep.tiles.size();
      auto c = fab_.connect(rep.tiles[t], rep.tiles[next],
                            params_.backbone_wavelengths);
      if (c.ok()) rep.backbone.push_back(c.value());
    }
  }
}

void ServingSim::schedule_first_events() {
  const double horizon = params_.horizon.to_seconds();
  const double first = gen_.next_interarrival().to_seconds();
  if (first <= horizon) {
    engine_.schedule_at(TimePoint::at_seconds(first), [this] { arrival(); });
  }
  // Strikes and flaps are confined to the arrival window so the drain tail
  // measures recovery, not fresh damage.
  const TimePoint until = TimePoint::at_seconds(horizon);
  const double chips =
      static_cast<double>(params_.replicas) * params_.tiles_per_replica;
  if (params_.mtbf_hours > 0.0) {
    sim::schedule_poisson(engine_, fault_rng_, chips / (params_.mtbf_hours * 3600.0),
                          until, [this] { fault_event(); });
  }
  sim::schedule_poisson(engine_, gray_rng_, chips * params_.flap_rate_per_hour / 3600.0,
                        until, [this] { gray_event(); });
}

std::size_t ServingSim::resolve_online(std::size_t preferred) const {
  for (std::size_t k = 0; k < replicas_.size(); ++k) {
    const std::size_t r = (preferred + k) % replicas_.size();
    if (replicas_[r].online) return r;
  }
  return replicas_.size();
}

void ServingSim::kick(std::size_t r, double at) {
  Replica& rep = replicas_[r];
  if (rep.round_scheduled || !rep.online) return;
  rep.round_scheduled = true;
  engine_.schedule_at(TimePoint::at_seconds(at), [this, r] { round(r); });
}

void ServingSim::arrival() {
  const double now = now_s();
  ++report_.offered;
  const RequestSpec spec = gen_.next_request();
  const std::size_t r = resolve_online(spec.replica);
  if (r == replicas_.size()) {
    ++report_.abandoned;  // every replica lost: offered load goes unserved
  } else {
    Request q;
    q.arrival = now;
    q.prefill_tokens = spec.prefill_tokens;
    q.prefill_left = spec.prefill_tokens;
    q.decode_left = spec.decode_tokens;
    const std::size_t pr = resolve_online(spec.prefill_replica);
    // A prefill host that died re-runs prefill locally: no migration flow.
    q.migrate = spec.migrate && pr < replicas_.size() && pr != r;
    q.prefill_replica = q.migrate ? pr : r;
    Replica& rep = replicas_[r];
    rep.queue.push_back(q);
    kick(r, std::max(now, rep.paused_until));
  }
  const double next = now + gen_.next_interarrival().to_seconds();
  if (next <= params_.horizon.to_seconds()) {
    engine_.schedule_at(TimePoint::at_seconds(next), [this] { arrival(); });
  }
}

void ServingSim::admit(std::size_t r) {
  Replica& rep = replicas_[r];
  while (rep.active < params_.batch_capacity && !rep.queue.empty()) {
    Request q = rep.queue.front();
    rep.queue.pop_front();
    if (q.migrate) {
      // Pull the KV cache from the prefill host before decoding.  The
      // autotuner decides the transfer shape: small prompts go as one bulk
      // lead-tile send, large ones stripe across parallel tile-pair
      // circuits (each stripe a cached host circuit; a miss pays
      // reconfiguration r, and under churn it is a miss — that is the
      // point).
      ++report_.kv_migrations;
      const Replica& src = replicas_[q.prefill_replica];
      const DataSize bytes =
          params_.traffic.kv_bytes_per_token *
          static_cast<double>(q.prefill_tokens);
      const std::array<topo::TpuId, 2> pair{src.ids[0], rep.ids[0]};
      const coll::Decision pick = tuner_.pick(coll::CollOp::kTransfer, bytes, pair,
                                              tuner_rate_, tuner_reconfig_, fab_.epoch());
      const auto ways = static_cast<std::uint32_t>(
          std::min<std::size_t>(tuner_.params().stripe_ways,
                                std::min(src.tiles.size(), rep.tiles.size())));
      if (pick.algo == coll::Algorithm::kStriped && ways > 1) {
        ++report_.kv_striped;
        const DataSize per_stripe = bytes / static_cast<double>(ways);
        double extra = 0.0;
        bool ok = true;
        for (std::uint32_t i = 0; i < ways && ok; ++i) {
          const auto sent = host_.send(src.tiles[i], rep.tiles[i], per_stripe);
          if (sent.ok()) {
            extra = std::max(extra, sent.value().to_seconds());
          } else {
            ok = false;
          }
        }
        if (ok) {
          q.extra = extra;  // stripes land in parallel; slowest one gates
          q.prefill_left = 0;
        } else {
          ++report_.send_failures;  // fabric too broken to migrate: re-prefill
        }
      } else {
        const auto sent = host_.send(src.tiles[0], rep.tiles[0], bytes);
        if (sent.ok()) {
          q.extra = sent.value().to_seconds();
          q.prefill_left = 0;  // prefill already ran remotely
        } else {
          ++report_.send_failures;  // fabric too broken to migrate: re-prefill
        }
      }
    }
    enter_batch(rep, q);
  }
}

/// Grows `ring` to `size` buckets (a larger power of two), re-filing each
/// bucket under its own round: the live rounds are the old size's worth
/// from `round` on.
void grow_ring(std::vector<std::vector<Finishing>>& ring, std::uint64_t round,
               std::size_t size) {
  std::vector<std::vector<Finishing>> grown(size);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const std::uint64_t due = round + ((i - round) & (ring.size() - 1));
    grown[due & (size - 1)] = std::move(ring[i]);
  }
  ring = std::move(grown);
}

void ServingSim::enter_batch(Replica& rep, const Request& q) {
  ++rep.active;
  // A sequence advances once per round from this one on: a prefill round
  // per chunk, then a decode round per token, and it finishes in its first
  // round when nothing is left.
  std::uint64_t prefill_rounds = 0;
  if (q.prefill_left > 0) {
    if (params_.prefill_chunk == 0) return;  // never finishes
    prefill_rounds = (std::uint64_t{q.prefill_left} + params_.prefill_chunk - 1) /
                     params_.prefill_chunk;
  }
  const std::uint64_t rounds = std::max<std::uint64_t>(1, prefill_rounds + q.decode_left);
  if (rounds > rep.finishing.size()) {
    grow_ring(rep.finishing, rep.rounds_run, std::bit_ceil(rounds));
  }
  rep.finishing[(rep.rounds_run + rounds - 1) & (rep.finishing.size() - 1)].push_back(
      Finishing{q.arrival, q.extra});
}

void ServingSim::complete(const Finishing& f, double done_t) {
  const double latency = done_t - f.arrival + f.extra;
  ++report_.completed;
  if (latency <= params_.slo.to_seconds()) ++report_.met_slo;
  latencies_.push_back(latency);
  report_.digest =
      fabric::hash_mix(report_.digest, std::bit_cast<std::uint64_t>(latency));
}

void ServingSim::round(std::size_t r) {
  Replica& rep = replicas_[r];
  rep.round_scheduled = false;
  if (!rep.online) return;
  const double now = now_s();
  if (now < rep.paused_until) {
    kick(r, rep.paused_until);  // repair ladder holds the replica
    return;
  }
  admit(r);
  if (rep.active == 0) return;  // idle; the next arrival re-kicks

  ++report_.rounds;
  const double active = static_cast<double>(rep.active);

  // MoE expert all-to-all: every tile exchanges its shard each round; the
  // round waits for the slowest exchange.  The autotuner picks the pattern
  // from the per-rotation-cycle exchange volume: rotation (fresh partner
  // each round — re-pairing circuit churn, lean bytes) vs the standing
  // next-neighbor ring (one pairing forever, this round's shard forwarded
  // `offset` hops, so bytes inflate by the hop count).  Steady state hits
  // the circuit cache either way; after fault-driven flushes each send
  // re-plans and pays r, which is how churn reaches the latency tail.
  // Partners cycle over offsets 1..partners, so no tile sends to itself and
  // a one-tile replica exchanges nothing.
  double comm = 0.0;
  const std::size_t tiles = rep.tiles.size();
  const auto partners = static_cast<std::uint32_t>(
      std::min<std::size_t>(std::max(params_.expert_peers, 1u), tiles > 0 ? tiles - 1 : 0));
  if (partners > 0) {
    const DataSize per_tile =
        params_.traffic.expert_bytes_per_token * (active / static_cast<double>(tiles));
    const coll::Decision pick = tuner_.pick_keyed(
        coll::CollOp::kAllToAll, per_tile * static_cast<double>(partners), rep.ids.size(),
        rep.fingerprint, tuner_rate_, tuner_reconfig_, fab_.epoch());
    const std::uint32_t offset = 1 + rep.rotation % partners;
    const bool ring = pick.algo == coll::Algorithm::kRing;
    if (ring) ++report_.expert_ring_rounds;
    const std::size_t hop = ring ? 1 : offset;
    const DataSize per_send =
        ring ? per_tile * static_cast<double>(offset) : per_tile;
    for (std::size_t t = 0; t < tiles; ++t) {
      const std::size_t peer = (t + hop) % tiles;
      ++report_.expert_sends;
      const auto sent = host_.send(rep.tiles[t], rep.tiles[peer], per_send);
      if (sent.ok()) {
        comm = std::max(comm, sent.value().to_seconds());
      } else {
        ++report_.send_failures;
        comm = std::max(comm, fab_.reconfig().settle_latency().to_seconds());
      }
    }
    ++rep.rotation;
  }

  const double round_dur = params_.round_base.to_seconds() +
                           params_.round_per_seq.to_seconds() * active + comm;
  const double done_t = now + round_dur;

  // Retire the sequences that finish in this round, in admission order.
  if (!rep.finishing.empty()) {
    std::vector<Finishing>& due =
        rep.finishing[rep.rounds_run & (rep.finishing.size() - 1)];
    for (const Finishing& f : due) complete(f, done_t);
    rep.active -= due.size();
    due.clear();
  }
  ++rep.rounds_run;

  if (rep.active > 0 || !rep.queue.empty()) kick(r, done_t);
}

void ServingSim::fault_event() {
  ++report_.fault_events;
  plane_.strike(injector_.sample(fault_rng_), params_.fault_model.quarantine_threshold);
  const Duration detect = params_.recovery.detected_at(Duration::seconds(now_s()));
  engine_.schedule_at(TimePoint::at_seconds(detect.to_seconds()), [this] { detection(); });
}

void ServingSim::gray_event() {
  const double now = now_s();
  ++report_.flap_episodes;

  // The flapping component: the source transceiver of a uniformly chosen
  // backbone edge of a uniformly chosen online replica.
  const std::size_t r0 = gray_rng_.uniform_index(replicas_.size());
  const std::size_t r = resolve_online(r0);
  if (r < replicas_.size() && !replicas_[r].backbone.empty()) {
    Replica& rep = replicas_[r];
    const std::size_t e = gray_rng_.uniform_index(rep.backbone.size());
    const fabric::Circuit* c = fab_.circuit(rep.backbone[e]);
    if (c != nullptr && !c->segments.empty() && !c->segments.front().hops.empty()) {
      const GlobalTile tile{c->segments.front().wafer, c->segments.front().from};
      const fabric::Direction dir = c->segments.front().hops.front();
      const fault::GrayEpisode ep =
          injector_.sample_gray_at(gray_rng_, params_.gray, tile, dir);
      const std::uint64_t key = fault::gray_component_key(tile, dir);

      double pause = 0.0;  // replica hold accumulated across the episode
      for (std::size_t k = 0; k < ep.trace.dips(); ++k) {
        const double t_dip = now + ep.trace.dip_start(k);
        ++report_.flap_transitions;
        pause += ep.trace.dip_seconds(k);  // the backbone edge is dark
        const auto res = plane_.flap(key, Duration::seconds(t_dip), rep.backbone[e],
                                     params_.recovery, params_.backbone_wavelengths);
        if (!res) continue;  // quarantined: ride it out
        // The thrash also flushes the host circuits: the reconfiguration
        // attempt churns the cached lanes, so subsequent sends re-plan and
        // pay r.
        ++report_.flap_repairs;
        report_.transient_repair_failures += res->transient_failures;
        pause += res->total().to_seconds();
        host_.flush();
        ++report_.churn_flushes;
      }
      if (pause > 0.0) {
        rep.paused_until = std::max(rep.paused_until, now + pause);
        report_.flap_stall += Duration::seconds(pause);
        if (rep.active > 0 || !rep.queue.empty()) kick(r, rep.paused_until);
      }
    }
  }
}

void ServingSim::take_offline(std::size_t r) {
  Replica& rep = replicas_[r];
  rep.online = false;
  ++report_.replicas_offline;
  report_.abandoned += rep.active + rep.queue.size();
  rep.active = 0;
  rep.finishing.clear();
  rep.queue.clear();
  for (const CircuitId id : rep.backbone) {
    if (fab_.circuit(id) != nullptr) fab_.disconnect(id);
  }
  rep.backbone.clear();
}

void ServingSim::detection() {
  const double now = now_s();
  ++report_.detections;
  // Keep the quarantine view current.
  plane_.set_now(std::max(plane_.now(), Duration::seconds(now)));
  // Quarantined lanes invalidate cached routes: drop every host circuit so
  // subsequent sends re-plan around the damage (the churn the bench sweeps).
  host_.flush();
  ++report_.churn_flushes;

  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = replicas_[r];
    if (!rep.online) continue;
    double pause = 0.0;
    bool lost = false;
    for (CircuitId& id : rep.backbone) {
      const auto diag = plane_.diagnose(id);
      if (diag.health == fault::CircuitHealth::kHealthy) continue;
      const auto res =
          runtime::drive_recovery(fab_, fault::to_degraded(diag), params_.recovery,
                                  plane_.repair_options(params_.backbone_wavelengths));
      pause = std::max(pause, res.total().to_seconds());
      if (res.recovered && !res.circuits.empty()) {
        id = res.circuits.front();
        ++report_.repairs;
      } else {
        // Out of optical ideas (dead endpoint, no spare tiles on a full
        // wafer): the ring is broken and the replica leaves the pool.
        ++report_.repair_failures;
        lost = true;
        break;
      }
    }
    if (lost) {
      take_offline(r);
      continue;
    }
    if (pause > 0.0) {
      rep.paused_until = std::max(rep.paused_until, now + pause);
      report_.stall_time += Duration::seconds(pause);
    }
  }
}

ServingReport ServingSim::run() {
  report_.arrival_rate = params_.traffic.arrival_rate;
  setup_replicas();
  schedule_first_events();
  engine_.run_until(TimePoint::at_seconds(params_.horizon.to_seconds() +
                                          params_.drain.to_seconds()));

  for (const Replica& rep : replicas_) {
    report_.in_flight_at_end += rep.active + rep.queue.size();
  }
  const std::vector<double> tail = lp::percentiles(latencies_, {50.0, 99.0, 99.9});
  report_.p50 = Duration::seconds(tail[0]);
  report_.p99 = Duration::seconds(tail[1]);
  report_.p999 = Duration::seconds(tail[2]);
  if (!latencies_.empty()) {
    report_.max_latency = Duration::seconds(
        *std::max_element(latencies_.begin(), latencies_.end()));
  } else {
    report_.p50 = report_.p99 = report_.p999 = Duration::zero();
  }
  report_.host = host_.stats();
  report_.suppressed_repairs = plane_.damper_stats().suppressed_repairs;
  report_.quarantines = plane_.damper_stats().quarantines;

  std::uint64_t d = report_.digest;
  d = fabric::hash_mix(d, report_.offered);
  d = fabric::hash_mix(d, report_.completed);
  d = fabric::hash_mix(d, report_.met_slo);
  d = fabric::hash_mix(d, report_.abandoned);
  d = fabric::hash_mix(d, report_.fault_events);
  d = fabric::hash_mix(d, report_.repairs);
  d = fabric::hash_mix(d, report_.repair_failures);
  d = fabric::hash_mix(d, report_.expert_ring_rounds);
  d = fabric::hash_mix(d, report_.kv_striped);
  d = fabric::hash_mix(d, report_.flap_episodes);
  d = fabric::hash_mix(d, report_.flap_transitions);
  d = fabric::hash_mix(d, report_.flap_repairs);
  d = fabric::hash_mix(d, report_.suppressed_repairs);
  d = fabric::hash_mix(d, report_.quarantines);
  d = fabric::hash_mix(d, report_.transient_repair_failures);
  d = fabric::hash_mix(d, std::bit_cast<std::uint64_t>(report_.flap_stall.to_seconds()));
  d = fabric::hash_mix(d, fab_.ledger_digest());
  report_.digest = d;
  report_.latencies = std::move(latencies_);
  return report_;
}

}  // namespace

ServingReport run_serving(const ServingParams& params) {
  ServingParams p = params;
  const auto rows = static_cast<std::int32_t>(p.replicas);
  const auto cols = static_cast<std::int32_t>(p.tiles_per_replica);
  if (p.fabric.wafer.rows * p.fabric.wafer.cols !=
      rows * cols) {
    p.fabric.wafer.rows = rows;
    p.fabric.wafer.cols = cols;
  }
  ServingSim sim{p};
  return sim.run();
}

ServingSweepReport run_serving_sweep(const ServingSweepConfig& config) {
  ServingSweepReport out;
  out.points.resize(config.arrival_rates.size());
  util::run_tasks(config.threads, config.arrival_rates.size(), [&](std::size_t i) {
    ServingParams p = config.base;
    p.traffic.arrival_rate = config.arrival_rates[i];
    // Per-point seed via task_seed: the sweep is bit-identical at any
    // thread count because each point is self-contained and results land
    // by index.
    p.seed = util::task_seed(config.base.seed, i);
    out.points[i] = run_serving(p);
  });
  return out;
}

}  // namespace lp::serve
