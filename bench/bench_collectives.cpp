// Collective-primitive sweep: ReduceScatter / AllGather / AllReduce /
// pipelined Broadcast on the paper's slice shapes, electrical vs optical,
// measured with the flow simulator.
//
// Generalizes Tables 1-2 beyond ReduceScatter: the optics advantage holds
// for every ring-structured primitive, with the same 3x / 1.5x shape per
// slice, because it comes from the redirected per-stage bandwidth, not the
// primitive.
#include "bench/bench_common.hpp"
#include "collective/alltoall.hpp"
#include "collective/schedule.hpp"
#include "sim/flow_sim.hpp"
#include "topo/slice.hpp"

namespace {

using namespace lp;
using coll::Interconnect;

void print_report(bool emit_json) {
  bench::header("Collective sweep: RS / AG / AR / Broadcast, elec vs optics");
  topo::TpuCluster cluster;
  coll::CostParams params;
  const DataSize n = DataSize::mib(256);
  const sim::FlowSimulator fsim{cluster.dim_bandwidth()};

  struct SliceCase {
    const char* name;
    topo::Slice slice;
  };
  const SliceCase slices[] = {
      {"4x2x1", topo::Slice{0, 0, topo::Coord{{0, 0, 3}}, topo::Shape{{4, 2, 1}}}},
      {"4x4x1", topo::Slice{1, 0, topo::Coord{{0, 0, 2}}, topo::Shape{{4, 4, 1}}}},
      {"4x4x2", topo::Slice{2, 0, topo::Coord{{0, 0, 0}}, topo::Shape{{4, 4, 2}}}},
  };

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("collectives");
  json.key("bytes").value(n.to_bytes());
  json.key("rows").begin_array();

  std::printf("N = %s\n\n", bench::fmt_bytes(n.to_bytes()).c_str());
  std::printf("  slice   primitive     electrical     optical      speedup\n");
  for (const auto& sc : slices) {
    struct Prim {
      const char* name;
      coll::Schedule elec, opt;
    };
    Prim prims[] = {
        {"ReduceScatter",
         coll::build_reduce_scatter_schedule(cluster, sc.slice, n,
                                             Interconnect::kElectrical, params),
         coll::build_reduce_scatter_schedule(cluster, sc.slice, n,
                                             Interconnect::kOptical, params)},
        {"AllGather",
         coll::build_all_gather_schedule(cluster, sc.slice, n,
                                         Interconnect::kElectrical, params),
         coll::build_all_gather_schedule(cluster, sc.slice, n, Interconnect::kOptical,
                                         params)},
        {"AllReduce",
         coll::build_all_reduce_schedule(cluster, sc.slice, n,
                                         Interconnect::kElectrical, params),
         coll::build_all_reduce_schedule(cluster, sc.slice, n, Interconnect::kOptical,
                                         params)},
        {"Broadcast/16",
         coll::build_broadcast_schedule(cluster, sc.slice, n, 16,
                                        Interconnect::kElectrical, params),
         coll::build_broadcast_schedule(cluster, sc.slice, n, 16,
                                        Interconnect::kOptical, params)},
    };
    for (const auto& p : prims) {
      const auto e = fsim.run(p.elec);
      const auto o = fsim.run(p.opt);
      std::printf("  %-6s  %-12s  %11s  %11s  %8.2fx\n", sc.name, p.name,
                  bench::fmt_time(e.total.to_seconds()).c_str(),
                  bench::fmt_time(o.total.to_seconds()).c_str(), e.total / o.total);
      json.begin_object();
      json.key("slice").value(sc.name);
      json.key("primitive").value(p.name);
      json.key("electrical_seconds").value(e.total.to_seconds());
      json.key("optical_seconds").value(o.total.to_seconds());
      json.key("speedup").value(e.total / o.total);
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  bench::line();
  std::printf("the slice shape, not the primitive, sets the optics gain: ~3x for\n");
  std::printf("one-usable-dim slices, ~1.5x for two, matching Tables 1-2.\n");
  if (emit_json) {
    const char* path = "BENCH_collectives.json";
    std::printf("%s artifact: %s\n", json.write_file(path) ? "wrote" : "FAILED to write",
                path);
  }
}

void BM_BuildAllReduce(benchmark::State& state) {
  topo::TpuCluster cluster;
  const topo::Slice slice{0, 0, topo::Coord{{0, 0, 0}}, topo::Shape{{4, 4, 2}}};
  const coll::CostParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coll::build_all_reduce_schedule(
        cluster, slice, DataSize::mib(256), Interconnect::kElectrical, params));
  }
}
BENCHMARK(BM_BuildAllReduce);

void BM_SimBroadcast(benchmark::State& state) {
  topo::TpuCluster cluster;
  const topo::Slice slice{0, 0, topo::Coord{{0, 0, 3}}, topo::Shape{{4, 2, 1}}};
  const coll::CostParams params;
  const auto schedule = coll::build_broadcast_schedule(
      cluster, slice, DataSize::mib(256), 16, Interconnect::kElectrical, params);
  const sim::FlowSimulator fsim{cluster.dim_bandwidth()};
  for (auto _ : state) benchmark::DoNotOptimize(fsim.run(schedule));
}
BENCHMARK(BM_SimBroadcast);

// Stress the max-min solver itself: every rotation round of a 32-chip
// all-to-all collapsed into ONE phase of ~1000 simultaneous electrical
// flows with heavy link sharing, so progressive filling runs many freeze
// rounds over many contended links — the regime where the incremental
// (CSR + lazy-heap) solver pulls away from a per-round full rescan.
void BM_SimCongestedAllPairs(benchmark::State& state) {
  topo::TpuCluster cluster;
  const topo::Slice slice{0, 0, topo::Coord{{0, 0, 0}}, topo::Shape{{4, 4, 2}}};
  const coll::CostParams params;
  const auto demand = coll::uniform_all_to_all(32, DataSize::mib(4));
  const auto schedule = coll::build_all_to_all_schedule(
      cluster, slice, demand, Interconnect::kElectrical, params);
  std::vector<coll::Transfer> transfers;
  for (const auto& phase : schedule.phases) {
    transfers.insert(transfers.end(), phase.transfers.begin(),
                     phase.transfers.end());
  }
  const sim::FlowSimulator fsim{cluster.dim_bandwidth()};
  for (auto _ : state) benchmark::DoNotOptimize(fsim.run_phase(transfers));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(transfers.size()));
}
BENCHMARK(BM_SimCongestedAllPairs);

}  // namespace

LP_BENCH_MAIN_JSON(print_report)
