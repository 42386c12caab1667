// Data-parallel training step on a slice: how much time do accelerators
// spend idle waiting for gradients (§2's motivation), and what does the
// collective's execution timeline look like?
//
//   $ ./build/examples/training_step [bucket_mib] [trace.csv]
//
// When given a second argument, writes the flow-level timeline of one
// optical AllReduce bucket to a CSV you can plot.
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "collective/schedule.hpp"
#include "core/training_sim.hpp"
#include "sim/flow_sim.hpp"
#include "sim/trace.hpp"
#include "topo/slice.hpp"

int main(int argc, char** argv) {
  using namespace lp;
  const double mib = argc > 1 ? std::atof(argv[1]) : 128.0;

  const topo::Shape rack{{4, 4, 4}};
  const topo::Slice slice{0, 0, topo::Coord{{0, 0, 3}}, topo::Shape{{4, 2, 1}}};
  coll::CostParams params;
  core::TrainingConfig config;
  config.bucket_bytes = DataSize::mib(mib);

  std::printf("training step: Slice-1 (8 chips), %u buckets x %.0f MiB gradients,\n",
              config.buckets, mib);
  std::printf("%.1f ms compute per bucket\n\n", config.compute_per_bucket.to_millis());

  for (const auto interconnect :
       {coll::Interconnect::kElectrical, coll::Interconnect::kOptical}) {
    const auto report =
        core::simulate_training_iteration(slice, rack, config, interconnect, params);
    std::printf("%-11s iteration %7.2f ms | comm %7.2f ms | exposed %7.2f ms | idle %5.1f%%\n",
                interconnect == coll::Interconnect::kElectrical ? "electrical" : "optical",
                report.iteration.to_millis(), report.comm_time.to_millis(),
                report.exposed_comm.to_millis(), 100.0 * report.idle_fraction());
  }

  // Timeline of one optical AllReduce bucket.
  topo::TpuCluster cluster;
  const auto schedule = coll::build_all_reduce_schedule(
      cluster, slice, config.bucket_bytes, coll::Interconnect::kOptical, params);
  const sim::FlowSimulator fsim{cluster.dim_bandwidth()};
  sim::TimelineTrace trace;
  const auto run = fsim.run(schedule, &trace);
  std::printf("\none optical AllReduce bucket: %.2f ms over %zu timeline events\n",
              run.total.to_millis(), trace.size());

  if (argc > 2) {
    std::ofstream out{argv[2]};
    out << trace.to_csv();
    std::printf("timeline written to %s\n", argv[2]);
  } else {
    std::printf("(pass a CSV path as the second argument to export the timeline)\n");
  }
  return 0;
}
