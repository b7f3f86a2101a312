// Factory monitoring & control: the centralized-traffic scenario from
// the paper's introduction. Sensors stream readings through access
// points to a controller behind the gateway; the controller's commands
// travel back down to actuators. We compare what NR, RA, and RC do with
// the same control workload, then simulate the RC schedule to estimate
// delivery reliability.
//
// Run:  ./factory_monitoring [--loops 15] [--channels 4] [--seed 3]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "topo/testbeds.h"
#include "tsch/schedule_stats.h"

int run(int argc, char** argv) {
  using namespace wsan;
  const cli_args args(argc, argv);
  const int loops = args.get_int("loops", 15);
  const int num_channels = args.get_int("channels", 4);
  const auto seed = args.get_uint64("seed", 3);

  const auto view = graph::make_network_view(topo::make_indriya(),
                                             phy::channels(num_channels));

  // Each control loop is a sensor -> controller -> actuator flow routed
  // through the access points (centralized traffic).
  flow::flow_set_params params;
  params.num_flows = loops;
  params.type = flow::traffic_type::centralized;
  params.period_min_exp = 0;  // 1 s control loops
  params.period_max_exp = 2;  // up to 4 s
  rng gen(seed);
  const auto set = flow::generate_flow_set(view.comm, params, gen);

  std::cout << "Factory control workload: " << loops
            << " control loops routed through access points {";
  for (std::size_t i = 0; i < set.access_points.size(); ++i)
    std::cout << (i ? ", " : "") << set.access_points[i];
  std::cout << "}\n\n";

  table comparison({"scheduler", "schedulable", "reuse placements",
                    "reusing cells", "median PDR", "worst-case PDR"});

  for (const auto algo :
       {core::algorithm::nr, core::algorithm::ra, core::algorithm::rc}) {
    const auto config = core::make_config(algo, num_channels);
    const auto result =
        core::schedule_flows(set.flows, view.reuse_hops, config);
    if (!result.schedulable) {
      comparison.add_row({core::to_string(algo), "no", "-", "-", "-", "-"});
      continue;
    }
    sim::sim_config sim_config;
    sim_config.runs = 50;
    sim_config.seed = seed;
    const auto sim_result = sim::run_simulation(
        view.topology, result.sched, set.flows, view.channels, sim_config);
    const auto box = stats::make_box_stats(sim_result.flow_pdr);
    comparison.add_row({core::to_string(algo), "yes",
                        cell(result.stats.reuse_placements),
                        cell(tsch::reusing_cell_count(result.sched)),
                        cell(box.median, 3), cell(box.min, 3)});
  }
  comparison.print(std::cout);
  std::cout << "\nRC only reuses channels when a control loop would miss "
               "its deadline; RA reuses at every opportunity and pays for "
               "it in worst-case delivery.\n";
  return 0;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
