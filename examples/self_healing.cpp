// Self-healing network: the full manager lifecycle.
//
// An operator admits a workload under aggressive reuse, the network runs
// and reports link health, the manager's classifier finds the links that
// channel reuse degrades, isolates them, and redistributes a repaired
// schedule — the closed loop the paper's Section VI makes possible.
//
// Run:  ./self_healing [--flows 45] [--cycles 3] [--seed 8]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "manager/network_manager.h"
#include "stats/summary.h"
#include "topo/testbeds.h"
#include "tsch/schedule_stats.h"

int run(int argc, char** argv) {
  using namespace wsan;
  const cli_args args(argc, argv);
  const int flows = args.get_int("flows", 45);
  const int cycles = args.get_int("cycles", 3);
  const auto seed = args.get_uint64("seed", 8);

  manager::manager_config config;
  config.num_channels = 4;
  config.scheduler = core::make_config(core::algorithm::ra, 4);
  manager::network_manager manager(topo::make_wustl(), config);
  std::cout << "Network: " << manager.view().topology.num_nodes()
            << " nodes, reuse-graph diameter "
            << manager.view().reuse_hops.diameter() << "\n";

  flow::flow_set_params params;
  params.num_flows = flows;
  params.period_min_exp = 0;
  params.period_max_exp = 0;
  rng gen(seed);
  const auto set = manager.generate_workload(params, gen);

  if (!manager.assign(set.flows)) {
    std::cout << "Workload rejected at admission; reduce --flows.\n";
    return 1;
  }
  std::cout << "Admitted " << set.flows.size()
            << " flows under aggressive reuse ("
            << tsch::reusing_cell_count(manager.schedule())
            << " reusing cells).\n\n";

  // The schedule the network runs: a repair that does not fit is not
  // distributed, so the network keeps the last one that did.
  auto running = manager.schedule();
  table t({"epoch", "median PDR", "worst PDR", "rejected links",
           "isolated total", "action"});
  for (int cycle = 0; cycle < cycles; ++cycle) {
    sim::sim_config sim_config;
    sim_config.runs = 36;
    sim_config.seed = seed;  // the RF world is static; drift persists
    const auto observed =
        sim::run_simulation(manager.view().topology, running, manager.flows(),
                            manager.view().channels, sim_config);
    const auto box = stats::make_box_stats(observed.flow_pdr);

    const auto outcome = manager.maintain(observed.links);
    std::string action = "none";
    if (outcome.rescheduled && manager.schedulable()) {
      running = manager.schedule();
      action = "rescheduled";
    } else if (outcome.rescheduled) {
      action = "repair failed (capacity)";
    }
    t.add_row({cell(cycle), cell(box.median, 3), cell(box.min, 3),
               cell(outcome.newly_isolated.size()),
               cell(manager.isolated_links().size()), action});
    if (!outcome.rescheduled) break;
  }
  t.print(std::cout);
  std::cout << "\nOnce the reuse-degraded links are isolated, the "
               "worst-case PDR recovers while the remaining (harmless) "
               "channel reuse keeps the workload schedulable.\n";
  return 0;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
