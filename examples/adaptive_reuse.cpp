// Adaptive conservatism: picking the channel-reuse hop threshold.
//
// Section V-C: "to maintain reliability, a network operator may select
// the largest channel reuse hop count under which the workload is
// schedulable." This example automates that: it sweeps rho_t downward
// from the reuse-graph diameter and reports, for each value, whether the
// workload is schedulable and what the simulated reliability looks like,
// then selects the most conservative feasible setting.
//
// Run:  ./adaptive_reuse [--flows 45] [--channels 3] [--seed 9]
#include <iostream>
#include <optional>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "topo/testbeds.h"

int run(int argc, char** argv) {
  using namespace wsan;
  const cli_args args(argc, argv);
  const int num_flows = args.get_int("flows", 45);
  const int num_channels = args.get_int("channels", 3);
  const auto seed = args.get_uint64("seed", 9);

  const auto view = graph::make_network_view(topo::make_wustl(),
                                             phy::channels(num_channels));

  flow::flow_set_params params;
  params.num_flows = num_flows;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = -1;
  params.period_max_exp = 1;
  rng gen(seed);
  const auto set = flow::generate_flow_set(view.comm, params, gen);

  std::cout << "Sweeping rho_t from the reuse-graph diameter ("
            << view.reuse_hops.diameter() << ") down to 1 for " << num_flows
            << " flows on " << num_channels << " channels\n\n";

  table t({"rho_t", "schedulable", "reuse placements", "median PDR",
           "worst-case PDR"});
  std::optional<int> chosen;
  for (int rho_t = view.reuse_hops.diameter(); rho_t >= 1; --rho_t) {
    const auto config =
        core::make_config(core::algorithm::rc, num_channels, rho_t);
    const auto result =
        core::schedule_flows(set.flows, view.reuse_hops, config);
    if (!result.schedulable) {
      t.add_row({cell(rho_t), "no", "-", "-", "-"});
      continue;
    }
    sim::sim_config sim_config;
    sim_config.runs = 40;
    sim_config.seed = seed;
    const auto sim_result = sim::run_simulation(
        view.topology, result.sched, set.flows, view.channels, sim_config);
    const auto box = stats::make_box_stats(sim_result.flow_pdr);
    t.add_row({cell(rho_t), "yes", cell(result.stats.reuse_placements),
               cell(box.median, 3), cell(box.min, 3)});
    if (!chosen) chosen = rho_t;  // largest schedulable rho_t wins
  }
  t.print(std::cout);

  if (chosen) {
    std::cout << "\nOperator choice: rho_t = " << *chosen
              << " (most conservative setting that meets all deadlines)\n";
  } else {
    std::cout << "\nNo rho_t makes this workload schedulable; shed flows "
                 "or add channels.\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
