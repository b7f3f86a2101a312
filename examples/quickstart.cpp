// Quickstart: the full pipeline in ~80 lines.
//
//   1. Build (or load) a testbed topology.
//   2. Derive the communication graph and channel-reuse graph.
//   3. Generate a periodic real-time workload.
//   4. Schedule it with RC (Reuse Conservatively).
//   5. Validate and inspect the schedule.
//
// Run:  ./quickstart [--flows 20] [--channels 4] [--seed 1]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "topo/testbeds.h"
#include "tsch/render.h"
#include "tsch/schedule_stats.h"
#include "tsch/validate.h"

int run(int argc, char** argv) {
  using namespace wsan;
  const cli_args args(argc, argv);
  const int num_flows = args.get_int("flows", 20);
  const int num_channels = args.get_int("channels", 4);
  const auto seed = args.get_uint64("seed", 1);

  // 1. A 60-node, 3-floor testbed (synthetic stand-in for WUSTL) and
  // 2. its graphs: G_c for routing (PRR >= 0.9 everywhere), G_R for
  //    interference distance (PRR > 0 anywhere) with its hop matrix.
  const auto view = graph::make_network_view(topo::make_wustl(),
                                             phy::channels(num_channels));
  std::cout << "Topology: " << view.topology.name() << ", "
            << view.topology.num_nodes() << " nodes, " << num_channels
            << " channels\n";
  std::cout << "Communication graph: " << view.comm.num_edges()
            << " edges; reuse graph: " << view.reuse.num_edges()
            << " edges (diameter " << view.reuse_hops.diameter() << ")\n";

  // 3. A random periodic workload with harmonic periods and
  //    deadline-monotonic priorities.
  flow::flow_set_params params;
  params.num_flows = num_flows;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = 0;  // 1 s
  params.period_max_exp = 2;  // 4 s
  rng gen(seed);
  const auto set = flow::generate_flow_set(view.comm, params, gen);
  std::cout << "Workload: " << set.flows.size()
            << " flows, hyperperiod " << flow::hyperperiod(set.flows)
            << " slots\n";

  // 4. Schedule with RC: reuse only when laxity would go negative.
  const auto config = core::make_config(core::algorithm::rc, num_channels);
  const auto result =
      core::schedule_flows(set.flows, view.reuse_hops, config);
  if (!result.schedulable) {
    std::cout << "UNSCHEDULABLE (first failing flow: "
              << result.first_failed_flow << ")\n";
    return 1;
  }
  std::cout << "Schedulable: " << result.sched.num_transmissions()
            << " transmissions placed, " << result.stats.reuse_placements
            << " via channel reuse\n";

  // 5. Independent validation plus the paper's efficiency metrics.
  tsch::validation_options opts;
  opts.min_reuse_hops = config.rho_t;
  const auto validation =
      tsch::validate_schedule(result.sched, set.flows, view.reuse_hops, opts);
  std::cout << "Validation: " << (validation.ok ? "OK" : "FAILED") << "\n";

  const auto tx_hist = tsch::tx_per_channel_histogram(result.sched);
  std::cout << "Transmissions per occupied channel cell: "
            << tx_hist.to_string() << "\n";
  const auto hop_hist =
      tsch::reuse_hop_count_histogram(result.sched, view.reuse_hops);
  if (!hop_hist.empty())
    std::cout << "Channel-reuse hop counts: " << hop_hist.to_string()
              << "\n";
  else
    std::cout << "No channel reuse was needed for this workload.\n";

  // 6. A peek at the schedule grid itself (first occupied slots;
  //    retries are marked with '*').
  std::cout << "\nFirst slots of the schedule:\n";
  tsch::render_options render;
  render.num_slots = 12;
  render.skip_empty_slots = false;
  tsch::render_schedule(result.sched, std::cout, render);
  return validation.ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
