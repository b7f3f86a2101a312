// Fault recovery: node death, watchdog detection, graceful degradation.
//
// A relay node dies mid-deployment. Its flows' packets stop cold, and —
// because a silent node is indistinguishable from a crashed one — the
// manager's only evidence is the missing health reports. The watchdog
// declares the node dead after `watchdog` consecutive silent epochs, the
// manager re-routes the affected flows around it, and when the repaired
// workload no longer fits it sheds the lowest-priority flows until the
// remainder is schedulable. The surviving flows' delivery returns to the
// pre-fault baseline.
//
// Run:  ./fault_recovery [--flows 30] [--epochs 6] [--watchdog 2]
//       [--runs-per-epoch 18] [--seed 8]
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "manager/network_manager.h"
#include "sim/faults.h"
#include "stats/summary.h"
#include "topo/testbeds.h"

namespace {

using namespace wsan;

/// The busiest pure relay: the node that forwards for the most flows
/// while being nobody's source or destination — losing it hurts the most
/// flows while leaving them all reroutable.
node_id pick_relay(const std::vector<flow::flow>& flows) {
  std::set<node_id> endpoints;
  for (const auto& f : flows) {
    endpoints.insert(f.source);
    endpoints.insert(f.destination);
  }
  std::map<node_id, int> forwards;
  for (const auto& f : flows)
    for (std::size_t i = 1; i < f.route.size(); ++i)
      ++forwards[f.route[i].sender];
  node_id best = k_invalid_node;
  int best_count = 0;
  for (const auto& [node, count] : forwards) {
    if (endpoints.count(node) > 0) continue;
    if (count > best_count) {
      best = node;
      best_count = count;
    }
  }
  return best;
}

std::string join_ids(const std::vector<node_id>& ids) {
  if (ids.empty()) return "-";
  std::string out;
  for (node_id id : ids) out += (out.empty() ? "" : ",") + std::to_string(id);
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  const cli_args args(argc, argv);
  const int flows = args.get_int("flows", 30);
  const int epochs = args.get_int("epochs", 6);
  const int runs_per_epoch = args.get_int("runs-per-epoch", 18);
  const auto seed = args.get_uint64("seed", 8);

  manager::manager_config config;
  config.num_channels = 4;
  config.scheduler = core::make_config(core::algorithm::rc, 4);
  config.watchdog_epochs = args.get_int("watchdog", 2);
  manager::network_manager manager(topo::make_wustl(), config);

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

  const node_id victim = pick_relay(manager.flows());
  if (victim == k_invalid_node) {
    std::cout << "No pure relay node in this workload; change --seed.\n";
    return 1;
  }
  int carried = 0;
  for (const auto& f : manager.flows())
    for (const auto& l : f.route)
      if (l.sender == victim || l.receiver == victim) {
        ++carried;
        break;
      }
  std::cout << "Admitted " << manager.flows().size() << " flows on "
            << manager.view().topology.num_nodes() << " nodes; node "
            << victim << " relays for " << carried
            << " flows and will crash at epoch 1.\n\n";

  // The global fault script: a permanent crash at the start of epoch 1.
  sim::fault_plan plan;
  plan.crashes.push_back(sim::node_crash{victim, runs_per_epoch, -1});

  table t({"epoch", "median PDR", "worst PDR", "silent", "declared dead",
           "rerouted", "shed", "action"});
  for (int epoch = 0; epoch < epochs; ++epoch) {
    sim::sim_config sim_config;
    sim_config.runs = runs_per_epoch;
    sim_config.seed = seed;  // the RF world is static across epochs
    sim_config.faults =
        sim::slice_fault_plan(plan, epoch * runs_per_epoch, runs_per_epoch);
    const auto observed = sim::run_simulation(
        manager.view().topology, manager.schedule(), manager.flows(),
        manager.view().channels, sim_config);
    const auto box = stats::make_box_stats(observed.flow_pdr);

    const auto outcome = manager.recover(observed.links);
    std::string action = "none";
    if (outcome.rescheduled) {
      action = "rerouted + redistributed";
      if (!outcome.shed_flows.empty() || !outcome.unroutable_flows.empty())
        action += " (shed load)";
    } else if (!outcome.silent_nodes.empty()) {
      action = "watchdog counting";
    }
    t.add_row({cell(epoch), cell(box.median, 3), cell(box.min, 3),
               join_ids(outcome.silent_nodes), join_ids(outcome.newly_dead),
               cell(outcome.rerouted_flows.size()),
               cell(outcome.shed_flows.size() +
                    outcome.unroutable_flows.size()),
               action});
  }
  t.print(std::cout);
  std::cout << "\nThe watchdog turns " << config.watchdog_epochs
            << " epochs of silence into a death certificate; rerouting "
               "plus priority-ordered shedding brings the surviving "
               "flows back to their pre-fault delivery.\n";
  return 0;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
