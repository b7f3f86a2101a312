// Interference detection: Section VI end to end.
//
// Schedules a workload with channel reuse, runs it in a clean RF
// environment and again under WiFi interference, and lets the
// K-S-test-based classifier explain every unreliable link: was it the
// channel reuse, or the WiFi?
//
// Run:  ./interference_detection [--flows 40] [--epochs 3] [--seed 5]
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "detect/detector.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"
#include "tsch/schedule_stats.h"

namespace {

constexpr int k_runs_per_epoch = 18;  // paper: 18 samples per 15-min epoch

void report(const std::string& label,
            const std::vector<wsan::detect::link_report>& reports) {
  using namespace wsan;
  table t({"link", "verdict", "PRR (reuse)", "PRR (cont.-free)",
           "K-S p-value"});
  for (const auto& r : reports) {
    if (r.verdict == detect::link_verdict::meets_requirement) continue;
    t.add_row({std::to_string(r.link.sender) + "->" +
                   std::to_string(r.link.receiver),
               detect::to_string(r.verdict), cell(r.prr_reuse, 3),
               cell(r.prr_contention_free, 3), cell(r.ks.p_value, 4)});
  }
  std::cout << label << ": " << t.num_rows()
            << " links below the reliability requirement\n";
  if (t.num_rows() > 0) t.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int run(int argc, char** argv) {
  using namespace wsan;
  const cli_args args(argc, argv);
  const int num_flows = args.get_int("flows", 40);
  const int epochs = args.get_int("epochs", 3);
  const auto seed = args.get_uint64("seed", 5);

  // Channels 11-14: they overlap WiFi channel 1.
  const auto view =
      graph::make_network_view(topo::make_wustl(), phy::channels(4));

  flow::flow_set_params params;
  params.num_flows = num_flows;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = 0;
  params.period_max_exp = 0;  // all flows at 1 s, as in Section VII-E
  rng gen(seed);
  const auto set = flow::generate_flow_set(view.comm, params, gen);

  const auto config = core::make_config(
      core::algorithm::ra, static_cast<int>(view.channels.size()));
  const auto schedule =
      core::schedule_flows(set.flows, view.reuse_hops, config);
  if (!schedule.schedulable) {
    std::cout << "workload unschedulable; try fewer flows\n";
    return 1;
  }
  std::cout << "Scheduled " << num_flows << " flows with RA; "
            << tsch::links_in_reuse_count(schedule.sched)
            << " links are associated with channel reuse\n\n";

  sim::sim_config clean;
  clean.runs = epochs * k_runs_per_epoch;
  clean.seed = seed;
  const auto clean_result = sim::run_simulation(
      view.topology, schedule.sched, set.flows, view.channels, clean);
  report("Clean environment",
         detect::classify_links(clean_result.links, {}));

  sim::sim_config noisy = clean;
  noisy.interferers = sim::one_interferer_per_floor(view.topology, 0.5);
  const auto noisy_result = sim::run_simulation(
      view.topology, schedule.sched, set.flows, view.channels, noisy);
  const auto noisy_reports = detect::classify_links(noisy_result.links, {});
  report("Under WiFi interference (channels 11-14)", noisy_reports);

  std::cout << "Per-epoch stability of the rejected set:\n";
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto epoch_reports = detect::classify_links_in_epoch(
        noisy_result.links, epoch, k_runs_per_epoch, {});
    const auto rejected = detect::links_with_verdict(
        epoch_reports, detect::link_verdict::degraded_by_reuse);
    std::cout << "  epoch " << epoch << ": " << rejected.size()
              << " rejected links\n";
  }
  std::cout << "\nRejected links would be rescheduled away from reuse; "
               "accepted links need a different remedy (blacklisting the "
               "jammed channels).\n";
  return 0;
}

int main(int argc, char** argv) {
  return wsan::run_main(run, argc, argv);
}
