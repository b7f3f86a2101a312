// wsanctl — the command-line face of the library.
//
// Drives the whole WirelessHART pipeline over files so every stage can
// be scripted, inspected, and re-run:
//
//   wsanctl topology --testbed wustl --out topo.txt
//   wsanctl workload --topology topo.txt --channels 4 --flows 30
//           --out flows.txt
//   wsanctl schedule --topology topo.txt --workload flows.txt
//           --channels 4 --algo rc --out sched.txt --render
//   wsanctl analyze  --workload flows.txt --channels 4
//   wsanctl simulate --topology topo.txt --workload flows.txt
//           --schedule sched.txt --channels 4 --runs 100 --wifi
//   wsanctl detect   --topology topo.txt --workload flows.txt
//           --schedule sched.txt --channels 4 --runs 108 --wifi
//   wsanctl bench    --all --jobs 8 --json bench_results.json
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/analysis.h"
#include "core/scheduler.h"
#include "detect/detector.h"
#include "exp/json.h"
#include "exp/obs_io.h"
#include "exp/options.h"
#include "exp/report.h"
#include "experiments.h"
#include "fleet/fleet.h"
#include "flow/flow_generator.h"
#include "flow/flow_io.h"
#include "graph/algorithms.h"
#include "graph/network_view.h"
#include "manager/network_manager.h"
#include "scenario/scenario.h"
#include "sim/faults.h"
#include "sim/interference.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "topo/testbeds.h"
#include "topo/topology_io.h"
#include "tsch/diff.h"
#include "tsch/latency.h"
#include "tsch/render.h"
#include "tsch/schedule_io.h"
#include "tsch/schedule_stats.h"
#include "tsch/validate.h"

namespace {

using namespace wsan;

int usage() {
  std::cout <<
      R"(wsanctl <command> [--key value ...]

commands:
  topology   generate a testbed topology file
             --testbed wustl|indriya  --out FILE
             --seed N  (default: the testbed's seed in every figure)
  workload   generate a routed, prioritized flow set
             --topology FILE  --channels N  --flows N
             --type p2p|centralized  --period-min EXP  --period-max EXP
             --seed N  --out FILE
  schedule   schedule a workload (NR/RA/RC)
             --topology FILE  --workload FILE  --channels N
             --algo nr|ra|rc  --rho N  --out FILE  [--render]
  analyze    analytical response-time bounds (no reuse)
             --workload FILE  --channels N
  simulate   execute a schedule against the physical layer
             --topology FILE  --workload FILE  --schedule FILE
             --channels N  --runs N  [--wifi]  --seed N
  detect     simulate, then classify reuse-degraded links
             same flags as simulate
  diff       compare two schedules
             --before FILE  --after FILE
  latency    per-flow end-to-end delay and slack of a schedule
             --workload FILE  --schedule FILE
  fleet      churn a fleet of tenant networks through incremental
             admission/eviction (delta scheduling)
             --testbed indriya|wustl  --channels N  --algo nr|ra|rc
             --rho N  --tenants N  --ops N  --max-flows N
             --admit-bias P  --jobs N  --seed N
             [--replay-tenant ID]  [--metrics FILE]  [--trace FILE]
  scenario   drive the scenario engine through time-varying epochs
             (arrivals, departures, node churn, jamming, recovery)
             --testbed indriya|wustl | --topology FILE
             --channels N  --algo nr|ra|rc  --flows N  --epochs N
             --runs-per-epoch N  --arrival-rate R  --max-flows N
             --departure-rate R  --crash-rate R  --revival-rate R
             --jam-slots N  [--randomize]  --swap-attempts N
             --watchdog N  [--wifi]  --onset-epoch N  --seed N
             [--replay EPOCH]  [--metrics FILE]  [--trace FILE]
             [--series FILE]  [--openmetrics FILE]
             [--slo]  [--pdr-floor P]  (evaluate SLO health; exit 1
             when an error-severity rule trips)
             [--flight-dump FILE]  (post-mortem on SLO trip or
             recovery exhaustion)
             [--fail-recovery EPOCH]  (inject recovery failures at
             EPOCH, exhausting the retry budget)
  faults     inject faults and drive the detect/reroute/shed loop
             --topology FILE  --workload FILE  --channels N
             [--plan FILE | --crash IDS [--crash-run N]]
             --epochs N  --runs-per-epoch N  --watchdog N  --seed N
             [--metrics FILE]  [--trace FILE]
  bench      run the paper-reproduction experiments
             --list | --validate FILE | --figure ID | --all
             --jobs N  --trials N  --seed N  --json FILE
             --replay POINT:TRIAL (with --figure)
             --metrics FILE (observability snapshot)
             --trace FILE (JSONL event log)
             --series FILE (per-epoch wsan-series/1 JSONL files)
             plus each figure's own flags (--flows, --runs, ...)
  obs        pretty-print an observability document
             FILE (metrics snapshot or bench report container)
             [--payload OUT]  write the report's science payload
             (observability nulled; wall_seconds, jobs, and declared
             measurement series zeroed) for bit-exact diffing
  health     evaluate / render SLO health; exit 0 iff healthy
             FILE (bench report container with a "health" section,
             or a wsan-series/1 JSONL file)  [--pdr-floor P]
  top        per-metric summary + sparklines of a series file
             FILE (wsan-series/1 JSONL)
  flight     render a flight-recorder post-mortem dump
             FILE (wsan-flight-recorder/1 JSON)
)";
  return 2;
}

graph::network_view load_environment(const cli_args& args) {
  return graph::make_network_view(
      topo::load_topology_file(args.get("topology", "")),
      phy::channels(args.get_int("channels", 4)));
}

int cmd_topology(const cli_args& args) {
  const auto name = args.get("testbed", "wustl");
  const auto out = args.get("out", name + ".topo");
  const auto topology = topo::make_named_testbed(
      name, args.has("seed") ? std::optional(args.get_uint64("seed", 0))
                             : std::nullopt);
  topo::save_topology_file(topology, out);
  std::cout << "wrote " << topology.num_nodes() << "-node " << name
            << " topology to " << out << "\n";
  return 0;
}

int cmd_workload(const cli_args& args) {
  const auto env = load_environment(args);
  flow::flow_set_params params;
  params.num_flows = args.get_int("flows", 30);
  params.type = args.get("type", "p2p") == "centralized"
                    ? flow::traffic_type::centralized
                    : flow::traffic_type::peer_to_peer;
  params.period_min_exp = args.get_int("period-min", 0);
  params.period_max_exp = args.get_int("period-max", 2);
  rng gen(args.get_uint64("seed", 1));
  const auto set = flow::generate_flow_set(env.comm, params, gen);
  const auto out = args.get("out", "workload.flows");
  flow::save_flow_set_file(set, out);
  std::cout << "wrote " << set.flows.size() << " "
            << flow::to_string(params.type) << " flows (hyperperiod "
            << flow::hyperperiod(set.flows) << " slots) to " << out
            << "\n";
  return 0;
}

int cmd_schedule(const cli_args& args) {
  const auto env = load_environment(args);
  const auto set = flow::load_flow_set_file(args.get("workload", ""));
  const auto algo = core::parse_algorithm(args.get("algo", "rc"));
  const auto config = core::make_config(
      algo, static_cast<int>(env.channels.size()), args.get_int("rho", 2));
  const auto result =
      core::schedule_flows(set.flows, env.reuse_hops, config);
  if (!result.schedulable) {
    std::cout << "UNSCHEDULABLE (first failing flow "
              << result.first_failed_flow << ")\n";
    return 1;
  }
  tsch::validation_options vopts;
  vopts.min_reuse_hops =
      algo == core::algorithm::nr ? k_infinite_hops : config.rho_t;
  const auto validation = tsch::validate_schedule(
      result.sched, set.flows, env.reuse_hops, vopts);
  if (!validation.ok) {
    std::cout << "internal error: schedule failed validation: "
              << validation.violations.front() << "\n";
    return 1;
  }
  const auto out = args.get("out", "schedule.sched");
  tsch::save_schedule_file(result.sched, out);
  const auto occ = tsch::occupancy(result.sched);
  std::cout << "wrote " << result.sched.num_transmissions()
            << " transmissions (" << result.stats.reuse_placements
            << " via reuse, cell utilization "
            << cell(occ.cell_utilization(), 3) << ") to " << out << "\n";
  if (args.get_bool("render", false)) {
    tsch::render_options ropts;
    ropts.num_slots = 24;
    tsch::render_schedule(result.sched, std::cout, ropts);
  }
  return 0;
}

int cmd_analyze(const cli_args& args) {
  const auto set = flow::load_flow_set_file(args.get("workload", ""));
  const int channels = args.get_int("channels", 4);
  const auto analysis = core::analyze_response_times(set.flows, channels);
  table t({"flow", "deadline", "bound", "guaranteed"});
  for (const auto& bound : analysis.bounds) {
    t.add_row({cell(bound.flow),
               cell(set.flows[static_cast<std::size_t>(bound.flow)]
                        .deadline),
               cell(bound.bound), bound.guaranteed ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << (analysis.schedulable
                    ? "workload is analytically guaranteed under NR\n"
                    : "no analytical guarantee (the scheduler may still "
                      "succeed)\n");
  return analysis.schedulable ? 0 : 1;
}

sim::sim_result run_sim(const cli_args& args,
                        const graph::network_view& env,
                        const flow::flow_set& set,
                        const tsch::schedule& sched) {
  sim::sim_config config;
  config.runs = args.get_int("runs", 100);
  config.seed = args.get_uint64("seed", 42);
  if (args.get_bool("wifi", false))
    config.interferers = sim::one_interferer_per_floor(env.topology, 0.3,
                                                       8.0);
  return sim::run_simulation(env.topology, sched, set.flows, env.channels,
                             config);
}

int cmd_simulate(const cli_args& args) {
  const auto env = load_environment(args);
  const auto set = flow::load_flow_set_file(args.get("workload", ""));
  const auto sched = tsch::load_schedule_file(args.get("schedule", ""));
  const auto result = run_sim(args, env, set, sched);
  const auto box = stats::make_box_stats(result.flow_pdr);
  table t({"metric", "value"});
  t.add_row({"network PDR", cell(result.network_pdr(), 4)});
  t.add_row({"median flow PDR", cell(box.median, 4)});
  t.add_row({"worst flow PDR", cell(box.min, 4)});
  t.add_row({"energy (mJ)", cell(result.energy.total_mj, 1)});
  t.add_row({"mJ per delivered packet",
             cell(result.energy.mj_per_delivered(
                      result.instances_delivered),
                  3)});
  t.print(std::cout);
  return 0;
}

int cmd_detect(const cli_args& args) {
  const auto env = load_environment(args);
  const auto set = flow::load_flow_set_file(args.get("workload", ""));
  const auto sched = tsch::load_schedule_file(args.get("schedule", ""));
  const auto result = run_sim(args, env, set, sched);
  const auto reports = detect::classify_links(result.links, {});
  table t({"link", "verdict", "PRR reuse", "PRR cont.-free", "p-value"});
  for (const auto& report : reports) {
    if (report.verdict == detect::link_verdict::meets_requirement)
      continue;
    t.add_row({std::to_string(report.link.sender) + "->" +
                   std::to_string(report.link.receiver),
               detect::to_string(report.verdict),
               cell(report.prr_reuse, 3),
               cell(report.prr_contention_free, 3),
               cell(report.ks.p_value, 4)});
  }
  if (reports.empty()) {
    std::cout << "no links are associated with channel reuse in this "
                 "schedule\n";
  } else if (t.num_rows() == 0) {
    std::cout << "all " << reports.size()
              << " reuse-associated links meet the reliability "
                 "requirement\n";
  } else {
    t.print(std::cout);
  }
  return 0;
}

int cmd_latency(const cli_args& args) {
  const auto set = flow::load_flow_set_file(args.get("workload", ""));
  const auto sched = tsch::load_schedule_file(args.get("schedule", ""));
  const auto latencies = tsch::analyze_latency(sched, set.flows);
  table t({"flow", "instances", "best delay", "mean delay", "worst delay",
           "deadline", "min slack"});
  for (const auto& lat : latencies) {
    t.add_row({cell(lat.flow), cell(lat.instances), cell(lat.best_delay),
               cell(lat.mean_delay, 1), cell(lat.worst_delay),
               cell(set.flows[static_cast<std::size_t>(lat.flow)].deadline),
               cell(lat.min_slack)});
  }
  t.print(std::cout);
  std::cout << "max worst-case delay: " << tsch::max_worst_delay(latencies)
            << " slots\n";
  return 0;
}

int cmd_fleet(const cli_args& args) {
  fleet::fleet_config config;
  config.testbed = args.get("testbed", "indriya");
  config.num_channels = args.get_int("channels", 8);
  config.algo = core::parse_algorithm(args.get("algo", "rc"));
  config.rho_t = args.get_int("rho", 2);
  config.tenants = args.get_int("tenants", 64);
  config.ops_per_tenant = args.get_int("ops", 16);
  config.max_flows_per_tenant = args.get_int("max-flows", 12);
  config.admit_bias = args.get_double("admit-bias", 0.7);
  config.seed = args.get_uint64("seed", 1);
  const int jobs = args.get_int("jobs", 0);

  exp::run_options obs_options;
  obs_options.metrics_path = args.get("metrics", "");
  obs_options.trace_path = args.get("trace", "");
  exp::obs_session session(obs_options);

  const fleet::fleet_manager manager(config);

  if (args.has("replay-tenant")) {
    const auto tenant_id = args.get_uint64("replay-tenant", 0);
    fleet::tenant_stats stats;
    const auto ten = manager.replay_tenant(tenant_id, &stats);
    std::cout << "tenant " << tenant_id << " replay (seed "
              << config.seed << "): " << stats.ops << " ops, "
              << stats.admissions << " admitted, " << stats.rejections
              << " rejected, " << stats.evictions << " evicted\n"
              << "final state: " << ten.delta().size() << " flows, "
              << ten.delta().sched().num_transmissions()
              << " transmissions, digest "
              << fleet::tenant_state_digest(tenant_id, ten.delta())
              << "\n";
    return 0;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto result = manager.run_churn(jobs);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  const auto latency_us = [&](double q) {
    const auto& ns = result.admit_latency_ns;
    return ns.empty() ? 0.0 : stats::quantile(ns, q) / 1e3;
  };

  table t({"tenants", "ops", "admitted", "rejected", "evicted",
           "final flows", "digest"});
  const auto count_cell = [](std::int64_t v) {
    return cell(static_cast<long long>(v));
  };
  t.add_row({count_cell(result.tenants), count_cell(result.totals.ops),
             count_cell(result.totals.admissions),
             count_cell(result.totals.rejections),
             count_cell(result.totals.evictions),
             count_cell(result.final_flows),
             std::to_string(result.state_digest)});
  t.print(std::cout);
  const double admissions_per_s =
      wall_s > 0.0
          ? static_cast<double>(result.totals.admissions) / wall_s
          : 0.0;
  std::cout << result.schedulable_tenants << "/" << result.tenants
            << " tenants schedulable; " << cell(wall_s, 2)
            << " s wall, " << cell(admissions_per_s, 0)
            << " admissions/s, admit latency p50 "
            << cell(latency_us(0.5), 1) << " us / p99 "
            << cell(latency_us(0.99), 1)
            << " us\n";

  session.finish();
  session.print_summary(std::cout);
  return 0;
}

int cmd_scenario(const cli_args& args) {
  // The deployment: an explicit topology file, or a named testbed with
  // its fixed per-figure seed.
  const topo::topology topology =
      args.has("topology")
          ? topo::load_topology_file(args.get("topology", ""))
          : topo::make_named_testbed(args.get("testbed", "wustl"));

  scenario::scenario_config config;
  config.epochs = args.get_int("epochs", 12);
  config.runs_per_epoch = args.get_int("runs-per-epoch", 6);
  config.seed = args.get_uint64("seed", 1);
  config.flow_params.num_flows = args.get_int("flows", 8);
  config.flow_params.type = args.get("type", "p2p") == "centralized"
                                ? flow::traffic_type::centralized
                                : flow::traffic_type::peer_to_peer;
  config.flow_params.period_min_exp = args.get_int("period-min", 0);
  config.flow_params.period_max_exp = args.get_int("period-max", 1);
  config.departure_rate = args.get_double("departure-rate", 0.1);
  config.arrivals.rate = args.get_double("arrival-rate", 1.5);
  config.arrivals.max_flows = args.get_int("max-flows", 12);
  config.churn.crash_rate = args.get_double("crash-rate", 0.01);
  config.churn.revival_rate = args.get_double("revival-rate", 0.3);
  const int jam_slots = args.get_int("jam-slots", 0);
  config.jammer.enabled = jam_slots > 0;
  config.jammer.jam_slots = jam_slots;
  config.jammer.randomize = args.get_bool("randomize", false);
  config.jammer.swap_attempts = args.get_int("swap-attempts", 128);
  const int channels = args.get_int("channels", 8);
  config.manager.num_channels = channels;
  const auto algo = core::parse_algorithm(args.get("algo", "rc"));
  config.manager.scheduler = core::make_config(algo, channels);
  config.manager.watchdog_epochs = args.get_int("watchdog", 2);
  if (args.get_bool("wifi", false))
    config.sim.interferers =
        sim::one_interferer_per_floor(topology, 0.3, 8.0);
  config.interferer_onset_epoch = args.get_int("onset-epoch", 0);
  config.sim.probes_per_run = 1;

  if (args.has("replay")) {
    const int epoch = args.get_int("replay", 0);
    WSAN_REQUIRE(epoch >= 0 && epoch < config.epochs,
                 "--replay epoch out of range");
    const auto rec =
        scenario::scenario_engine::replay(topology, config, epoch);
    std::cout << "epoch " << epoch << " (seed " << config.seed
              << "): flows=" << rec.num_flows << " arrivals="
              << rec.arrivals_accepted << "/" << rec.arrivals_offered
              << " departures=" << rec.departures << " crashed="
              << rec.crashed.size() << " newly_dead="
              << rec.newly_dead.size() << " rehabilitated="
              << rec.rehabilitated.size() << "\n  rejected_links="
              << rec.rejected_links << " swaps=" << rec.swaps_applied
              << "/" << rec.swaps_attempted << " jam_hits="
              << rec.jam_hits << "/" << rec.jam_predictions << " pdr="
              << cell(rec.pdr, 3) << " digest=" << rec.digest << "\n";
    return 0;
  }

  exp::run_options obs_options;
  obs_options.metrics_path = args.get("metrics", "");
  obs_options.trace_path = args.get("trace", "");
  obs_options.series_path = args.get("series", "");
  const auto openmetrics_path = args.get("openmetrics", "");

  // SLO policy: --slo enables the default scenario policy; --pdr-floor
  // (which implies --slo) overrides its PDR lower bound.
  if (args.get_bool("slo", false) || args.has("pdr-floor")) {
    config.slo = obs::default_scenario_policy();
    const double pdr_floor = args.get_double("pdr-floor", -1.0);
    if (pdr_floor >= 0.0)
      for (auto& rule : config.slo.rules)
        if (rule.metric == "pdr") rule.bound = pdr_floor;
  }

  // Flight recorder: fed every epoch window by the engine, tee'd into
  // the event stream so its ring also holds the recent engine events.
  std::shared_ptr<obs::flight_recorder> recorder;
  if (args.has("flight-dump")) {
    obs::flight_recorder::config recorder_config;
    recorder_config.dump_path = args.get("flight-dump", "");
    recorder = std::make_shared<obs::flight_recorder>(recorder_config);
    config.recorder = recorder.get();
  }

  if (args.has("fail-recovery")) {
    const int fail_epoch = args.get_int("fail-recovery", 0);
    config.recovery_hook = [fail_epoch](int epoch, int) {
      if (epoch == fail_epoch)
        throw std::runtime_error("injected management-plane loss");
    };
  }

  exp::obs_session session(obs_options, recorder);

  scenario::scenario_engine engine(std::move(topology), config);
  const auto result = engine.run();

  table t({"epoch", "flows", "arr", "dep", "crash", "dead", "rehab",
           "rej links", "swaps", "jam", "PDR", "digest"});
  for (const auto& rec : result.epochs) {
    t.add_row({cell(rec.epoch), cell(rec.num_flows),
               cell(rec.arrivals_accepted) + "/" +
                   cell(rec.arrivals_offered),
               cell(rec.departures), cell(rec.crashed.size()),
               cell(rec.newly_dead.size()), cell(rec.rehabilitated.size()),
               cell(rec.rejected_links),
               cell(rec.swaps_applied) + "/" + cell(rec.swaps_attempted),
               cell(rec.jam_hits) + "/" + cell(rec.jam_predictions),
               cell(rec.pdr, 3), std::to_string(rec.digest)});
  }
  t.print(std::cout);
  std::cout << result.total_arrivals_accepted << "/"
            << result.total_arrivals_offered << " arrivals admitted, "
            << result.total_rejected << " rejected, "
            << result.total_departures << " departed; "
            << result.total_crashes << " crash(es), "
            << result.total_newly_dead << " declared dead, "
            << result.total_rehabilitated << " rehabilitated; jam hit "
            << "rate " << cell(result.jam_hit_rate(), 3) << ", mean PDR "
            << cell(result.mean_pdr, 3) << ", final digest "
            << result.final_digest << "\n";

  const auto series = scenario::scenario_series(result);
  if (!obs_options.series_path.empty()) {
    std::ofstream out(obs_options.series_path);
    WSAN_REQUIRE(out.good(),
                 "cannot open for writing: " + obs_options.series_path);
    obs::write_series_jsonl(series, out);
    std::cout << "wrote " << series.windows.size()
              << "-window series to " << obs_options.series_path << "\n";
  }
  if (!openmetrics_path.empty()) {
    std::ofstream out(openmetrics_path);
    WSAN_REQUIRE(out.good(),
                 "cannot open for writing: " + openmetrics_path);
    obs::write_series_openmetrics(series, out);
    std::cout << "wrote OpenMetrics exposition to " << openmetrics_path
              << "\n";
  }

  session.finish();
  session.print_summary(std::cout);
  if (recorder != nullptr) {
    std::cout << "flight recorder: " << recorder->triggers()
              << " trigger(s)";
    if (recorder->triggers() > 0)
      std::cout << ", post-mortem written to "
                << recorder->recorder_config().dump_path;
    std::cout << "\n";
  }
  if (!config.slo.empty()) {
    // Events are already disabled (session finished), so this second
    // evaluation renders the verdict without re-emitting violations.
    const auto verdict = obs::evaluate_slo(series, config.slo);
    const auto health =
        exp::health_section(config.slo, {{"scenario", verdict}});
    if (!exp::print_health_block(health, std::cout)) return 1;
  }
  return 0;
}

int cmd_faults(const cli_args& args) {
  auto topology = topo::load_topology_file(args.get("topology", ""));
  const auto set = flow::load_flow_set_file(args.get("workload", ""));
  const int epochs = args.get_int("epochs", 6);
  const int runs_per_epoch = args.get_int("runs-per-epoch", 18);
  const auto seed = args.get_uint64("seed", 42);

  // The fault script: an explicit plan file, or crash records assembled
  // from --crash (comma-separated node ids) at --crash-run.
  sim::fault_plan plan;
  if (args.has("plan")) {
    plan = sim::load_fault_plan_file(args.get("plan", ""));
  } else {
    const auto crash_list = args.get("crash", "");
    WSAN_REQUIRE(!crash_list.empty(),
                 "faults needs --plan FILE or --crash IDS");
    const int crash_run = args.get_int("crash-run", runs_per_epoch);
    std::istringstream ids(crash_list);
    std::string token;
    while (std::getline(ids, token, ',')) {
      WSAN_REQUIRE(!token.empty(), "empty node id in --crash list");
      plan.crashes.push_back(sim::node_crash{
          parse_int(token, "--crash expects node ids"), crash_run, -1});
    }
  }
  sim::validate_fault_plan(plan, topology.num_nodes());

  manager::manager_config config;
  config.num_channels = args.get_int("channels", 4);
  config.scheduler = core::make_config(core::algorithm::rc,
                                       config.num_channels);
  config.watchdog_epochs = args.get_int("watchdog", 2);
  manager::network_manager manager(std::move(topology), config);

  exp::run_options obs_options;
  obs_options.metrics_path = args.get("metrics", "");
  obs_options.trace_path = args.get("trace", "");
  exp::obs_session session(obs_options);

  if (!manager.assign(set.flows)) {
    std::cout << "UNSCHEDULABLE at admission (first failing flow "
              << manager.placed() << ")\n";
    return 1;
  }

  table t({"epoch", "network PDR", "silent", "dead", "rerouted", "shed",
           "action"});
  const auto& view = manager.view();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    sim::sim_config sim_config;
    sim_config.runs = runs_per_epoch;
    sim_config.seed = seed;
    if (args.get_bool("wifi", false))
      sim_config.interferers =
          sim::one_interferer_per_floor(view.topology, 0.3, 8.0);
    sim_config.faults = sim::slice_fault_plan(plan, epoch * runs_per_epoch,
                                              runs_per_epoch);
    const auto observed =
        sim::run_simulation(view.topology, manager.schedule(),
                            manager.flows(), view.channels, sim_config);

    const auto outcome = manager.recover(observed.links);
    std::string action = "none";
    if (outcome.rescheduled) {
      action = "rerouted + redistributed";
    } else if (!outcome.silent_nodes.empty()) {
      action = "watchdog counting";
    }
    std::string silent;
    for (node_id n : outcome.silent_nodes)
      silent += (silent.empty() ? "" : ",") + std::to_string(n);
    std::string dead;
    for (node_id n : outcome.newly_dead)
      dead += (dead.empty() ? "" : ",") + std::to_string(n);
    t.add_row({cell(epoch), cell(observed.network_pdr(), 3),
               silent.empty() ? "-" : silent, dead.empty() ? "-" : dead,
               cell(outcome.rerouted_flows.size()),
               cell(outcome.shed_flows.size() +
                    outcome.unroutable_flows.size()),
               action});
  }
  t.print(std::cout);
  std::cout << manager.dead_nodes().size()
            << " node(s) declared dead; " << manager.flows().size() << " of "
            << set.flows.size() << " flows still scheduled.\n";
  session.finish();
  session.print_summary(std::cout);
  return 0;
}

int cmd_bench(const cli_args& args) {
  if (args.get_bool("list", false)) {
    table t({"figure", "summary"});
    for (const auto& def : bench::figures())
      t.add_row({def.id, def.summary});
    t.print(std::cout);
    return 0;
  }
  if (args.has("validate")) {
    const auto path = args.get("validate", "");
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot read " << path << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto doc = exp::json::parse(text.str());
    const auto violations = exp::validate_reports_json(doc);
    if (violations.empty()) {
      std::cout << path << ": schema-valid ("
                << exp::reports_from_json(doc).size() << " report(s), "
                << "schema wsan-bench-report/1)\n";
      return 0;
    }
    for (const auto& violation : violations)
      std::cerr << path << ": " << violation << "\n";
    return 1;
  }

  const auto options = exp::parse_run_options(args);
  std::vector<const bench::figure_def*> selected;
  if (args.get_bool("all", false)) {
    for (const auto& def : bench::figures()) selected.push_back(&def);
  } else if (args.has("figure")) {
    const auto id = args.get("figure", "");
    const auto* def = bench::find_figure(id);
    if (def == nullptr) {
      std::cerr << "unknown figure: " << id << " (see bench --list)\n";
      return 1;
    }
    selected.push_back(def);
  } else {
    std::cerr << "bench needs --list, --validate FILE, --figure ID, or "
                 "--all\n";
    return 2;
  }

  if (options.replay.requested()) {
    if (selected.size() != 1) {
      std::cerr << "--replay needs a single --figure\n";
      return 2;
    }
    if (selected.front()->replay == nullptr) {
      std::cerr << "error: " << selected.front()->id
                << " has no trials to replay\n";
      return 1;
    }
    if (!selected.front()->replay(options, args, std::cout)) {
      std::cerr << "error: --replay point out of range for "
                << selected.front()->id << "\n";
      return 1;
    }
    return 0;
  }

  exp::obs_session session(options);
  std::vector<exp::figure_report> reports;
  for (const auto* def : selected) {
    if (reports.size() > 0) std::cout << "\n";
    const auto start = std::chrono::steady_clock::now();
    auto report = def->run(options, args, std::cout);
    report.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    reports.push_back(std::move(report));
  }
  const auto& snap = session.finish();
  session.print_summary(std::cout);
  if (!options.json_path.empty()) {
    exp::write_reports_file(reports,
                            session.active()
                                ? exp::observability_section(snap)
                                : exp::json::value(nullptr),
                            options.json_path);
    std::cout << "\nwrote " << reports.size() << " JSON report(s) to "
              << options.json_path << "\n";
  }
  return 0;
}

/// Splits a `FILE [--flags]` argv (the obs/health/top/flight pattern,
/// which generic cli_args parsing rejects) into the positional path and
/// the remaining flag arguments.
cli_args positional_file_args(int argc, char** argv, std::string& path) {
  std::vector<const char*> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i > 0 && path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
      continue;
    }
    rest.push_back(argv[i]);
  }
  cli_args args(static_cast<int>(rest.size()), rest.data());
  if (path.empty()) path = args.get("file", "");
  return args;
}

/// Reads and JSON-parses a whole file; throws on parse errors, returns
/// false (after printing) when the file cannot be opened.
bool parse_json_file(const std::string& path, exp::json::value& doc) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  doc = exp::json::parse(text.str());
  return true;
}

/// `wsanctl obs FILE` — renders a metrics snapshot (--metrics output)
/// or a bench report container's observability section as text.
/// `wsanctl obs FILE --payload OUT` extracts a report container's
/// science payload for bit-exact diffing across runs.
int cmd_obs(int argc, char** argv) {
  std::string path;
  const cli_args args = positional_file_args(argc, argv, path);
  if (path.empty()) {
    std::cerr << "obs needs a file: wsanctl obs FILE [--payload OUT]\n";
    return 2;
  }
  exp::json::value doc;
  if (!parse_json_file(path, doc)) return 1;
  if (args.has("payload")) {
    const auto out_path = args.get("payload", "");
    const auto payload = exp::science_payload(doc);
    std::ofstream out(out_path);
    WSAN_REQUIRE(out.good(), "cannot open for writing: " + out_path);
    exp::json::write(payload, out);
    WSAN_REQUIRE(out.good(), "write failed: " + out_path);
    std::cout << "wrote science payload of " << path << " to " << out_path
              << "\n";
    return 0;
  }
  exp::print_obs_document(doc, std::cout);
  return 0;
}

/// True when the file starts with a wsan-series/1 JSONL header line.
bool looks_like_series_file(const std::string& path) {
  std::ifstream in(path);
  std::string first_line;
  if (!in || !std::getline(in, first_line)) return false;
  return first_line.find("\"wsan-series/1\"") != std::string::npos;
}

/// `wsanctl health FILE` — evaluates or renders SLO health. A bench
/// report container carrying a "health" section is rendered as-is; a
/// wsan-series/1 JSONL file is evaluated against the default scenario
/// policy (--pdr-floor overrides the PDR lower bound). Exit 0 iff
/// every verdict is healthy.
int cmd_health(int argc, char** argv) {
  std::string path;
  const cli_args args = positional_file_args(argc, argv, path);
  if (path.empty()) {
    std::cerr << "health needs a file: wsanctl health FILE "
                 "[--pdr-floor P]\n";
    return 2;
  }

  if (looks_like_series_file(path)) {
    const auto series = exp::series_from_jsonl_file(path);
    auto policy = obs::default_scenario_policy();
    const double pdr_floor = args.get_double("pdr-floor", -1.0);
    if (pdr_floor >= 0.0)
      for (auto& rule : policy.rules)
        if (rule.metric == "pdr") rule.bound = pdr_floor;
    const auto verdict = obs::evaluate_slo(series, policy);
    const auto health =
        exp::health_section(policy, {{series.name, verdict}});
    return exp::print_health_block(health, std::cout) ? 0 : 1;
  }

  exp::json::value doc;
  if (!parse_json_file(path, doc)) return 1;
  const auto* health = doc.find("health");
  if (health == nullptr || !health->is_object()) {
    std::cerr << path
              << ": no \"health\" section (re-run the bench with SLO "
                 "evaluation, or pass a wsan-series/1 file)\n";
    return 2;
  }
  bool all_healthy = true;
  for (const auto& [figure, block] : health->as_object()) {
    std::cout << "figure " << figure << "\n";
    if (!exp::print_health_block(block, std::cout)) all_healthy = false;
    std::cout << "\n";
  }
  std::cout << (all_healthy ? "HEALTHY" : "UNHEALTHY")
            << " (" << health->as_object().size() << " figure(s))\n";
  return all_healthy ? 0 : 1;
}

/// `wsanctl top FILE` — per-metric min/mean/max/last plus a sparkline
/// over the windows of a wsan-series/1 JSONL file.
int cmd_top(int argc, char** argv) {
  std::string path;
  positional_file_args(argc, argv, path);
  if (path.empty()) {
    std::cerr << "top needs a file: wsanctl top FILE\n";
    return 2;
  }
  exp::print_series_table(exp::series_from_jsonl_file(path), std::cout);
  return 0;
}

/// `wsanctl flight FILE` — renders a wsan-flight-recorder/1 post-mortem
/// dump: the trigger, the drop counters, the retained windows (as a
/// series table), and the retained event tail.
int cmd_flight(int argc, char** argv) {
  std::string path;
  positional_file_args(argc, argv, path);
  if (path.empty()) {
    std::cerr << "flight needs a file: wsanctl flight FILE\n";
    return 2;
  }
  exp::json::value doc;
  if (!parse_json_file(path, doc)) return 1;
  if (!exp::print_flight_dump(doc, std::cout)) {
    std::cerr << path << ": not a wsan-flight-recorder/1 dump\n";
    return 1;
  }
  return 0;
}

int cmd_diff(const cli_args& args) {
  const auto before = tsch::load_schedule_file(args.get("before", ""));
  const auto after = tsch::load_schedule_file(args.get("after", ""));
  const auto diff = tsch::diff_schedules(before, after);
  std::cout << tsch::render_diff(diff);
  return diff.identical() ? 0 : 1;
}

int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // These commands take a positional file path, which cli_args
  // rejects; parse them separately before the generic flag parsing.
  if (command == "obs") return cmd_obs(argc - 1, argv + 1);
  if (command == "health") return cmd_health(argc - 1, argv + 1);
  if (command == "top") return cmd_top(argc - 1, argv + 1);
  if (command == "flight") return cmd_flight(argc - 1, argv + 1);
  const cli_args args(argc - 1, argv + 1);
  if (command == "topology") return cmd_topology(args);
  if (command == "workload") return cmd_workload(args);
  if (command == "schedule") return cmd_schedule(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "detect") return cmd_detect(args);
  if (command == "fleet") return cmd_fleet(args);
  if (command == "scenario") return cmd_scenario(args);
  if (command == "faults") return cmd_faults(args);
  if (command == "bench") return cmd_bench(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "latency") return cmd_latency(args);
  std::cerr << "unknown command: " << command << "\n";
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  return wsan::run_main(dispatch, argc, argv);
}
