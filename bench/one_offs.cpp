// One-off experiments: the WUSTL topology (Figure 7), rejected links per
// epoch on the scenario engine (Figure 11), the detect-isolate-
// reschedule repair loop, and the observability overhead guard.
#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>

#include "bench_common.h"
#include "common/error.h"
#include "common/table.h"
#include "detect/detector.h"
#include "experiments.h"
#include "graph/algorithms.h"
#include "manager/network_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "sim/interference.h"
#include "stats/summary.h"
#include "tsch/schedule_stats.h"

namespace wsan::bench {

namespace {

// ---------------------------------------------------------------------
// Figure 7: the WUSTL deployment and its graphs on channels 11-14, a
// text rendering of the paper's node map.

exp::figure_report run_fig7(const exp::run_options& options,
                            const cli_args&, std::ostream& out) {
  const std::string title = "WUSTL testbed topology, channels 11-14";
  print_banner(out, "Figure 7", title);
  auto report = new_report("fig7", title, 0, options.jobs, 0);
  const auto env = make_env("wustl", 4);
  const auto& topo = env.topology;

  exp::report_panel floors{"floors", "floor", {}};
  std::map<int, int> per_floor;
  for (node_id v = 0; v < topo.num_nodes(); ++v)
    ++per_floor[topo.position_of(v).floor];
  out << "\nNodes per floor:\n";
  for (const auto& [floor, nodes] : per_floor) {
    out << "  floor " << floor << ": " << nodes << " nodes\n";
    floors.points.push_back({double(floor), {{"nodes", double(nodes)}}});
  }

  out << "\nGraph structure on channels 11-14:\n";
  table t({"graph", "edges", "min degree", "max degree", "diameter",
           "connected"});
  exp::report_panel graphs{"graphs", "graph (0 = communication, 1 = reuse)",
                           {}};
  for (const auto* g : {&env.comm, &env.reuse}) {
    int min_deg = topo.num_nodes();
    int max_deg = 0;
    for (node_id v = 0; v < g->num_nodes(); ++v) {
      min_deg = std::min(min_deg, g->degree(v));
      max_deg = std::max(max_deg, g->degree(v));
    }
    const bool connected = graph::is_connected(*g);
    t.add_row({g == &env.comm ? "communication" : "reuse",
               cell(g->num_edges()), cell(min_deg), cell(max_deg),
               cell(graph::diameter(*g)), connected ? "yes" : "no"});
    graphs.points.push_back(
        {double(graphs.points.size()),
         {{"edges", double(g->num_edges())},
          {"min_degree", double(min_deg)},
          {"max_degree", double(max_deg)},
          {"diameter", double(graph::diameter(*g))},
          {"connected", connected ? 1.0 : 0.0}}});
  }
  t.print(out);

  const auto aps = flow::pick_access_points(env.comm, 2);
  out << "\nAccess points (highest-degree nodes): " << aps[0] << " (degree "
      << env.comm.degree(aps[0]) << "), " << aps[1] << " (degree "
      << env.comm.degree(aps[1]) << ")\n";
  report.parameters = {{"testbed", "wustl"},
                       {"access_points", std::to_string(aps[0]) + "," +
                                             std::to_string(aps[1])}};

  out << "\nDeployment map (floor / x / y in meters):\n";
  table nodes({"node", "floor", "x", "y", "comm degree"});
  for (node_id v = 0; v < topo.num_nodes(); ++v) {
    const auto& pos = topo.position_of(v);
    nodes.add_row({cell(v), cell(pos.floor), cell(pos.x, 1), cell(pos.y, 1),
                   cell(env.comm.degree(v))});
  }
  nodes.print(out);
  report.panels = {std::move(floors), std::move(graphs)};
  return report;
}

// ---------------------------------------------------------------------
// Figure 11: rejected links per epoch under WiFi interference for RA and
// RC schedules. The epochs run on the scenario engine (the churn
// figure's machinery) with churn and the jammer off, so the workload is
// the paper's static one. The engine's re-detection is live: links
// rejected in epoch e are isolated and rescheduled around from epoch
// e+1 on, so the count decays once the manager reacts. --onset-epoch
// switches the interference on later (a detection-latency experiment);
// --arrival-rate adds sustained Poisson arrivals. Replay POINT:EPOCH:
// point 0 is RA, 1 is RC.

constexpr core::algorithm k_fig11_algos[] = {core::algorithm::ra,
                                             core::algorithm::rc};

scenario::scenario_config fig11_config(core::algorithm algo,
                                       const topo::topology& topology,
                                       const exp::run_options& options,
                                       const cli_args& args) {
  const int flows = args.get_int("flows", 50);
  scenario::scenario_config config;
  config.epochs = args.get_int("epochs", 6);
  config.runs_per_epoch = 18;
  config.seed = options.seed_or(13000);
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.flow_params.num_flows = flows;
  config.flow_params.period_min_exp = 0;
  config.flow_params.period_max_exp = 0;
  config.arrivals.rate = args.get_double("arrival-rate", 0.0);
  config.arrivals.max_flows = flows;
  config.departure_rate = 0.0;
  config.churn.crash_rate = 0.0;
  config.manager.num_channels = 4;
  config.manager.scheduler = core::make_config(algo, 4);
  config.sim.interferers = sim::one_interferer_per_floor(
      topology, args.get_double("duty", 0.3),
      args.get_double("wifi-power", 8.0));
  config.interferer_onset_epoch = args.get_int("onset-epoch", 0);
  return config;
}

exp::figure_report run_fig11(const exp::run_options& options,
                             const cli_args& args, std::ostream& out) {
  const std::string title =
      "rejected links per epoch under WiFi interference (WUSTL, channels "
      "11-14)";
  print_banner(out, "Figure 11", title);
  auto report = new_report("fig11", title, options.seed_or(13000),
                           options.jobs, 1);
  report.parameters = {{"testbed", "wustl"},
                       {"flows", std::to_string(args.get_int("flows", 50))}};
  const auto topology = topo::make_wustl();
  out << "\nWorkload: up to " << args.get_int("flows", 50)
      << " peer-to-peer flows at 1 s (scenario engine, shed to fit)\n\n";
  std::vector<scenario::scenario_result> results(2);
  exp::parallel_trials(2, options.jobs, [&](int, int a) {
    results[static_cast<std::size_t>(a)] =
        scenario::scenario_engine(
            topology, fig11_config(k_fig11_algos[a], topology, options, args))
            .run();
  });

  table t({"algo", "epoch", "rejected links", "newly isolated", "flows",
           "PDR"});
  obs::series merged{.name = "fig11", .index_unit = "epoch", .windows = {}};
  for (int a = 0; a < 2; ++a) {
    const std::string algo = core::to_string(k_fig11_algos[a]);
    const auto& result = results[static_cast<std::size_t>(a)];
    exp::report_panel panel{algo, "epoch", {}};
    for (const auto& rec : result.epochs) {
      t.add_row({algo, cell(rec.epoch), cell(rec.rejected_links),
                 cell(rec.newly_isolated), cell(rec.num_flows),
                 cell(rec.pdr, 3)});
      panel.points.push_back(
          {double(rec.epoch),
           {{"rejected_links", double(rec.rejected_links)},
            {"newly_isolated", double(rec.newly_isolated)},
            {"flows", double(rec.num_flows)},
            {"pdr", rec.pdr}}});
    }
    report.panels.push_back(std::move(panel));
    merge_series(merged, scenario::scenario_series(result), algo + ".");
  }
  t.print(out);
  write_series(options, merged, report, out);
  out << "\nPaper shape: RA produces more rejected links than RC under "
         "interference. Unlike the paper's passive classifier, the engine "
         "isolates rejected links and reschedules around them, so the "
         "per-epoch count decays after the first detection instead of "
         "repeating.\n";
  return report;
}

bool replay_fig11(const exp::run_options& options, const cli_args& args,
                  std::ostream& out) {
  const auto& target = options.replay;
  if (target.point >= 2) return false;
  const auto topology = topo::make_wustl();
  const auto config =
      fig11_config(k_fig11_algos[target.point], topology, options, args);
  if (target.trial >= config.epochs) return false;
  const auto rec =
      scenario::scenario_engine::replay(topology, config, target.trial);
  out << "replay point " << target.point << " ("
      << core::to_string(k_fig11_algos[target.point]) << ") epoch "
      << target.trial << ": rejected_links=" << rec.rejected_links
      << " newly_isolated=" << rec.newly_isolated
      << " flows=" << rec.num_flows << " pdr=" << cell(rec.pdr, 3) << "\n";
  return true;
}

// ---------------------------------------------------------------------
// Reschedule recovery: the repair cycle Section VI motivates but stops
// short of. RA schedule -> simulate -> classify -> isolate the rejected
// links -> reschedule -> simulate again (WUSTL, 4 channels). The
// workload is the first of up to 50 draws from one generator seeded
// with --seed that the manager admits; every cycle simulates with seed
// 99, so drift is the same world each time. Replay POINT:0 re-runs the
// loop up to cycle POINT.

struct recovery_cycle {
  std::size_t isolated = 0;
  bool schedulable = false;
  int reusing_cells = 0;
  stats::box_stats pdr;
  int low_prr_links = 0;
};

std::vector<recovery_cycle> run_recovery_cycles(
    const exp::run_options& options, const cli_args& args, int cycles) {
  manager::manager_config config;
  config.num_channels = 4;
  config.scheduler = core::make_config(core::algorithm::ra, 4);
  manager::network_manager manager(topo::make_wustl(), config);
  const auto fsp =
      p2p_params(args.get_int("flows", 50), 0, 0);
  rng gen(options.seed_or(31));
  for (int attempt = 0;; ++attempt) {
    if (manager.assign(manager.generate_workload(fsp, gen).flows)) break;
    if (attempt == 49)
      throw std::runtime_error("recovery: workload unschedulable; lower "
                               "--flows");
  }
  std::vector<recovery_cycle> rows;
  for (int cycle = 0; cycle <= cycles; ++cycle) {
    recovery_cycle row;
    row.isolated = manager.isolated_links().size();
    row.schedulable = manager.schedulable();
    rows.push_back(row);
    if (!row.schedulable) break;
    sim::sim_config sim_config;
    sim_config.runs = args.get_int("runs", 72);
    sim_config.seed = 99;
    const auto result = sim::run_simulation(
        manager.view().topology, manager.schedule(), manager.flows(),
        manager.view().channels, sim_config);
    rows.back().reusing_cells = tsch::reusing_cell_count(manager.schedule());
    rows.back().pdr = stats::make_box_stats(result.flow_pdr);
    for (const auto& report : detect::classify_links(result.links, {}))
      rows.back().low_prr_links +=
          report.verdict != detect::link_verdict::meets_requirement ? 1 : 0;
    if (cycle == cycles) break;
    // maintain() reschedules the held workload when it isolates a link.
    if (!manager.maintain(result.links).rescheduled) break;  // nothing left
  }
  return rows;
}

const std::vector<std::string> k_recovery_columns = {
    "cycle",          "isolated links", "schedulable",  "reusing cells",
    "median PDR",     "worst-case PDR", "links PRR<0.9"};

std::vector<std::string> recovery_row(int cycle, const recovery_cycle& c) {
  if (!c.schedulable)
    return {cell(cycle), cell(c.isolated), "no", "-", "-", "-", "-"};
  return {cell(cycle),           cell(c.isolated),     "yes",
          cell(c.reusing_cells), cell(c.pdr.median, 3), cell(c.pdr.min, 3),
          cell(c.low_prr_links)};
}

exp::figure_report run_recovery(const exp::run_options& options,
                                const cli_args& args, std::ostream& out) {
  const std::string title =
      "detect -> isolate -> reschedule cycle on an RA schedule (WUSTL, 4 "
      "channels)";
  print_banner(out, "Reschedule recovery", title);
  auto report =
      new_report("recovery", title, options.seed_or(31), options.jobs, 1);
  report.parameters = {{"testbed", "wustl"},
                       {"flows", std::to_string(args.get_int("flows", 50))},
                       {"runs", std::to_string(args.get_int("runs", 72))}};
  const auto rows = run_recovery_cycles(
      options, args, args.get_int("cycles", 2));
  table t(k_recovery_columns);
  exp::report_panel panel{"cycles", "cycle", {}};
  for (std::size_t c = 0; c < rows.size(); ++c) {
    const auto& row = rows[c];
    t.add_row(recovery_row(static_cast<int>(c), row));
    exp::report_point rp{double(c),
                         {{"isolated_links", double(row.isolated)},
                          {"schedulable", row.schedulable ? 1.0 : 0.0}}};
    if (row.schedulable)
      rp.values.insert({{"reusing_cells", double(row.reusing_cells)},
                        {"median_pdr", row.pdr.median},
                        {"worst_pdr", row.pdr.min},
                        {"low_prr_links", double(row.low_prr_links)}});
    panel.points.push_back(std::move(rp));
  }
  t.print(out);
  report.panels.push_back(std::move(panel));
  out << "\nExpected: each cycle isolates the links the classifier "
         "rejects; worst-case PDR recovers toward the NR level while most "
         "of the reuse (and its schedulability benefit) is retained.\n";
  return report;
}

bool replay_recovery(const exp::run_options& options, const cli_args& args,
                     std::ostream& out) {
  const auto& target = options.replay;
  if (target.trial != 0 ||
      target.point > args.get_int("cycles", 2))
    return false;
  const auto rows = run_recovery_cycles(options, args, target.point);
  if (target.point >= static_cast<int>(rows.size())) return false;
  out << "replay point " << target.point << " (cycle " << target.point
      << ") trial 0:\n";
  table t(k_recovery_columns);
  t.add_row(recovery_row(target.point, rows.back()));
  t.print(out);
  return true;
}

// ---------------------------------------------------------------------
// Observability overhead guard (DESIGN.md §9). With instrumentation
// compiled in but disabled at run time, the default outside
// --metrics/--trace runs, the RC scheduler on an Indriya p2p workload
// must slow down by less than --threshold (default 3%) against a build
// without instrumentation. One binary cannot time the compiled-out
// scheduler, so the bound is computed: a disabled site costs one relaxed
// atomic load and a branch. The experiment calibrates that cost with a
// loop of disabled spans, counts the sites one schedule executes from
// the metrics an enabled run records, and expresses sites x cost as a
// fraction of the disabled schedule time. The enabled/disabled wall
// ratio is the cost of tracing itself, printed but not asserted. Run
// inside an active obs session it keeps the session's counters and
// leaves it enabled. --trials is the number of workloads.

double best_of(int reps, const flow::flow_set& set, const experiment_env& env,
               const core::scheduler_config& config) {
  double best = time_schedule_ms(set.flows, env.reuse_hops, config);
  for (int rep = 1; rep < reps; ++rep)
    best =
        std::min(best, time_schedule_ms(set.flows, env.reuse_hops, config));
  return best;
}

/// Nanoseconds per disabled instrumentation site: one OBS_SPAN whose
/// enabled() check fails, over enough iterations that the bracketing
/// clock reads are noise.
double disabled_site_cost_ns() {
  constexpr int k_iters = 2'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < k_iters; ++i) {
    OBS_SPAN("bench.obs_overhead.calibration");
  }
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
             .count() /
         k_iters;
}

std::uint64_t counter_value(const obs::snapshot& snap,
                            const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Span entries and histogram observations recorded in a snapshot.
std::uint64_t recorded(const obs::snapshot& snap) {
  std::uint64_t n = 0;
  for (const auto& [name, s] : snap.spans) n += s.count;
  for (const auto& [name, h] : snap.histograms) n += h.total();
  return n;
}

exp::figure_report run_obsoverhead(const exp::run_options& options,
                                   const cli_args& args, std::ostream& out) {
  const int flows = args.get_int("flows", 80);
  const int workloads = options.trials_or(5);
  const int reps = args.get_int("reps", 5);
  const double threshold = args.get_double("threshold", 1.03);
  const std::uint64_t seed = options.seed_or(60);
  const std::string title = "observability cost on the RC scheduler hot path";
  print_banner(out, "Obs overhead", title);
  auto report =
      new_report("obsoverhead", title, seed, options.jobs, workloads);
  report.parameters = {{"flows", std::to_string(flows)},
                       {"reps", std::to_string(reps)}};
  report.measurement_keys = {"disabled_ms", "enabled_ms", "site_ns",
                             "overhead_pct", "tracing_pct"};
  if (!obs::k_compiled_in) {
    out << "observability compiled out (WSAN_OBS=OFF): nothing to "
           "measure\n";
    return report;
  }
  WSAN_REQUIRE(reps >= 1, "--reps must be >= 1");

  const auto env = make_env("indriya", 5);
  const auto fsp = p2p_params(flows, 0, 2);
  const auto config = core::make_config(core::algorithm::rc, 5);
  const bool was_enabled = obs::enabled();
  double disabled_ms = 0.0;
  double enabled_ms = 0.0;
  std::uint64_t sites = 0;
  std::uint64_t rounds = 0;
  int measured = 0;
  for (int w = 0; w < workloads; ++w) {
    rng gen(derive_seed(seed, 0, static_cast<std::uint64_t>(w)));
    flow::flow_set set;
    if (!draw(env, fsp, gen, set)) continue;  // the next seed differs
    // Both configurations per workload, so slow drift on a loaded
    // machine penalizes both sides equally.
    obs::set_enabled(false);
    disabled_ms += best_of(reps, set, env, config);
    const auto before = obs::take_snapshot();
    obs::set_enabled(true);
    enabled_ms += best_of(reps, set, env, config);
    obs::set_enabled(false);
    const auto after = obs::take_snapshot();
    // Per schedule: the recorded sites, plus one flush per counter the
    // schedules moved (a disabled flush is one check, so this bounds it).
    const auto per_schedule = static_cast<std::uint64_t>(reps);
    sites += (recorded(after) - recorded(before)) / per_schedule;
    for (const auto& [name, value] : after.counters)
      sites += value != counter_value(before, name);
    const std::string rounds_name = "core.sched.relaxation_rounds";
    rounds += (counter_value(after, rounds_name) -
               counter_value(before, rounds_name)) /
              per_schedule;
    ++measured;
  }
  obs::set_enabled(was_enabled);
  WSAN_CHECK(measured > 0, "obs overhead: no routable workload generated");

  const double site_ns = disabled_site_cost_ns();
  const double overhead_ms = static_cast<double>(sites) * site_ns / 1e6;
  const double ratio = (disabled_ms + overhead_ms) / disabled_ms;
  const double tracing_pct = (enabled_ms / disabled_ms - 1.0) * 100.0;
  out << "workloads measured    : " << measured << " (" << flows
      << " flows, best-of-" << reps << ")\n"
      << "schedule, obs disabled: " << disabled_ms << " ms total\n"
      << "schedule, obs enabled : " << enabled_ms << " ms total ("
      << tracing_pct << "% tracing cost, informational)\n"
      << "instrumentation sites : " << sites << " @ " << site_ns
      << " ns/site disabled\n"
      << "relaxation rounds     : " << rounds
      << " (counted in scheduler_stats, flushed once per run)\n"
      << "disabled-mode overhead: " << (ratio - 1.0) * 100.0
      << "% of schedule time (threshold " << (threshold - 1.0) * 100.0
      << "%)\n";
  report.panels.push_back(
      {"overhead",
       "workloads",
       {{double(measured),
         {{"sites", double(sites)},
          {"relaxation_rounds", double(rounds)},
          {"disabled_ms", disabled_ms},
          {"enabled_ms", enabled_ms},
          {"site_ns", site_ns},
          {"overhead_pct", (ratio - 1.0) * 100.0},
          {"tracing_pct", tracing_pct}}}}});
  if (ratio > threshold)
    throw std::runtime_error("obs overhead: disabled observability costs " +
                             cell((ratio - 1.0) * 100.0, 2) +
                             "% of schedule time, above the threshold");
  out << "OK: disabled observability overhead within threshold\n";
  return report;
}

}  // namespace

std::vector<figure_def> one_off_figures() {
  return {
      {"fig7", "WUSTL testbed topology, channels 11-14", run_fig7, nullptr},
      {"fig11", "rejected links per epoch under WiFi interference",
       run_fig11, replay_fig11},
      {"recovery", "detect -> isolate -> reschedule repair cycle",
       run_recovery, replay_recovery},
      {"obsoverhead", "disabled observability cost on the RC hot path",
       run_obsoverhead, nullptr},
  };
}

}  // namespace wsan::bench
