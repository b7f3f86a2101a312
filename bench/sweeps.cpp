// Sweep experiments: a randomized unit repeated over a grid.
//
//  * Points x trials sweeps (Figures 1-5, the four ablations, analysis
//    pessimism, optimality gap) run on exp::trial_runner.
//    Trial t of a point draws from derive_seed(seed + seed_offset,
//    stream, t) and folds into an exp::aggregator, so every aggregate is
//    the same at any --jobs, and --replay POINT:TRIAL re-runs one trial.
//    The ρ_t, channel-policy and routing ablations give every point
//    stream 0, so their points compare the same flow sets.
//  * Flow-set sweeps (Figures 8, 9 and 10, the detector, latency,
//    energy) run each condition (a scheduler, or a scheduler and an
//    environment) on the flow sets find_reliability_sets picks, in
//    parallel. --trials is the number of sets, and --replay
//    CONDITION:SET re-runs one unit.
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "bench_common.h"
#include "common/table.h"
#include "core/analysis.h"
#include "core/exhaustive.h"
#include "detect/detector.h"
#include "detect/evaluation.h"
#include "exp/aggregator.h"
#include "experiments.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "tsch/latency.h"
#include "tsch/schedule_stats.h"

namespace wsan::bench {

namespace {

using env_ptr = std::shared_ptr<const experiment_env>;

env_ptr shared_env(const std::string& testbed, int channels) {
  return std::make_shared<const experiment_env>(make_env(testbed, channels));
}

bool schedulable(const experiment_env& env, const flow::flow_set& set,
                 const core::scheduler_config& config) {
  return core::schedule_flows(set.flows, env.reuse_hops, config).schedulable;
}

/// Per-flow PDR summary of one simulation without interferers.
stats::box_stats simulate_box(const experiment_env& env,
                              const tsch::schedule& sched,
                              const flow::flow_set& set, int runs,
                              std::uint64_t seed) {
  sim::sim_config config;
  config.runs = runs;
  config.seed = seed;
  return stats::make_box_stats(
      sim::run_simulation(env.topology, sched, set.flows, env.channels,
                          config)
          .flow_pdr);
}

/// The shares of each value in `exact` plus the share at or above
/// `tail` (Figures 4, 5 and 9).
std::vector<double> shares(const histogram& h, std::vector<int> exact,
                           int tail) {
  std::vector<double> v;
  for (const int value : exact) v.push_back(h.proportion(value));
  double tail_share = 0.0;
  for (const auto& [value, count] : h.bins())
    if (value >= tail)
      tail_share +=
          static_cast<double>(count) / static_cast<double>(h.total());
  v.push_back(tail_share);
  return v;
}

/// Appends `value` to a table row and to the report point.
void put(double value, const std::string& key, int decimals,
         std::vector<std::string>& row, exp::report_point& rp) {
  row.push_back(cell(value, decimals));
  rp.values[key] = value;
}

/// Appends the mean of a value metric; "-" (and no report value) when no
/// trial recorded it.
void put_mean(const exp::aggregator& agg, const std::string& key,
              int decimals, std::vector<std::string>& row,
              exp::report_point& rp) {
  if (agg.value_count(key) == 0)
    row.push_back("-");
  else
    put(agg.mean(key), key, decimals, row, rp);
}

/// Appends count(key) / n with two decimals.
void put_share(const exp::aggregator& agg, const std::string& key, int n,
               std::vector<std::string>& row, exp::report_point& rp) {
  put(static_cast<double>(agg.count(key)) / n, key, 2, row, rp);
}

// ---------------------------------------------------------------------
// Points x trials sweeps.

struct sweep_point {
  std::string label;  ///< names the point in replay output
  double x = 0.0;
  int panel = 0;
  int arg = 0;  ///< the swept parameter: channels, ρ_t, policy, ...
  env_ptr env;
  flow::flow_set_params fsp;
  std::uint64_t seed_offset = 0;
  std::uint64_t stream = 0;
};

/// What both kinds of sweep share: identity, commentary and defaults.
struct sweep_meta {
  std::string id;
  std::string banner;
  std::string title;
  std::string note;  ///< trailing "Expected" / "Paper shape" commentary
  std::uint64_t default_seed = 0;
  int default_trials = 0;  ///< trials per point, or flow sets
  std::map<std::string, std::string> parameters;
};

/// Prints the banner and starts the report of a sweep run.
exp::figure_report begin_run(const sweep_meta& spec,
                             const exp::run_options& options, int trials,
                             std::ostream& out) {
  print_banner(out, spec.banner, spec.title);
  auto report = new_report(spec.id, spec.title,
                           options.seed_or(spec.default_seed), options.jobs,
                           trials);
  report.parameters = spec.parameters;
  return report;
}

struct sweep_panel {
  std::string name;    ///< report panel name
  std::string header;  ///< printed above the panel's table
  std::string x_label;
  std::vector<std::string> columns;
};

struct sweep_spec : sweep_meta {
  std::vector<sweep_panel> panels;
  std::vector<sweep_point> points;
  /// One trial: counts, trial-keyed values and histograms into `local`.
  std::function<void(const sweep_point&, int trial, rng&, exp::aggregator&)>
      trial;
  /// Adds a point's table row(s) and report values from its aggregate
  /// over `trials` trials; false drops the point (nothing generated).
  std::function<bool(const sweep_point&, const exp::aggregator&,
                     int trials, table&, exp::report_point&)>
      emit;
};

exp::figure_report run_spec(const sweep_spec& spec,
                             const exp::run_options& options,
                             std::ostream& out) {
  const int trials = options.trials_or(spec.default_trials);
  const std::uint64_t seed = options.seed_or(spec.default_seed);
  auto report = begin_run(spec, options, trials, out);
  const exp::trial_runner runner(options.jobs);
  for (std::size_t pi = 0; pi < spec.panels.size(); ++pi) {
    const auto& sp = spec.panels[pi];
    out << sp.header;
    table t(sp.columns);
    exp::report_panel panel{sp.name, sp.x_label, {}};
    for (const auto& p : spec.points) {
      if (p.panel != static_cast<int>(pi)) continue;
      const auto agg = runner.run_point<exp::aggregator>(
          seed + p.seed_offset, p.stream, trials,
          [&](int trial, rng& gen, exp::aggregator& local) {
            spec.trial(p, trial, gen, local);
          });
      exp::report_point rp{p.x, {}};
      if (spec.emit(p, agg, trials, t, rp))
        panel.points.push_back(std::move(rp));
    }
    t.print(out);
    report.panels.push_back(std::move(panel));
  }
  out << spec.note;
  return report;
}

bool replay_spec(const sweep_spec& spec, const exp::run_options& options,
                 std::ostream& out) {
  const auto& target = options.replay;
  if (target.point >= static_cast<int>(spec.points.size()) ||
      target.trial >= options.trials_or(spec.default_trials))
    return false;
  const auto& p = spec.points[static_cast<std::size_t>(target.point)];
  const auto local = exp::trial_runner::replay_trial<exp::aggregator>(
      options.seed_or(spec.default_seed) + p.seed_offset, p.stream,
      target.trial, [&](int trial, rng& gen, exp::aggregator& result) {
        spec.trial(p, trial, gen, result);
      });
  out << "replay point " << target.point << " (" << p.label << ") trial "
      << target.trial << ":\n";
  table t(spec.panels[static_cast<std::size_t>(p.panel)].columns);
  exp::report_point rp;
  if (spec.emit(p, local, 1, t, rp))
    t.print(out);
  else
    out << "  unroutable draw: no workload generated\n";
  return true;
}

/// A one-panel sweep (the ablations and extensions).
sweep_spec single_panel(std::string id, std::string banner,
                        std::uint64_t seed, int trials, std::string header,
                        std::string x_label,
                        std::vector<std::string> columns) {
  sweep_spec spec;
  spec.id = std::move(id);
  spec.banner = std::move(banner);
  spec.default_seed = seed;
  spec.default_trials = trials;
  spec.panels = {{"sweep", std::move(header), std::move(x_label),
                  std::move(columns)}};
  return spec;
}

// Figures 1-3: the share of flow sets NR, RA and RC schedule. Point p
// (numbered across the panels) draws trial t from derive_seed(seed, p,
// t).
struct ratio_panel {
  std::string name;  ///< report panel name; the printed header adds to it
  std::string detail;
  bool vary_flows;  ///< x is the flow count at 5 channels, else channels
  int min_exp;
  int max_exp;
};

sweep_spec ratio_spec(std::string id, std::string title, std::string note,
                      std::uint64_t seed, const std::string& testbed,
                      flow::traffic_type type, int fixed_flows,
                      const std::vector<ratio_panel>& panels,
                      std::vector<int> flow_counts,
                      const exp::run_options& options) {
  const int trials = options.trials_or(50);
  sweep_spec spec;
  spec.id = id;
  spec.banner = "Figure " + id.substr(3);
  spec.title = std::move(title);
  spec.note = std::move(note);
  spec.default_seed = seed;
  spec.default_trials = 50;
  spec.parameters = {
      {"testbed", testbed},
      {"traffic",
       type == flow::traffic_type::peer_to_peer ? "p2p" : "centralized"},
      {"flows", std::to_string(fixed_flows)}};
  std::map<int, env_ptr> envs;
  const auto env = [&](int channels) {
    auto& e = envs[channels];
    if (!e) e = shared_env(testbed, channels);
    return e;
  };
  for (const auto& panel : panels) {
    const std::string x_label = panel.vary_flows ? "#flows" : "#channels";
    const int pi = static_cast<int>(spec.panels.size());
    spec.panels.push_back({panel.name,
                           "\nPanel " + panel.name + panel.detail + ", " +
                               std::to_string(trials) +
                               " flow sets per point\n",
                           x_label,
                           {x_label, "NR", "RA", "RC"}});
    auto fsp = p2p_params(fixed_flows, panel.min_exp, panel.max_exp);
    fsp.type = type;
    std::vector<int> xs = flow_counts;
    if (!panel.vary_flows) xs = {3, 4, 5, 6, 7, 8};
    for (const int x : xs) {
      if (panel.vary_flows) fsp.num_flows = x;
      const int channels = panel.vary_flows ? 5 : x;
      spec.points.push_back(
          {testbed + ", " + std::to_string(channels) + " channels, x=" +
               std::to_string(x),
           double(x), pi, x, env(channels), fsp, 0,
           static_cast<std::uint64_t>(spec.points.size())});
    }
  }
  spec.trial = [](const sweep_point& p, int, rng& gen,
                  exp::aggregator& local) {
    const auto outcome = run_ratio_trial(*p.env, p.fsp, 2, gen);
    local.add_count("nr", outcome.nr_ok ? 1 : 0);
    local.add_count("ra", outcome.ra_ok ? 1 : 0);
    local.add_count("rc", outcome.rc_ok ? 1 : 0);
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg,
                 int trials, table& t, exp::report_point& rp) {
    std::vector<std::string> row = {cell(p.arg)};
    for (const char* key : {"nr", "ra", "rc"}) {
      const int ok = static_cast<int>(agg.count(key));
      row.push_back(ratio_cell(ok, trials));
      add_ratio(rp, key, ok, trials);
    }
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

/// Figures 1 and 2: Indriya; panels (a) and (b) vary the channels at two
/// period ranges, panel (c) the flows at 5 channels.
sweep_spec indriya_spec(bool p2p, const exp::run_options& options,
                        const cli_args& args) {
  const int flows = args.get_int("flows", p2p ? 60 : 40);
  const std::string fixed = ", " + std::to_string(flows) + " flows";
  std::vector<int> flow_counts;
  for (int f = p2p ? 40 : 10; f <= (p2p ? 160 : 60); f += p2p ? 20 : 10)
    flow_counts.push_back(f);
  return ratio_spec(
      p2p ? "fig2" : "fig1",
      p2p ? "schedulable ratio, peer-to-peer traffic (Indriya)"
          : "schedulable ratio, centralized traffic (Indriya)",
      p2p ? "\nPaper shape: the peer-to-peer margin of RA/RC over NR is "
            "larger than under centralized traffic; with the tight period "
            "range NR collapses while RA/RC stay near 100% until very high "
            "loads.\n"
          : "\nPaper shape: RA and RC track each other and dominate NR, "
            "most visibly at 3-5 channels and high flow counts.\n",
      p2p ? 902 : 901, "indriya",
      p2p ? flow::traffic_type::peer_to_peer
          : flow::traffic_type::centralized,
      flows,
      {{"(a) P=[2^0,2^2]s", fixed, false, 0, 2},
       {"(b) P=[2^-1,2^3]s", fixed, false, -1, 3},
       {"(c) varying flows", ", 5 channels, P=[2^0,2^2]s", true, 0, 2}},
      flow_counts, options);
}

sweep_spec fig1_spec(const exp::run_options& options, const cli_args& args) {
  return indriya_spec(false, options, args);
}
sweep_spec fig2_spec(const exp::run_options& options, const cli_args& args) {
  return indriya_spec(true, options, args);
}

/// Figure 3: WUSTL, peer-to-peer; channels, then flows at 5 channels.
sweep_spec fig3_spec(const exp::run_options& options, const cli_args& args) {
  const int flows = args.get_int("flows", 90);
  return ratio_spec(
      "fig3", "schedulable ratio, peer-to-peer traffic (WUSTL)",
      "\nPaper shape: same ordering as on Indriya — RA/RC over NR; RC may "
      "trail RA slightly in the worst case (the paper reports up to 22% on "
      "this testbed).\n",
      903, "wustl", flow::traffic_type::peer_to_peer, flows,
      {{"(a) varying channels",
        ", " + std::to_string(flows) + " flows, P=[2^0,2^2]s", false, 0, 2},
       {"(b) varying flows", ", 5 channels, P=[2^0,2^2]s", true, 0, 2}},
      {20, 40, 60, 80, 100, 120}, options);
}

// Figures 4 and 5: the Tx-per-channel and reuse hop-count distributions
// of RA and RC on Indriya over 3-6 channels. Trial t at c channels
// draws from derive_seed(seed + c, 0, t) in both traffic panels.
sweep_spec distribution_spec(bool hops, const exp::run_options& options,
                             const cli_args& args) {
  const int trials = options.trials_or(30);
  const int centralized = args.get_int("flows-centralized", 30);
  const int p2p = args.get_int("flows-p2p", 60);
  sweep_spec spec;
  spec.id = hops ? "fig5" : "fig4";
  spec.banner = hops ? "Figure 5" : "Figure 4";
  spec.title = hops ? "channel-reuse hop count, RA vs RC (Indriya)"
                    : "transmissions per channel, RA vs RC (Indriya)";
  spec.note =
      hops ? "\nPaper shape: under peer-to-peer traffic RC's reuse "
             "distribution shifts toward larger hop counts (mode at 3) "
             "while RA concentrates at the minimum of 2; under "
             "centralized traffic both are dominated by 2-hop reuse.\n"
           : "\nPaper shape: RC has a higher share of 1 Tx/channel (no "
             "reuse) than RA, clearest under peer-to-peer traffic and "
             "more channels; when a channel is reused RC stacks fewer "
             "transmissions on it.\n";
  spec.default_seed = hops ? 8000 : 7000;
  spec.default_trials = 30;
  spec.parameters = {{"testbed", "indriya"},
                     {"flows-centralized", std::to_string(centralized)},
                     {"flows-p2p", std::to_string(p2p)}};
  const auto columns =
      hops ? std::vector<std::string>{"#channels", "algo", "2 hops",
                                      "3 hops", "4+ hops", "mean hops"}
           : std::vector<std::string>{"#channels", "algo", "1 Tx", "2 Tx",
                                      "3 Tx", "4+ Tx", "mean Tx/channel"};
  std::vector<env_ptr> envs;
  for (int ch = 3; ch <= 6; ++ch) envs.push_back(shared_env("indriya", ch));
  for (int pi = 0; pi < 2; ++pi) {
    const bool p2p_panel = (pi == 0) == hops;  // Figure 5 leads with p2p
    const std::string name = std::string(pi == 0 ? "(a) " : "(b) ") +
                             (p2p_panel ? "peer-to-peer" : "centralized");
    auto fsp = p2p_params(p2p_panel ? p2p : centralized, 0, 2);
    if (!p2p_panel) fsp.type = flow::traffic_type::centralized;
    spec.panels.push_back({name,
                           "\nPanel " + name + ", " +
                               std::to_string(fsp.num_flows) + " flows, " +
                               std::to_string(trials) +
                               " flow sets per channel count\n",
                           "#channels", columns});
    for (int ch = 3; ch <= 6; ++ch)
      spec.points.push_back({name + ", " + std::to_string(ch) + " channels",
                             double(ch), pi, ch,
                             envs[static_cast<std::size_t>(ch - 3)], fsp,
                             static_cast<std::uint64_t>(ch), 0});
  }
  spec.trial = [hops](const sweep_point& p, int, rng& gen,
                      exp::aggregator& local) {
    efficiency_accumulator acc;
    run_ratio_trial(*p.env, p.fsp, 2, gen, &acc);
    local.add_histogram("ra", hops ? acc.ra_hop_count : acc.ra_tx_per_channel);
    local.add_histogram("rc", hops ? acc.rc_hop_count : acc.rc_tx_per_channel);
  };
  spec.emit = [hops](const sweep_point& p, const exp::aggregator& agg, int,
                     table& t, exp::report_point& rp) {
    const std::vector<std::string> keys =
        hops ? std::vector<std::string>{"hops2", "hops3", "hops4plus"}
             : std::vector<std::string>{"tx1", "tx2", "tx3", "tx4plus"};
    for (const std::string algo : {"ra", "rc"}) {
      std::vector<std::string> row = {cell(p.arg),
                                      algo == "ra" ? "RA" : "RC"};
      const histogram* h = agg.hist(algo);
      if (h == nullptr || h->empty()) {
        row.resize(keys.size() + 3, "-");
        if (hops) row.back() = "no reuse";
        t.add_row(std::move(row));
        continue;
      }
      const auto v = hops ? shares(*h, {2, 3}, 4) : shares(*h, {1, 2, 3}, 4);
      for (std::size_t i = 0; i < v.size(); ++i)
        put(v[i], algo + "_" + keys[i], 3, row, rp);
      put(h->mean(), algo + "_mean", hops ? 2 : 3, row, rp);
      t.add_row(std::move(row));
    }
    return true;
  };
  return spec;
}

sweep_spec fig4_spec(const exp::run_options& options, const cli_args& args) {
  return distribution_spec(false, options, args);
}
sweep_spec fig5_spec(const exp::run_options& options, const cli_args& args) {
  return distribution_spec(true, options, args);
}

// Ablation: the conservatism dial ρ_t (DESIGN.md §6.1), RC on WUSTL with
// 3 channels; schedulability against simulated worst-case reliability.
// Trials with index < 10 that RC schedules are simulated.
sweep_spec rho_spec(const exp::run_options& options, const cli_args& args) {
  const int trials = options.trials_or(30);
  const int flows = args.get_int("flows", 45);
  auto spec = single_panel(
      "rho", "Ablation rho_t", 15000, 30,
      "\n" + std::to_string(flows) + " flows, " + std::to_string(trials) +
          " flow sets per point; RC at each rho_t\n\n",
      "rho_t",
      {"rho_t", "schedulable ratio", "mean reuse placements",
       "mean worst-case PDR", "mean median PDR"});
  spec.title =
      "schedulability vs reliability as the reuse hop threshold tightens "
      "(WUSTL, 3 channels)";
  spec.note =
      "\nExpected: larger rho_t -> fewer schedulable sets but better "
      "worst-case PDR; rho_t = 2 (the paper's choice) maximizes capacity "
      "at a modest reliability cost.\n";
  spec.parameters = {{"testbed", "wustl"}, {"flows", std::to_string(flows)}};
  const auto env = shared_env("wustl", 3);
  for (int rho = 1; rho <= 5; ++rho)
    spec.points.push_back({"rho_t " + std::to_string(rho), double(rho), 0,
                           rho, env, p2p_params(flows, -1, 1), 0, 0});
  spec.trial = [](const sweep_point& p, int trial, rng& gen,
                  exp::aggregator& local) {
    flow::flow_set set;
    if (!draw(*p.env, p.fsp, gen, set)) return;
    const auto result = core::schedule_flows(
        set.flows, p.env->reuse_hops,
        core::make_config(core::algorithm::rc, 3, p.arg));
    if (!result.schedulable) return;
    local.add_count("schedulable");
    local.add_value("reuse_placements", trial,
                    static_cast<double>(result.stats.reuse_placements));
    if (trial >= 10) return;
    const auto box = simulate_box(*p.env, result.sched, set, 30,
                                  900 + static_cast<std::uint64_t>(trial));
    local.add_value("worst_pdr", trial, box.min);
    local.add_value("median_pdr", trial, box.median);
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg,
                 int trials, table& t, exp::report_point& rp) {
    std::vector<std::string> row = {cell(p.arg)};
    put_share(agg, "schedulable", trials, row, rp);
    put_mean(agg, "reuse_placements", 1, row, rp);
    put_mean(agg, "worst_pdr", 3, row, rp);
    put_mean(agg, "median_pdr", 3, row, rp);
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

// Ablation: the channel-selection policy inside findSlot (DESIGN.md
// §6.2), RA on WUSTL with 4 channels. The paper picks the least-loaded
// channel (Section V-C); first-fit and max-reuse are the alternatives.
// Trials with index < 8 that RA schedules are simulated.
sweep_spec policy_spec(const exp::run_options& options,
                       const cli_args& args) {
  const int trials = options.trials_or(25);
  const int flows = args.get_int("flows", 45);
  auto spec = single_panel(
      "policy", "Ablation channel policy", 16000, 25,
      "\n" + std::to_string(flows) + " flows, " + std::to_string(trials) +
          " flow sets per policy\n\n",
      "policy",
      {"policy", "schedulable", "mean Tx/cell", "share 1 Tx",
       "mean worst-case PDR"});
  spec.title =
      "min-load (paper) vs first-fit vs max-reuse (WUSTL, 4 channels, RA)";
  spec.note =
      "\nExpected: min-load spreads transmissions (highest share of "
      "exclusive cells) and preserves worst-case PDR; max-reuse stacks "
      "cells and pays in reliability.\n";
  spec.parameters = {{"testbed", "wustl"}, {"flows", std::to_string(flows)}};
  const auto env = shared_env("wustl", 4);
  const core::channel_policy policies[] = {core::channel_policy::min_load,
                                           core::channel_policy::first_fit,
                                           core::channel_policy::max_reuse};
  for (int i = 0; i < 3; ++i)
    spec.points.push_back({core::to_string(policies[i]), double(i), 0, i,
                           env, p2p_params(flows, -1, 0), 0, 0});
  spec.trial = [policies](const sweep_point& p, int trial, rng& gen,
                          exp::aggregator& local) {
    flow::flow_set set;
    if (!draw(*p.env, p.fsp, gen, set)) return;
    auto config = core::make_config(core::algorithm::ra, 4);
    config.policy = policies[p.arg];
    const auto result =
        core::schedule_flows(set.flows, p.env->reuse_hops, config);
    if (!result.schedulable) return;
    local.add_count("schedulable");
    const auto hist = tsch::tx_per_channel_histogram(result.sched);
    local.add_value("mean_tx_per_cell", trial, hist.mean());
    local.add_value("share_1tx", trial, hist.proportion(1));
    if (trial < 8)
      local.add_value("worst_pdr", trial,
                      simulate_box(*p.env, result.sched, set, 25,
                                   500 + static_cast<std::uint64_t>(trial))
                          .min);
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg,
                 int trials, table& t, exp::report_point& rp) {
    std::vector<std::string> row = {p.label};
    put_share(agg, "schedulable", trials, row, rp);
    put_mean(agg, "mean_tx_per_cell", 3, row, rp);
    put_mean(agg, "share_1tx", 3, row, rp);
    put_mean(agg, "worst_pdr", 3, row, rp);
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

struct named_algo {
  core::algorithm algo;
  const char* key;
};
constexpr named_algo k_three_algos[] = {{core::algorithm::nr, "nr"},
                                        {core::algorithm::ra, "ra"},
                                        {core::algorithm::rc, "rc"}};

// Ablation: the cost of WirelessHART's management-slot reservation
// (advertisement and discovery traffic, which the detector's
// contention-free samples rely on, Section VI). Reserving every k-th
// slot removes 1/k of the data capacity (WUSTL, 4 channels).
sweep_spec management_spec(const exp::run_options& options,
                           const cli_args& args) {
  const int trials = options.trials_or(30);
  const int flows = args.get_int("flows", 40);
  auto spec = single_panel(
      "management", "Ablation management slots", 29000, 30,
      "\n" + std::to_string(flows) + " flows, " + std::to_string(trials) +
          " flow sets per point; overhead = 1/period\n\n",
      "reservation period", {"reservation period", "overhead", "NR", "RA",
                             "RC"});
  spec.title =
      "schedulable ratio vs management-slot reservation (WUSTL, 4 "
      "channels)";
  spec.note =
      "\nExpected: reuse absorbs the reserved capacity — RA/RC tolerate "
      "far heavier management overhead than NR before their schedulable "
      "ratio degrades.\n";
  spec.parameters = {{"testbed", "wustl"}, {"flows", std::to_string(flows)}};
  const auto env = shared_env("wustl", 4);
  for (const int period : {0, 50, 20, 10, 5})
    spec.points.push_back({"period " + std::to_string(period), double(period),
                           0, period, env, p2p_params(flows, -1, 0), 0,
                           static_cast<std::uint64_t>(spec.points.size())});
  spec.trial = [](const sweep_point& p, int, rng& gen,
                  exp::aggregator& local) {
    flow::flow_set set;
    if (!draw(*p.env, p.fsp, gen, set)) return;
    local.add_count("generated");
    for (const auto& [algo, key] : k_three_algos) {
      auto config = core::make_config(algo, 4);
      config.management_slot_period = p.arg;
      local.add_count(key, schedulable(*p.env, set, config) ? 1 : 0);
    }
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg, int,
                 table& t, exp::report_point& rp) {
    const int generated = static_cast<int>(agg.count("generated"));
    if (generated == 0) return false;
    std::vector<std::string> row = {
        p.arg == 0 ? "off" : cell(p.arg),
        p.arg == 0 ? "0%" : cell(100.0 / p.arg, 0) + "%"};
    for (const auto& named : k_three_algos) {
      const int ok = static_cast<int>(agg.count(named.key));
      row.push_back(ratio_cell(ok, generated));
      add_ratio(rp, named.key, ok, generated);
    }
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

// Ablation: hop-count routing (the paper's network manager) vs
// ETX-weighted routing under RC (WUSTL, 4 channels). ETX routes detour
// over strong links at the cost of more hops: more transmissions to
// schedule, fewer channel-induced losses. Trials with index < 8 that RC
// schedules are simulated.
sweep_spec routing_spec(const exp::run_options& options,
                        const cli_args& args) {
  const int trials = options.trials_or(25);
  const int flows = args.get_int("flows", 45);
  const int runs = args.get_int("runs", 40);
  auto spec = single_panel(
      "routing", "Ablation routing", 23000, 25,
      "\n" + std::to_string(flows) + " flows, " + std::to_string(trials) +
          " flow sets per metric\n\n",
      "metric",
      {"metric", "schedulable", "mean route links", "mean median PDR",
       "mean worst-case PDR"});
  spec.title = "hop-count vs ETX routes under RC (WUSTL, 4 channels)";
  spec.note =
      "\nExpected: ETX routes are longer (lower schedulability under "
      "load) but avoid grey links, lifting the simulated worst-case PDR — "
      "the paper's hop-count choice trades reliability headroom for "
      "capacity.\n";
  spec.parameters = {{"testbed", "wustl"},
                     {"flows", std::to_string(flows)},
                     {"runs", std::to_string(runs)}};
  const auto env = shared_env("wustl", 4);
  const auto weights = std::make_shared<const flow::etx_weights>(
      env->comm, env->topology, env->channels);
  auto fsp = p2p_params(flows, -1, 0);
  spec.points.push_back({"hop-count", 0.0, 0, 0, env, fsp, 0, 0});
  fsp.metric = flow::route_metric::etx;
  spec.points.push_back({"ETX", 1.0, 0, 1, env, fsp, 0, 0});
  spec.trial = [weights, runs](const sweep_point& p, int trial, rng& gen,
                               exp::aggregator& local) {
    flow::flow_set set;
    if (!draw(*p.env, p.fsp, gen, set, weights.get())) return;
    std::size_t links = 0;
    for (const auto& f : set.flows) links += f.route.size();
    local.add_value("route_links", trial, static_cast<double>(links));
    local.add_count("flows", static_cast<std::int64_t>(set.flows.size()));
    const auto result = core::schedule_flows(
        set.flows, p.env->reuse_hops,
        core::make_config(core::algorithm::rc, 4));
    if (!result.schedulable) return;
    local.add_count("schedulable");
    if (trial >= 8) return;
    const auto box = simulate_box(*p.env, result.sched, set, runs,
                                  700 + static_cast<std::uint64_t>(trial));
    local.add_value("median_pdr", trial, box.median);
    local.add_value("worst_pdr", trial, box.min);
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg,
                 int trials, table& t, exp::report_point& rp) {
    std::vector<std::string> row = {p.label};
    put_share(agg, "schedulable", trials, row, rp);
    if (agg.count("flows") == 0)
      row.push_back("-");
    else
      put(agg.sum("route_links") / static_cast<double>(agg.count("flows")),
          "mean_route_links", 2, row, rp);
    put_mean(agg, "median_pdr", 3, row, rp);
    put_mean(agg, "worst_pdr", 3, row, rp);
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

// Extension: the response-time analysis (core/analysis.h, after the
// paper's reference [24]) admits workloads without running the
// scheduler, at the price of pessimism. Its acceptance against NR and RC
// (WUSTL, 4 channels, p2p). The analysis is sufficient for NR: a
// workload it admits and NR rejects fails the run.
sweep_spec pessimism_spec(const exp::run_options& options,
                          const cli_args&) {
  const int trials = options.trials_or(40);
  auto spec = single_panel(
      "pessimism", "Analysis pessimism", 25000, 40,
      "\n" + std::to_string(trials) + " flow sets per point\n\n", "#flows",
      {"#flows", "analysis", "NR", "RC", "analysis soundness"});
  spec.title =
      "analytical guarantee vs NR vs RC acceptance (WUSTL, 4 channels, "
      "p2p, P=[2^0,2^2]s)";
  spec.note =
      "\nExpected: analysis <= NR <= RC at every load (the analysis is "
      "sufficient but pessimistic; conservative reuse then extends NR). "
      "'Soundness' flags any workload the analysis admitted that NR "
      "failed to schedule — it must read OK everywhere.\n";
  spec.parameters = {{"testbed", "wustl"}};
  const auto env = shared_env("wustl", 4);
  for (int flows = 10; flows <= 70; flows += 10)
    spec.points.push_back(
        {std::to_string(flows) + " flows", double(flows), 0, flows, env,
         p2p_params(flows, 0, 2), 0,
         static_cast<std::uint64_t>(spec.points.size())});
  spec.trial = [](const sweep_point& p, int, rng& gen,
                  exp::aggregator& local) {
    flow::flow_set set;
    if (!draw(*p.env, p.fsp, gen, set)) return;
    const bool analysis =
        core::analyze_response_times(set.flows, 4).schedulable;
    const bool nr =
        schedulable(*p.env, set, core::make_config(core::algorithm::nr, 4));
    const bool rc =
        schedulable(*p.env, set, core::make_config(core::algorithm::rc, 4));
    local.add_count("analysis", analysis ? 1 : 0);
    local.add_count("nr", nr ? 1 : 0);
    local.add_count("rc", rc ? 1 : 0);
    local.add_count("unsound", analysis && !nr ? 1 : 0);
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg,
                 int trials, table& t, exp::report_point& rp) {
    std::vector<std::string> row = {cell(p.arg)};
    for (const char* key : {"analysis", "nr", "rc"})
      put_share(agg, key, trials, row, rp);
    rp.values["unsound"] = static_cast<double>(agg.count("unsound"));
    row.push_back(agg.count("unsound") == 0 ? "OK" : "VIOLATED");
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

exp::figure_report run_pessimism(const exp::run_options& options,
                                 const cli_args& args, std::ostream& out) {
  auto report = run_spec(pessimism_spec(options, args), options, out);
  for (const auto& point : report.panels.front().points)
    if (point.values.at("unsound") > 0)
      throw std::runtime_error(
          "analysis pessimism: the analysis admitted a workload that NR "
          "rejects at " +
          cell(static_cast<int>(point.x)) + " flows");
  return report;
}

// Extension: on small instances the exhaustive search decides
// feasibility exactly, so acceptance rates measure each greedy
// scheduler's optimality gap (WUSTL, 2 channels).
sweep_spec optimality_spec(const exp::run_options& options,
                           const cli_args& args) {
  const int trials = options.trials_or(30);
  const int budget = args.get_int("budget", 1'000'000);
  auto spec = single_panel(
      "optimality", "Optimality gap", 27000, 30,
      "\n" + std::to_string(trials) +
          " flow sets per point, hyperperiod <= 50 slots\n\n",
      "#flows",
      {"#flows", "feasible", "unknown", "NR", "RA", "RC",
       "RC gap (feasible but rejected)"});
  spec.title =
      "exhaustive feasibility vs NR/RA/RC acceptance (WUSTL, 2 channels, "
      "small instances)";
  spec.note =
      "\nExpected: the greedy schedulers track the exact frontier closely "
      "at low load; the gap column counts workloads where a schedule "
      "exists but RC's greedy fixed-priority search misses it.\n";
  spec.parameters = {{"testbed", "wustl"},
                     {"budget", std::to_string(budget)}};
  const auto env = shared_env("wustl", 2);
  for (int flows = 4; flows <= 12; flows += 2)
    spec.points.push_back(
        {std::to_string(flows) + " flows", double(flows), 0, flows, env,
         p2p_params(flows, -2, -1), 0,
         static_cast<std::uint64_t>(spec.points.size())});
  spec.trial = [budget](const sweep_point& p, int, rng& gen,
                        exp::aggregator& local) {
    flow::flow_set set;
    if (!draw(*p.env, p.fsp, gen, set)) return;
    local.add_count("generated");
    core::exhaustive_options opts;
    opts.node_budget = budget;
    const auto verdict =
        core::exhaustive_search(set.flows, p.env->reuse_hops, 2, opts)
            .verdict;
    bool rc = false;
    for (const auto& [algo, key] : k_three_algos) {
      rc = schedulable(*p.env, set, core::make_config(algo, 2));
      local.add_count(key, rc ? 1 : 0);  // RC comes last
    }
    local.add_count("feasible",
                    verdict == core::feasibility::feasible ? 1 : 0);
    local.add_count("unknown", verdict == core::feasibility::unknown ? 1 : 0);
    local.add_count("rc_gap",
                    verdict == core::feasibility::feasible && !rc ? 1 : 0);
  };
  spec.emit = [](const sweep_point& p, const exp::aggregator& agg, int,
                 table& t, exp::report_point& rp) {
    const int generated = static_cast<int>(agg.count("generated"));
    if (generated == 0) return false;
    std::vector<std::string> row = {cell(p.arg)};
    for (const char* key : {"feasible", "unknown", "nr", "ra", "rc"})
      put_share(agg, key, generated, row, rp);
    put(static_cast<double>(agg.count("rc_gap")), "rc_gap", 0, row, rp);
    t.add_row(std::move(row));
    return true;
  };
  return spec;
}

// ---------------------------------------------------------------------
// Flow-set sweeps on WUSTL with 4 channels.

struct column {
  std::string header;
  std::string key;
  int decimals;
};

/// Unit values [condition][set][column].
using unit_grid = std::vector<std::vector<std::vector<double>>>;

struct set_sweep_spec : sweep_meta {
  flow::flow_set_params fsp;
  std::vector<std::string> conditions;
  std::vector<column> columns;
  /// One (condition, flow set) unit: one value per column, NaN for "no
  /// value". `seed` is the experiment seed, which also picks the sets.
  std::function<std::vector<double>(const experiment_env&,
                                    const flow::flow_set&, int condition,
                                    int set, std::uint64_t seed)>
      unit;
  /// Custom tables and panels; by default one row per (set, condition)
  /// and one report panel per condition.
  std::function<void(const unit_grid&, std::ostream&, exp::figure_report&)>
      render;
};

/// A flow-set sweep's identity and workload.
set_sweep_spec flow_set_sweep(std::string id, std::string banner,
                              std::uint64_t seed, int sets,
                              flow::flow_set_params fsp,
                              std::vector<std::string> conditions) {
  set_sweep_spec spec;
  spec.id = std::move(id);
  spec.banner = std::move(banner);
  spec.default_seed = seed;
  spec.default_trials = sets;
  spec.fsp = fsp;
  spec.conditions = std::move(conditions);
  return spec;
}

reliability_workloads find_sets(const set_sweep_spec& spec,
                                const experiment_env& env,
                                const exp::run_options& options) {
  return find_reliability_sets(env, spec.fsp,
                               options.trials_or(spec.default_trials),
                               options.seed_or(spec.default_seed), 2, 200,
                               options.jobs);
}

std::string value_cell(double value, int decimals) {
  return std::isnan(value) ? "-" : cell(value, decimals);
}

exp::figure_report run_spec(const set_sweep_spec& spec,
                             const exp::run_options& options,
                             std::ostream& out) {
  const std::uint64_t seed = options.seed_or(spec.default_seed);
  const int sets = options.trials_or(spec.default_trials);
  auto report = begin_run(spec, options, sets, out);
  const auto env = make_env("wustl", 4);
  const auto workloads = find_sets(spec, env, options);
  const int conditions = static_cast<int>(spec.conditions.size());
  out << "\nUsing " << sets << " flow sets of " << workloads.flows_used
      << " flows (each schedulable under NR, RA, and RC)\n\n";
  report.parameters["flows_used"] = std::to_string(workloads.flows_used);

  unit_grid grid(static_cast<std::size_t>(conditions),
                 std::vector<std::vector<double>>(
                     static_cast<std::size_t>(sets)));
  exp::parallel_trials(conditions * sets, options.jobs, [&](int, int u) {
    const auto si = static_cast<std::size_t>(u % sets);
    grid[static_cast<std::size_t>(u / sets)][si] =
        spec.unit(env, workloads.sets[si], u / sets, u % sets, seed);
  });
  if (spec.render) {
    spec.render(grid, out, report);
    out << spec.note;
    return report;
  }
  std::vector<std::string> header = {"flow set", "algo"};
  for (const auto& c : spec.columns) header.push_back(c.header);
  table t(header);
  for (const auto& name : spec.conditions)
    report.panels.push_back({name, "flow set", {}});
  for (int si = 0; si < sets; ++si)
    for (std::size_t c = 0; c < grid.size(); ++c) {
      std::vector<std::string> row = {cell(si + 1), spec.conditions[c]};
      exp::report_point rp{double(si + 1), {}};
      const auto& v = grid[c][static_cast<std::size_t>(si)];
      for (std::size_t i = 0; i < v.size(); ++i) {
        row.push_back(value_cell(v[i], spec.columns[i].decimals));
        if (!std::isnan(v[i])) rp.values[spec.columns[i].key] = v[i];
      }
      t.add_row(std::move(row));
      report.panels[c].points.push_back(std::move(rp));
    }
  t.print(out);
  out << spec.note;
  return report;
}

bool replay_spec(const set_sweep_spec& spec, const exp::run_options& options,
                 std::ostream& out) {
  const auto& target = options.replay;
  if (target.point >= static_cast<int>(spec.conditions.size()) ||
      target.trial >= options.trials_or(spec.default_trials))
    return false;
  const auto env = make_env("wustl", 4);
  const auto workloads = find_sets(spec, env, options);
  const auto v = spec.unit(
      env, workloads.sets[static_cast<std::size_t>(target.trial)],
      target.point, target.trial, options.seed_or(spec.default_seed));
  out << "replay point " << target.point << " ("
      << spec.conditions[static_cast<std::size_t>(target.point)]
      << ") trial " << target.trial << " (flow set " << target.trial + 1
      << "):";
  for (std::size_t i = 0; i < v.size(); ++i)
    out << " " << spec.columns[i].key << "="
        << value_cell(v[i], spec.columns[i].decimals);
  out << "\n";
  return true;
}

core::schedule_result schedule(const experiment_env& env,
                               const flow::flow_set& set,
                               core::algorithm algo) {
  return core::schedule_flows(set.flows, env.reuse_hops,
                              core::make_config(algo, 4));
}

const std::vector<std::string> k_nr_ra_rc = {"NR", "RA", "RC"};

// Figure 8: PDR box plots of NR, RA and RC on distinct flow sets. The
// three algorithms of a set share its simulation seed (a paired
// comparison, like the paper's fixed workloads).
set_sweep_spec fig8_spec(const exp::run_options&, const cli_args& args) {
  const int runs = args.get_int("runs", 100);
  sim::sim_config base;
  base.runs = runs;
  base.capture_threshold_db = args.get_double("capture", 4.0);
  base.temporal_fading_sigma_db = args.get_double("fading", 2.0);
  base.calibration_drift_sigma_db = args.get_double("drift", 6.0);
  base.maintained_drift_sigma_db = args.get_double("mdrift", 1.0);
  base.intermittent_fraction = args.get_double("intermittent", 0.15);
  auto spec = flow_set_sweep(
      "fig8", "Figure 8", 908, 5,
      p2p_params(args.get_int("flows", 50), -1, 0),
      k_nr_ra_rc);
  spec.title = "PDR box plots of NR/RA/RC (WUSTL, 4 channels)";
  spec.note =
      "\nPaper shape: medians of all three are within a couple of "
      "percent; the separator is the worst case — RC's minimum PDR stays "
      "within a few percent of NR's while RA's drops by tens of "
      "percent.\n";
  spec.parameters = {{"testbed", "wustl"}, {"runs", std::to_string(runs)}};
  for (const char* key : {"min", "q1", "median", "q3", "max"})
    spec.columns.push_back({key, key, 3});
  spec.unit = [base](const experiment_env& env, const flow::flow_set& set,
                     int condition, int si, std::uint64_t seed) {
    auto config = base;
    config.seed = derive_seed(seed, 100 + static_cast<std::uint64_t>(si), 0);
    const auto box = stats::make_box_stats(
        sim::run_simulation(
            env.topology,
            schedule(env, set, k_three_algos[condition].algo).sched,
            set.flows, env.channels, config)
            .flow_pdr);
    return std::vector<double>{box.min, box.q1, box.median, box.q3,
                               box.max};
  };
  return spec;
}

// Figure 9: Tx per channel under RA and RC on the Figure 8 reliability
// flow sets.
set_sweep_spec fig9_spec(const exp::run_options&, const cli_args& args) {
  auto spec = flow_set_sweep(
      "fig9", "Figure 9", 11000, 5,
      p2p_params(args.get_int("flows", 50), -1, 0),
      {"RA", "RC"});
  spec.title =
      "Tx per channel under RA and RC, reliability flow sets (WUSTL, 4 "
      "channels)";
  spec.note =
      "\nPaper shape: RC's distribution is dominated by 1 Tx/channel "
      "(reuse only where laxity demanded it) while RA shares channels "
      "across many more cells — the paper reports 95 links in reuse for "
      "RA vs 20 for RC.\n";
  spec.parameters = {{"testbed", "wustl"}};
  spec.columns = {{"1 Tx", "tx1", 3},
                  {"2 Tx", "tx2", 3},
                  {"3+ Tx", "tx3plus", 3},
                  {"reusing cells", "reusing_cells", 0},
                  {"links in reuse", "links_in_reuse", 0}};
  spec.unit = [](const experiment_env& env, const flow::flow_set& set,
                 int condition, int, std::uint64_t) {
    const auto sched =
        schedule(env, set, k_three_algos[1 + condition].algo).sched;
    auto v = shares(tsch::tx_per_channel_histogram(sched), {1, 2}, 3);
    v.push_back(static_cast<double>(tsch::reusing_cell_count(sched)));
    v.push_back(static_cast<double>(tsch::links_in_reuse_count(sched)));
    return v;
  };
  return spec;
}

/// One simulation of a reliability flow set under an RA or RC schedule:
/// `epochs` epochs of 18 executions, WiFi (one interferer per floor) on
/// when asked.
sim::sim_result simulate_epochs(const experiment_env& env,
                                const tsch::schedule& sched,
                                const flow::flow_set& set, int epochs,
                                std::uint64_t seed, bool wifi, double duty,
                                double power) {
  sim::sim_config config;
  config.runs = epochs * 18;
  config.seed = seed;
  if (wifi)
    config.interferers =
        sim::one_interferer_per_floor(env.topology, duty, power);
  return sim::run_simulation(env.topology, sched, set.flows, env.channels,
                             config);
}

// Figure 10 and the Section VII-E counts: the links that fail the
// reliability requirement under RA and RC, clean and under WiFi
// interference (6 epochs of 18 executions, alpha = 0.05, PRR_t = 0.9),
// split by verdict (rejected: degraded by reuse; accepted: degraded by
// something else), with the mean PRRs of each class in reuse slots and
// in contention-free ("free") slots.
set_sweep_spec fig10_spec(const exp::run_options&, const cli_args& args) {
  const int epochs = args.get_int("epochs", 6);
  const double duty = args.get_double("duty", 0.3);
  const double power = args.get_double("wifi-power", 8.0);
  auto spec = flow_set_sweep(
      "fig10", "Figure 10", 13000, 1,
      p2p_params(args.get_int("flows", 50), 0, 0),
      {"RA clean", "RA WiFi", "RC clean", "RC WiFi"});
  spec.title =
      "PRR of rejected vs accepted low-reliability links (WUSTL, channels "
      "11-14)";
  spec.note =
      "\nPaper shape: rejected links look healthy on a contention-free "
      "channel but poor under reuse; accepted links are poor in both "
      "(external interference). RA exposes far more links to reuse than "
      "RC, and RC has few or no failing links in the clean "
      "environment.\n";
  spec.parameters = {{"testbed", "wustl"},
                     {"epochs", std::to_string(epochs)}};
  spec.columns = {{"links in reuse", "links_in_reuse", 0},
                  {"PRR<0.9", "low_prr", 0},
                  {"rejected", "rejected", 0},
                  {"accepted", "accepted", 0},
                  {"rej. PRR reuse", "rejected_prr_reuse", 3},
                  {"rej. PRR free", "rejected_prr_cf", 3},
                  {"acc. PRR reuse", "accepted_prr_reuse", 3},
                  {"acc. PRR free", "accepted_prr_cf", 3}};
  spec.unit = [=](const experiment_env& env, const flow::flow_set& set,
                  int condition, int, std::uint64_t) {
    const auto sched =
        schedule(env, set, k_three_algos[1 + condition / 2].algo).sched;
    const auto result = simulate_epochs(env, sched, set, epochs, 4242,
                                        condition % 2 == 1, duty, power);
    std::vector<double> v(8, 0.0);
    v[0] = static_cast<double>(tsch::links_in_reuse_count(sched));
    for (const auto& r : detect::classify_links(result.links, {})) {
      if (r.verdict == detect::link_verdict::meets_requirement) continue;
      v[1] += 1;
      const bool reuse = r.verdict == detect::link_verdict::degraded_by_reuse;
      if (!reuse && r.verdict != detect::link_verdict::degraded_by_other)
        continue;
      v[reuse ? 2 : 3] += 1;
      v[reuse ? 4 : 6] += r.prr_reuse;
      v[reuse ? 5 : 7] += r.prr_contention_free;
    }
    for (std::size_t cls : {2, 3})  // PRR sums -> means over the class
      for (std::size_t i = 2 * cls; i < 2 * cls + 2; ++i)
        v[i] = v[cls] == 0 ? std::nan("") : v[i] / v[cls];
    return v;
  };
  return spec;
}

constexpr detect::detection_test k_tests[] = {
    detect::detection_test::kolmogorov_smirnov,
    detect::detection_test::mann_whitney};

// Detector quality: precision and recall of the detection policy (K-S
// and Mann-Whitney) against the simulator's ground truth, on RA
// schedules, clean and under WiFi. A set's clean and WiFi runs share
// their simulation seed; confusion counts add over the sets.
set_sweep_spec detector_spec(const exp::run_options&, const cli_args& args) {
  const int epochs = args.get_int("epochs", 6);
  auto spec = flow_set_sweep(
      "detector", "Detector quality", 917, 3,
      p2p_params(args.get_int("flows", 50), 0, 0),
      {"clean", "WiFi"});
  spec.title = "detection policy precision/recall vs ground truth";
  spec.note =
      "\nExpected: high precision/recall in the clean environment; under "
      "WiFi the task is harder (links suffer both causes at once) but the "
      "classifier should remain clearly better than chance. K-S and "
      "Mann-Whitney behave similarly here; K-S additionally reacts to "
      "shape changes, which justifies the paper's choice.\n";
  spec.parameters = {{"testbed", "wustl"},
                     {"epochs", std::to_string(epochs)}};
  for (const auto test : k_tests)
    for (const char* key : {"tp", "fp", "fn", "tn", "scored_links"})
      spec.columns.push_back(
          {key, detect::to_string(test) + "_" + key, 0});
  spec.unit = [epochs](const experiment_env& env, const flow::flow_set& set,
                       int condition, int si, std::uint64_t seed) {
    const auto result = simulate_epochs(
        env, schedule(env, set, core::algorithm::ra).sched, set, epochs,
        derive_seed(seed, 300 + static_cast<std::uint64_t>(si), 0),
        condition == 1, 0.3, 8.0);
    std::vector<double> v;
    for (const auto test : k_tests) {
      detect::detection_policy policy;
      policy.test = test;
      const auto s = detect::score_detection(
          detect::classify_links(result.links, policy), result.links);
      for (const auto n : {s.true_positives, s.false_positives,
                           s.false_negatives, s.true_negatives,
                           s.scored_links})
        v.push_back(static_cast<double>(n));
    }
    return v;
  };
  spec.render = [](const unit_grid& grid, std::ostream& out,
                   exp::figure_report& report) {
    table t({"test", "environment", "scored links", "TP", "FP", "FN", "TN",
             "precision", "recall", "F1"});
    for (std::size_t ti = 0; ti < 2; ++ti) {
      exp::report_panel panel{detect::to_string(k_tests[ti]), "wifi", {}};
      for (std::size_t c = 0; c < 2; ++c) {
        detect::detector_score total;
        for (const auto& v : grid[c]) {
          const auto n = [&](std::size_t i) {
            return static_cast<int>(v[5 * ti + i]);
          };
          total.true_positives += n(0);
          total.false_positives += n(1);
          total.false_negatives += n(2);
          total.true_negatives += n(3);
          total.scored_links += n(4);
        }
        t.add_row({panel.name, c == 1 ? "WiFi interference" : "clean",
                   cell(total.scored_links), cell(total.true_positives),
                   cell(total.false_positives), cell(total.false_negatives),
                   cell(total.true_negatives), cell(total.precision(), 2),
                   cell(total.recall(), 2), cell(total.f1(), 2)});
        panel.points.push_back(
            {double(c),
             {{"scored_links", double(total.scored_links)},
              {"tp", double(total.true_positives)},
              {"fp", double(total.false_positives)},
              {"fn", double(total.false_negatives)},
              {"tn", double(total.true_negatives)},
              {"precision", total.precision()},
              {"recall", total.recall()},
              {"f1", total.f1()}}});
      }
      report.panels.push_back(std::move(panel));
    }
    t.print(out);
  };
  return spec;
}

// Extension: scheduled end-to-end delay and slack under NR, RA and RC.
// Reuse compresses schedules, so worst-case delays shrink where a
// scheduler reuses.
set_sweep_spec latency_spec(const exp::run_options&, const cli_args& args) {
  auto spec = flow_set_sweep(
      "latency", "Latency", 19000, 5,
      p2p_params(args.get_int("flows", 45), -1, 0),
      k_nr_ra_rc);
  spec.title =
      "scheduled end-to-end delay and slack, NR vs RA vs RC (WUSTL, 4 "
      "channels)";
  spec.note =
      "\nExpected: RA compresses delays the most (earliest-slot "
      "everywhere); RC matches NR when laxity permits and only compresses "
      "where deadlines demanded reuse — conservative in latency exactly "
      "as in reliability.\n";
  spec.parameters = {{"testbed", "wustl"}};
  spec.columns = {{"max worst delay (slots)", "max_worst_delay", 0},
                  {"mean of worst delays", "mean_worst_delay", 1},
                  {"min slack (slots)", "min_slack", 0}};
  spec.unit = [](const experiment_env& env, const flow::flow_set& set,
                 int condition, int, std::uint64_t) {
    const auto latencies = tsch::analyze_latency(
        schedule(env, set, k_three_algos[condition].algo).sched, set.flows);
    double worst_sum = 0.0;
    slot_t min_slack = set.flows.front().deadline;
    for (const auto& lat : latencies) {
      worst_sum += static_cast<double>(lat.worst_delay);
      min_slack = std::min(min_slack, lat.min_slack);
    }
    return std::vector<double>{
        static_cast<double>(tsch::max_worst_delay(latencies)),
        worst_sum / static_cast<double>(latencies.size()),
        static_cast<double>(min_slack)};
  };
  return spec;
}

// Extension: radio energy per delivered packet under NR, RA and RC.
// Reuse does not change how many transmissions are scheduled but how
// many fire: interference-induced failures fire retry slots, and every
// silent retry cell costs its receiver an idle-listen guard window.
set_sweep_spec energy_spec(const exp::run_options&, const cli_args& args) {
  const int runs = args.get_int("runs", 60);
  auto spec = flow_set_sweep(
      "energy", "Energy", 21000, 3,
      p2p_params(args.get_int("flows", 45), -1, 0),
      k_nr_ra_rc);
  spec.title =
      "radio energy per delivered packet, NR vs RA vs RC (WUSTL, 4 "
      "channels)";
  spec.note =
      "\nExpected: all three schedule the same attempts, so totals are "
      "close; RA's interference burns extra retries (more data "
      "transmissions fired, slightly worse mJ per delivered packet), while "
      "NR and RC stay at the retry floor set by the channel alone.\n";
  spec.parameters = {{"testbed", "wustl"}, {"runs", std::to_string(runs)}};
  spec.columns = {{"data Tx fired", "data_tx", 0},
                  {"idle listens", "idle_listens", 0},
                  {"total energy (mJ)", "total_mj", 1},
                  {"mJ per delivered", "mj_per_delivered", 3},
                  {"PDR", "pdr", 4}};
  spec.unit = [runs](const experiment_env& env, const flow::flow_set& set,
                     int condition, int si, std::uint64_t) {
    sim::sim_config config;
    config.runs = runs;
    config.seed = 33 + static_cast<std::uint64_t>(si);
    const auto result = sim::run_simulation(
        env.topology, schedule(env, set, k_three_algos[condition].algo).sched,
        set.flows, env.channels, config);
    return std::vector<double>{
        static_cast<double>(result.energy.data_transmissions),
        static_cast<double>(result.energy.idle_listens),
        result.energy.total_mj,
        result.energy.mj_per_delivered(result.instances_delivered),
        result.network_pdr()};
  };
  return spec;
}

template <auto Build>
exp::figure_report run_figure(const exp::run_options& options,
                              const cli_args& args, std::ostream& out) {
  return run_spec(Build(options, args), options, out);
}

template <auto Build>
bool replay_figure(const exp::run_options& options, const cli_args& args,
                   std::ostream& out) {
  return replay_spec(Build(options, args), options, out);
}

}  // namespace

std::vector<figure_def> sweep_figures() {
  return {
      {"fig1", "schedulable ratio, centralized traffic (Indriya)",
       run_figure<fig1_spec>, replay_figure<fig1_spec>},
      {"fig2", "schedulable ratio, peer-to-peer traffic (Indriya)",
       run_figure<fig2_spec>, replay_figure<fig2_spec>},
      {"fig3", "schedulable ratio, peer-to-peer traffic (WUSTL)",
       run_figure<fig3_spec>, replay_figure<fig3_spec>},
      {"fig4", "transmissions per channel, RA vs RC (Indriya)",
       run_figure<fig4_spec>, replay_figure<fig4_spec>},
      {"fig5", "channel-reuse hop count, RA vs RC (Indriya)",
       run_figure<fig5_spec>, replay_figure<fig5_spec>},
      {"fig8", "PDR box plots of NR/RA/RC (WUSTL, 4 channels)",
       run_figure<fig8_spec>, replay_figure<fig8_spec>},
      {"fig9", "Tx per channel under RA and RC, reliability flow sets",
       run_figure<fig9_spec>, replay_figure<fig9_spec>},
      {"fig10", "PRR of rejected vs accepted links, with the VII-E counts",
       run_figure<fig10_spec>, replay_figure<fig10_spec>},
      {"detector", "detection policy precision/recall vs ground truth",
       run_figure<detector_spec>, replay_figure<detector_spec>},
      {"rho", "ablation: reuse hop threshold rho_t",
       run_figure<rho_spec>, replay_figure<rho_spec>},
      {"policy", "ablation: findSlot channel policy",
       run_figure<policy_spec>, replay_figure<policy_spec>},
      {"routing", "ablation: hop-count vs ETX routing",
       run_figure<routing_spec>, replay_figure<routing_spec>},
      {"management", "ablation: management-slot reservation",
       run_figure<management_spec>, replay_figure<management_spec>},
      {"pessimism", "analytical admission vs NR vs RC acceptance",
       run_pessimism, replay_figure<pessimism_spec>},
      {"optimality", "exhaustive feasibility vs NR/RA/RC acceptance",
       run_figure<optimality_spec>, replay_figure<optimality_spec>},
      {"latency", "scheduled end-to-end delay and slack, NR/RA/RC",
       run_figure<latency_spec>, replay_figure<latency_spec>},
      {"energy", "radio energy per delivered packet, NR/RA/RC",
       run_figure<energy_spec>, replay_figure<energy_spec>},
  };
}

}  // namespace wsan::bench
