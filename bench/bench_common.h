// Shared mechanics of the bench experiments (bench/experiments.h):
// testbed environments, flow-set sweeps on exp::trial_runner (trial
// streams derived from (seed, point, trial), so results are the same at
// any --jobs and any trial replays alone), and report helpers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/scheduler.h"
#include "exp/options.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "flow/flow_generator.h"
#include "graph/hop_matrix.h"
#include "graph/network_view.h"
#include "obs/timeseries.h"
#include "topo/testbeds.h"

namespace wsan::bench {

/// Everything derived from a testbed + channel count: the topology, the
/// channel list, both graphs, and the reuse-graph hop matrix.
using experiment_env = graph::network_view;

/// Builds the environment for "indriya" or "wustl" with the first
/// `num_channels` 802.15.4 channels. The topology seed is fixed per
/// testbed so every figure sees the same deployment (like the paper's
/// collected topologies).
experiment_env make_env(const std::string& testbed, int num_channels);

/// Optional efficiency histograms of Figures 4/5 for RA and RC.
struct efficiency_accumulator {
  histogram ra_tx_per_channel;
  histogram rc_tx_per_channel;
  histogram ra_hop_count;
  histogram rc_hop_count;
};

/// One schedulable-ratio trial: a flow set from `gen` through NR, RA
/// and RC at rho_t — the unit the ratio sweeps of Figures 1-5 fan out
/// on exp::trial_runner and --replay re-runs.
struct ratio_trial_outcome {
  bool generated = false;  ///< false: unroutable workload (all fail)
  bool nr_ok = false;
  bool ra_ok = false;
  bool rc_ok = false;
};

ratio_trial_outcome run_ratio_trial(const experiment_env& env,
                                    const flow::flow_set_params& fsp,
                                    int rho_t, rng& gen,
                                    efficiency_accumulator* acc = nullptr);

/// Finds `count` flow sets schedulable under NR, RA and RC at once, for
/// experiments that compare the three on the same workloads. Attempts
/// run in parallel waves but qualify in attempt order, so the selection
/// is independent of `jobs`. Too few within max_seeds: retries with
/// fewer flows.
struct reliability_workloads {
  std::vector<flow::flow_set> sets;
  int flows_used = 0;
};

reliability_workloads find_reliability_sets(
    const experiment_env& env, const flow::flow_set_params& base_params,
    int count, std::uint64_t base_seed, int rho_t = 2,
    int max_seeds = 200, int jobs = 1);

/// Wall-clock milliseconds of one scheduler invocation.
double time_schedule_ms(const std::vector<flow::flow>& flows,
                        const graph::hop_matrix& reuse_hops,
                        const core::scheduler_config& config,
                        bool* schedulable = nullptr);

/// Renders a schedulable ratio with its 95% Wilson interval:
/// "0.78 [0.65,0.87]". Zero trials render as "0.00 [0.00,1.00]".
std::string ratio_cell(int successes, int trials);

/// Standard banner so bench outputs are self-describing.
void print_banner(std::ostream& out, const std::string& figure,
                  const std::string& what);

// Helpers of the experiment registry, defined in experiments.cpp so
// that code linking only the mechanics above (the repo benchmark) does
// not carry them.

/// Peer-to-peer flow-set parameters with periods in
/// [2^min_exp, 2^max_exp] s.
flow::flow_set_params p2p_params(int flows, int min_exp, int max_exp);

/// Draws a flow set into `set`; false for an unroutable draw.
bool draw(const experiment_env& env, const flow::flow_set_params& fsp,
          rng& gen, flow::flow_set& set,
          const flow::etx_weights* weights = nullptr);

/// Adds a ratio with its 95% Wilson interval to a report point as
/// `key`, `key`_low and `key`_high.
void add_ratio(exp::report_point& rp, const std::string& key, int successes,
               int trials);

/// Copies every window value and histogram of `part` into `merged` under
/// `prefix`, growing `merged` to cover part's windows.
void merge_series(obs::series& merged, const obs::series& part,
                  const std::string& prefix);

/// Writes `s` to the figure's --series file (options.series_file_for)
/// and records the path in the report; no-op without --series.
void write_series(const exp::run_options& options, const obs::series& s,
                  exp::figure_report& report, std::ostream& out);

/// A report with its identity and run provenance filled in (jobs is
/// resolved as exp::resolve_jobs does).
exp::figure_report new_report(const std::string& id,
                              const std::string& title, std::uint64_t seed,
                              int jobs, int trials);

}  // namespace wsan::bench
