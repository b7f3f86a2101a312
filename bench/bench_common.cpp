#include "bench_common.h"

#include <chrono>
#include <iostream>
#include <optional>

#include "common/error.h"
#include "common/rng.h"
#include "common/table.h"
#include "stats/summary.h"
#include "tsch/schedule_stats.h"

namespace wsan::bench {

experiment_env make_env(const std::string& testbed, int num_channels,
                        double prr_threshold) {
  experiment_env env;
  env.topology = topo::make_named_testbed(testbed);
  env.channels = phy::channels(num_channels);
  graph::comm_graph_options comm_opts;
  comm_opts.prr_threshold = prr_threshold;
  env.comm = graph::build_communication_graph(env.topology, env.channels,
                                              comm_opts);
  env.reuse = graph::build_channel_reuse_graph(env.topology, env.channels);
  env.reuse_hops = graph::hop_matrix(env.reuse);
  return env;
}

efficiency_accumulator& efficiency_accumulator::operator+=(
    const efficiency_accumulator& other) {
  ra_tx_per_channel.merge(other.ra_tx_per_channel);
  rc_tx_per_channel.merge(other.rc_tx_per_channel);
  ra_hop_count.merge(other.ra_hop_count);
  rc_hop_count.merge(other.rc_hop_count);
  return *this;
}

ratio_trial_outcome run_ratio_trial(const experiment_env& env,
                                    const flow::flow_set_params& fsp,
                                    int rho_t, rng& gen,
                                    efficiency_accumulator* acc) {
  ratio_trial_outcome outcome;
  flow::flow_set set;
  try {
    set = flow::generate_flow_set(env.comm, fsp, gen);
  } catch (const std::runtime_error&) {
    return outcome;  // unroutable workload counts as unschedulable
  }
  outcome.generated = true;

  const int channels = static_cast<int>(env.channels.size());

  const auto nr = core::schedule_flows(
      set.flows, env.reuse_hops,
      core::make_config(core::algorithm::nr, channels, rho_t));
  outcome.nr_ok = nr.schedulable;

  const auto ra = core::schedule_flows(
      set.flows, env.reuse_hops,
      core::make_config(core::algorithm::ra, channels, rho_t));
  outcome.ra_ok = ra.schedulable;

  const auto rc = core::schedule_flows(
      set.flows, env.reuse_hops,
      core::make_config(core::algorithm::rc, channels, rho_t));
  outcome.rc_ok = rc.schedulable;

  if (acc != nullptr) {
    if (ra.schedulable) {
      acc->ra_tx_per_channel.merge(tsch::tx_per_channel_histogram(ra.sched));
      acc->ra_hop_count.merge(
          tsch::reuse_hop_count_histogram(ra.sched, env.reuse_hops));
    }
    if (rc.schedulable) {
      acc->rc_tx_per_channel.merge(tsch::tx_per_channel_histogram(rc.sched));
      acc->rc_hop_count.merge(
          tsch::reuse_hop_count_histogram(rc.sched, env.reuse_hops));
    }
  }
  return outcome;
}

namespace {

/// Per-worker partial of a schedulable-ratio point; merged with the
/// commutative += of both members.
struct ratio_accum {
  ratio_point point;
  efficiency_accumulator acc;

  ratio_accum& operator+=(const ratio_accum& other) {
    point += other.point;
    acc += other.acc;
    return *this;
  }
};

}  // namespace

ratio_point schedulable_ratio(const experiment_env& env,
                              const flow::flow_set_params& fsp, int trials,
                              std::uint64_t seed, int rho_t,
                              efficiency_accumulator* acc, int jobs,
                              std::uint64_t point_index) {
  const exp::trial_runner runner(jobs);
  const bool want_acc = acc != nullptr;
  auto total = runner.run_point<ratio_accum>(
      seed, point_index, trials,
      [&](int, rng& gen, ratio_accum& local) {
        const auto outcome = run_ratio_trial(
            env, fsp, rho_t, gen, want_acc ? &local.acc : nullptr);
        ++local.point.trials;
        local.point.nr_ok += outcome.nr_ok ? 1 : 0;
        local.point.ra_ok += outcome.ra_ok ? 1 : 0;
        local.point.rc_ok += outcome.rc_ok ? 1 : 0;
      });
  if (acc != nullptr) *acc += total.acc;
  return total.point;
}

reliability_workloads find_reliability_sets(
    const experiment_env& env, const flow::flow_set_params& base_params,
    int count, std::uint64_t base_seed, int rho_t, int max_seeds,
    int jobs) {
  const int workers = exp::resolve_jobs(jobs);
  auto params = base_params;
  while (params.num_flows >= 5) {
    // Attempts are evaluated in parallel waves; each attempt's stream is
    // derived from (base_seed, num_flows, attempt), so qualification is
    // a pure function of the attempt index. Qualifying sets are then
    // taken in attempt order, which makes the selection identical to a
    // serial scan at any thread count (a wave may evaluate a few
    // attempts past the cutoff; they are simply discarded).
    std::vector<std::optional<flow::flow_set>> qualified(
        static_cast<std::size_t>(max_seeds));
    const auto point_index = static_cast<std::uint64_t>(params.num_flows);
    const int wave_size = std::max(workers * 4, 8);
    int evaluated = 0;
    int usable = 0;  // qualifying attempts seen so far, in index order
    while (evaluated < max_seeds && usable < count) {
      const int wave = std::min(wave_size, max_seeds - evaluated);
      exp::parallel_trials(wave, workers, [&](int, int i) {
        const int attempt = evaluated + i;
        rng gen(derive_seed(base_seed, point_index,
                            static_cast<std::uint64_t>(attempt)));
        flow::flow_set set;
        try {
          set = flow::generate_flow_set(env.comm, params, gen);
        } catch (const std::runtime_error&) {
          return;
        }
        for (const auto algo : {core::algorithm::nr, core::algorithm::ra,
                                core::algorithm::rc}) {
          const auto config = core::make_config(
              algo, static_cast<int>(env.channels.size()), rho_t);
          if (!core::schedule_flows(set.flows, env.reuse_hops, config)
                   .schedulable)
            return;
        }
        qualified[static_cast<std::size_t>(attempt)] = std::move(set);
      });
      evaluated += wave;
      usable = 0;
      for (int attempt = 0; attempt < evaluated; ++attempt)
        if (qualified[static_cast<std::size_t>(attempt)]) ++usable;
    }
    if (usable >= count) {
      reliability_workloads result;
      result.flows_used = params.num_flows;
      for (int attempt = 0;
           attempt < evaluated &&
           static_cast<int>(result.sets.size()) < count;
           ++attempt) {
        auto& slot = qualified[static_cast<std::size_t>(attempt)];
        if (slot) result.sets.push_back(std::move(*slot));
      }
      return result;
    }
    params.num_flows -= 5;  // workload too heavy for NR; lighten it
  }
  WSAN_REQUIRE(false,
               "could not find commonly-schedulable flow sets; relax the "
               "workload parameters");
}

double time_schedule_ms(const std::vector<flow::flow>& flows,
                        const graph::hop_matrix& reuse_hops,
                        const core::scheduler_config& config,
                        bool* schedulable) {
  const auto start = std::chrono::steady_clock::now();
  const auto result = core::schedule_flows(flows, reuse_hops, config);
  const auto stop = std::chrono::steady_clock::now();
  if (schedulable != nullptr) *schedulable = result.schedulable;
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

std::string ratio_cell(int successes, int trials) {
  const auto ci = stats::wilson_interval(successes, trials);
  return cell(ci.estimate, 2) + " [" + cell(ci.low, 2) + "," +
         cell(ci.high, 2) + "]";
}

void print_banner(std::ostream& out, const std::string& figure,
                  const std::string& what) {
  out << "==========================================================\n"
      << figure << ": " << what << "\n"
      << "==========================================================\n";
}

}  // namespace wsan::bench
