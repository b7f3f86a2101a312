// End-to-end pipeline tests: topology -> graphs -> flows -> schedule ->
// validation -> simulation -> detection, exactly as a deployment would
// run them.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scheduler.h"
#include "detect/detector.h"
#include "flow/flow_generator.h"
#include "graph/algorithms.h"
#include "graph/network_view.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "topo/testbeds.h"
#include "tsch/schedule_stats.h"
#include "tsch/validate.h"

namespace wsan {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  flow::flow_set make_reliability_workload(int flows, std::uint64_t seed) {
    // The paper's reliability setup: 50 flows, half at 0.5 s, half at
    // 1 s (Section VII-D). Our generator draws uniformly from the
    // exponent range, giving roughly that mix.
    flow::flow_set_params params;
    params.num_flows = flows;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = -1;
    params.period_max_exp = 0;
    rng gen(seed);
    return flow::generate_flow_set(view_.comm, params, gen);
  }

  core::scheduler_config config_for(core::algorithm algo) const {
    return core::make_config(algo, static_cast<int>(view_.channels.size()));
  }

  graph::network_view view_ =
      graph::make_network_view(topo::make_wustl(), phy::channels(4));
};

TEST_F(PipelineTest, GraphsHaveTheExpectedStructure) {
  EXPECT_TRUE(graph::is_connected(view_.comm));
  EXPECT_TRUE(graph::is_connected(view_.reuse));
  EXPECT_GT(view_.reuse.num_edges(), view_.comm.num_edges());
  EXPECT_GE(view_.reuse_hops.diameter(), 2);
  EXPECT_LE(view_.reuse_hops.diameter(), 10);
}

TEST_F(PipelineTest, ScheduledWorkloadSurvivesSimulationCleanly) {
  const auto set = make_reliability_workload(30, 41);
  const auto result = core::schedule_flows(set.flows, view_.reuse_hops,
                                           config_for(core::algorithm::rc));
  ASSERT_TRUE(result.schedulable);

  tsch::validation_options opts;
  opts.min_reuse_hops = 2;
  ASSERT_TRUE(
      tsch::validate_schedule(result.sched, set.flows, view_.reuse_hops, opts)
          .ok);

  sim::sim_config sim_config;
  sim_config.runs = 30;
  sim_config.seed = 7;
  const auto sim_result = sim::run_simulation(
      view_.topology, result.sched, set.flows, view_.channels, sim_config);

  // Every flow routes over >= 0.9 PRR links with a retry per hop; in a
  // clean environment delivery should be high across the board.
  const auto box = stats::make_box_stats(sim_result.flow_pdr);
  EXPECT_GT(box.median, 0.95);
  EXPECT_GT(box.min, 0.5);
  EXPECT_GT(sim_result.network_pdr(), 0.9);
}

TEST_F(PipelineTest, NrSimulationHasNoReuseSamples) {
  const auto set = make_reliability_workload(20, 43);
  const auto result = core::schedule_flows(set.flows, view_.reuse_hops,
                                           config_for(core::algorithm::nr));
  ASSERT_TRUE(result.schedulable);
  sim::sim_config sim_config;
  sim_config.runs = 10;
  const auto sim_result = sim::run_simulation(
      view_.topology, result.sched, set.flows, view_.channels, sim_config);
  for (const auto& [link, obs] : sim_result.links) {
    EXPECT_EQ(obs.reuse_attempts, 0)
        << link.sender << "->" << link.receiver;
  }
}

TEST_F(PipelineTest, RaWorstCasePdrSuffersMoreThanRc) {
  // The paper's headline reliability result (Figure 8): medians of all
  // three schedulers stay close, but RA's worst-case flow PDR falls
  // below NR's and RC's. Each individual flow set is noisy, so the test
  // asserts the ordering of worst-case PDR *averaged* over several sets.
  double nr_min_sum = 0.0;
  double ra_min_sum = 0.0;
  double rc_min_sum = 0.0;
  double median_gap = 0.0;
  int compared = 0;
  for (std::uint64_t seed = 51; seed < 120 && compared < 4; ++seed) {
    const auto set = make_reliability_workload(30, seed);
    const auto nr = core::schedule_flows(set.flows, view_.reuse_hops,
                                         config_for(core::algorithm::nr));
    const auto ra = core::schedule_flows(set.flows, view_.reuse_hops,
                                         config_for(core::algorithm::ra));
    const auto rc = core::schedule_flows(set.flows, view_.reuse_hops,
                                         config_for(core::algorithm::rc));
    if (!nr.schedulable || !ra.schedulable || !rc.schedulable) continue;
    ++compared;
    sim::sim_config sim_config;
    sim_config.runs = 60;
    sim_config.seed = seed;
    const auto nr_sim = sim::run_simulation(view_.topology, nr.sched,
                                            set.flows, view_.channels,
                                            sim_config);
    const auto ra_sim = sim::run_simulation(view_.topology, ra.sched,
                                            set.flows, view_.channels,
                                            sim_config);
    const auto rc_sim = sim::run_simulation(view_.topology, rc.sched,
                                            set.flows, view_.channels,
                                            sim_config);
    const auto nr_box = stats::make_box_stats(nr_sim.flow_pdr);
    const auto ra_box = stats::make_box_stats(ra_sim.flow_pdr);
    const auto rc_box = stats::make_box_stats(rc_sim.flow_pdr);
    nr_min_sum += nr_box.min;
    ra_min_sum += ra_box.min;
    rc_min_sum += rc_box.min;
    median_gap = std::max(
        median_gap, std::abs(nr_box.median - ra_box.median));
    median_gap = std::max(
        median_gap, std::abs(nr_box.median - rc_box.median));
  }
  ASSERT_GE(compared, 3);
  // Medians stay within a couple of percent (Figure 8).
  EXPECT_LT(median_gap, 0.03);
  // Worst-case ordering: RA at or below both NR and RC on average.
  EXPECT_LE(ra_min_sum, rc_min_sum + 0.01 * compared);
  EXPECT_LE(ra_min_sum, nr_min_sum + 0.01 * compared);
}

TEST_F(PipelineTest, DetectorPipelineRunsOnSimulatorOutput) {
  const auto set = make_reliability_workload(40, 61);
  const auto ra = core::schedule_flows(set.flows, view_.reuse_hops,
                                       config_for(core::algorithm::ra));
  ASSERT_TRUE(ra.schedulable);

  sim::sim_config sim_config;
  sim_config.runs = 36;  // two 18-run epochs
  sim_config.seed = 13;
  sim_config.interferers = sim::one_interferer_per_floor(view_.topology, 0.5);
  const auto sim_result = sim::run_simulation(
      view_.topology, ra.sched, set.flows, view_.channels, sim_config);

  const auto reports = detect::classify_links(sim_result.links, {});
  // Every reported link must be one that the schedule actually reuses.
  EXPECT_LE(reports.size(), tsch::links_in_reuse_count(ra.sched));
  for (const auto& report : reports) {
    EXPECT_NE(report.verdict, detect::link_verdict::insufficient_data)
        << "18+ samples per epoch pair should be plenty";
  }
  // Epoch slicing covers both epochs without throwing.
  for (int epoch = 0; epoch < 2; ++epoch) {
    EXPECT_NO_THROW(
        detect::classify_links_in_epoch(sim_result.links, epoch, 18, {}));
  }
}

TEST_F(PipelineTest, CentralizedWorkloadRunsEndToEnd) {
  flow::flow_set_params params;
  params.num_flows = 15;
  params.type = flow::traffic_type::centralized;
  params.period_min_exp = 1;
  params.period_max_exp = 2;
  rng gen(71);
  const auto set = flow::generate_flow_set(view_.comm, params, gen);
  const auto result = core::schedule_flows(set.flows, view_.reuse_hops,
                                           config_for(core::algorithm::rc));
  ASSERT_TRUE(result.schedulable);
  tsch::validation_options opts;
  opts.min_reuse_hops = 2;
  EXPECT_TRUE(
      tsch::validate_schedule(result.sched, set.flows, view_.reuse_hops, opts)
          .ok);
  sim::sim_config sim_config;
  sim_config.runs = 20;
  const auto sim_result = sim::run_simulation(
      view_.topology, result.sched, set.flows, view_.channels, sim_config);
  EXPECT_GT(sim_result.network_pdr(), 0.8);
}

}  // namespace
}  // namespace wsan
