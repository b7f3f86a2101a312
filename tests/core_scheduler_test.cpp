#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "topo/testbeds.h"
#include "tsch/schedule_stats.h"
#include "tsch/validate.h"

namespace wsan::core {
namespace {

/// Path graph 0-1-...-(n-1) as both the communication and reuse world.
graph::hop_matrix path_hops(int n) {
  graph::graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return graph::hop_matrix(g);
}

flow::flow make_flow(flow_id id, std::vector<flow::link> route,
                     slot_t period, slot_t deadline) {
  flow::flow f;
  f.id = id;
  f.source = route.front().sender;
  f.destination = route.back().receiver;
  f.period = period;
  f.deadline = deadline;
  f.uplink_links = static_cast<int>(route.size());
  f.route = std::move(route);
  return f;
}

scheduler_config config_for(algorithm algo, int channels, int rho_t = 2) {
  return make_config(algo, channels, rho_t);
}

// ------------------------------------------------- small hand-built ----

TEST(Scheduler, SingleFlowSchedulesSequentially) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}, {1, 2}, {2, 3}}, 100, 100);
  const auto result =
      schedule_flows({f}, hops, config_for(algorithm::nr, 2));
  ASSERT_TRUE(result.schedulable);
  EXPECT_EQ(result.sched.num_transmissions(), 6u);  // 3 links x 2 attempts
  // Sequential slots 0..5.
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(result.sched.placements()[i].slot,
              static_cast<slot_t>(i));
  const auto validation = tsch::validate_schedule(result.sched, {f}, hops);
  EXPECT_TRUE(validation.ok);
}

TEST(Scheduler, NrFailsWhereRcSucceedsThroughReuse) {
  // Two distant single-link flows, one channel, two-slot deadlines:
  // serialized NR misses the second deadline; reuse saves it.
  const auto hops = path_hops(10);
  const auto f1 = make_flow(0, {{0, 1}}, 10, 2);
  const auto f2 = make_flow(1, {{8, 9}}, 10, 2);

  const auto nr =
      schedule_flows({f1, f2}, hops, config_for(algorithm::nr, 1));
  EXPECT_FALSE(nr.schedulable);
  EXPECT_EQ(nr.first_failed_flow, 1);

  const auto rc =
      schedule_flows({f1, f2}, hops, config_for(algorithm::rc, 1));
  ASSERT_TRUE(rc.schedulable);
  EXPECT_GT(rc.stats.reuse_placements, 0u);

  tsch::validation_options opts;
  opts.min_reuse_hops = 2;
  EXPECT_TRUE(
      tsch::validate_schedule(rc.sched, {f1, f2}, hops, opts).ok);

  const auto ra =
      schedule_flows({f1, f2}, hops, config_for(algorithm::ra, 1));
  EXPECT_TRUE(ra.schedulable);
}

TEST(Scheduler, RcDoesNotReuseWhenDeadlinesAreLoose) {
  const auto hops = path_hops(10);
  const auto f1 = make_flow(0, {{0, 1}}, 100, 100);
  const auto f2 = make_flow(1, {{8, 9}}, 100, 100);
  const auto rc =
      schedule_flows({f1, f2}, hops, config_for(algorithm::rc, 1));
  ASSERT_TRUE(rc.schedulable);
  EXPECT_EQ(rc.stats.reuse_placements, 0u);
  EXPECT_EQ(rc.stats.reuse_activations, 0u);
  // Without reuse the schedule must validate even under rho = infinity.
  EXPECT_TRUE(tsch::validate_schedule(rc.sched, {f1, f2}, hops).ok);
}

TEST(Scheduler, RaReusesEvenWhenDeadlinesAreLoose) {
  // RA always takes the earliest slot, so with one channel the two
  // distant flows share slot 0 despite loose deadlines.
  const auto hops = path_hops(10);
  const auto f1 = make_flow(0, {{0, 1}}, 100, 100);
  const auto f2 = make_flow(1, {{8, 9}}, 100, 100);
  const auto ra =
      schedule_flows({f1, f2}, hops, config_for(algorithm::ra, 1));
  ASSERT_TRUE(ra.schedulable);
  EXPECT_GT(ra.stats.reuse_placements, 0u);
  EXPECT_EQ(ra.sched.cell(0, 0).size(), 2u);
}

TEST(Scheduler, ReuseRespectsRhoThreshold) {
  // Flows too close for reuse: 0->1 and 3->4 (hop(3,1)=2, hop(0,4)=4).
  // With rho_t=3 they may not share a channel.
  const auto hops = path_hops(6);
  const auto f1 = make_flow(0, {{0, 1}}, 10, 4);
  const auto f2 = make_flow(1, {{3, 4}}, 10, 4);
  const auto ra =
      schedule_flows({f1, f2}, hops, config_for(algorithm::ra, 1, 3));
  ASSERT_TRUE(ra.schedulable);
  tsch::validation_options opts;
  opts.min_reuse_hops = 3;
  EXPECT_TRUE(
      tsch::validate_schedule(ra.sched, {f1, f2}, hops, opts).ok);
  EXPECT_EQ(ra.stats.reuse_placements, 0u);  // constraint forbids sharing
}

TEST(Scheduler, ConflictingFlowsNeverShareSlots) {
  // Both flows traverse node 1; their transmissions must serialize even
  // with plenty of channels.
  const auto hops = path_hops(4);
  const auto f1 = make_flow(0, {{0, 1}}, 20, 20);
  const auto f2 = make_flow(1, {{1, 2}}, 20, 20);
  const auto result =
      schedule_flows({f1, f2}, hops, config_for(algorithm::ra, 4));
  ASSERT_TRUE(result.schedulable);
  for (slot_t s = 0; s < result.sched.num_slots(); ++s)
    EXPECT_LE(result.sched.slot_transmissions(s).size(), 1u);
}

TEST(Scheduler, MultipleInstancesWithinHyperperiod) {
  const auto hops = path_hops(4);
  const auto f1 = make_flow(0, {{0, 1}, {1, 2}}, 50, 40);
  const auto f2 = make_flow(1, {{2, 3}}, 100, 90);
  const auto result =
      schedule_flows({f1, f2}, hops, config_for(algorithm::nr, 3));
  ASSERT_TRUE(result.schedulable);
  EXPECT_EQ(result.sched.num_slots(), 100);
  // f1: 2 instances x 2 links x 2 attempts + f2: 1 x 1 x 2 = 10.
  EXPECT_EQ(result.sched.num_transmissions(), 10u);
  EXPECT_TRUE(tsch::validate_schedule(result.sched, {f1, f2}, hops).ok);
}

TEST(Scheduler, ReleaseOffsetsAreHonored) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}}, 50, 10);
  const auto result =
      schedule_flows({f}, hops, config_for(algorithm::nr, 1));
  ASSERT_TRUE(result.schedulable);
  // Second instance may not start before slot 50.
  for (const auto& p : result.sched.placements()) {
    if (p.tx.instance == 1) {
      EXPECT_GE(p.slot, 50);
    }
  }
}

TEST(Scheduler, ZeroRetriesConfiguration) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}, {1, 2}}, 20, 20);
  auto config = config_for(algorithm::nr, 2);
  config.retries_per_link = 0;
  const auto result = schedule_flows({f}, hops, config);
  ASSERT_TRUE(result.schedulable);
  EXPECT_EQ(result.sched.num_transmissions(), 2u);
  tsch::validation_options opts;
  opts.retries_per_link = 0;
  EXPECT_TRUE(tsch::validate_schedule(result.sched, {f}, hops, opts).ok);
}

TEST(Scheduler, ParseAlgorithmReadsEachName) {
  EXPECT_EQ(parse_algorithm("nr"), algorithm::nr);
  EXPECT_EQ(parse_algorithm("ra"), algorithm::ra);
  EXPECT_EQ(parse_algorithm("rc"), algorithm::rc);
  for (const algorithm algo : {algorithm::nr, algorithm::ra, algorithm::rc})
    EXPECT_EQ(parse_algorithm(to_string(algo)), algo);
  EXPECT_THROW(parse_algorithm("xx"), std::invalid_argument);
  EXPECT_THROW(parse_algorithm(""), std::invalid_argument);
  EXPECT_THROW(parse_algorithm("rc "), std::invalid_argument);
}

TEST(Scheduler, RejectsBadInputs) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}}, 10, 10);
  EXPECT_THROW(schedule_flows({}, hops, config_for(algorithm::nr, 2)),
               std::invalid_argument);
  EXPECT_THROW(schedule_flows({f}, hops, config_for(algorithm::nr, 0)),
               std::invalid_argument);
  EXPECT_THROW(schedule_flows({f}, hops, config_for(algorithm::nr, 17)),
               std::invalid_argument);
  auto bad_rho = config_for(algorithm::rc, 2);
  bad_rho.rho_t = 0;
  EXPECT_THROW(schedule_flows({f}, hops, bad_rho), std::invalid_argument);
  // Non-dense ids are rejected.
  auto f_bad = f;
  f_bad.id = 5;
  EXPECT_THROW(
      schedule_flows({f_bad}, hops, config_for(algorithm::nr, 2)),
      std::invalid_argument);
}

TEST(Scheduler, UnschedulableSingleFlowReportsItself) {
  const auto hops = path_hops(4);
  // Deadline of 1 slot cannot fit two attempts.
  const auto f = make_flow(0, {{0, 1}}, 10, 1);
  const auto result =
      schedule_flows({f}, hops, config_for(algorithm::rc, 4));
  EXPECT_FALSE(result.schedulable);
  EXPECT_EQ(result.first_failed_flow, 0);
}

TEST(Scheduler, ManagementSlotsAreNeverUsedForData) {
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}, {1, 2}}, 20, 20);
  auto config = config_for(algorithm::nr, 2);
  config.management_slot_period = 4;  // slots 0, 4, 8, ... reserved
  const auto result = schedule_flows({f}, hops, config);
  ASSERT_TRUE(result.schedulable);
  for (const auto& p : result.sched.placements()) {
    EXPECT_NE(p.slot % 4, 0) << "data transmission in a management slot";
  }
  // First data slot is 1, not 0.
  EXPECT_EQ(result.sched.placements().front().slot, 1);
}

TEST(Scheduler, ManagementReservationShrinksCapacity) {
  // A flow whose window exactly fits without reservation fails once a
  // slot in its window is reserved.
  const auto hops = path_hops(4);
  const auto f = make_flow(0, {{0, 1}}, 10, 2);  // needs slots 0 and 1
  auto config = config_for(algorithm::nr, 1);
  EXPECT_TRUE(schedule_flows({f}, hops, config).schedulable);
  config.management_slot_period = 2;  // slot 0 reserved
  EXPECT_FALSE(schedule_flows({f}, hops, config).schedulable);
}

// ------------------------------------------------- testbed workloads ---

class TestbedSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topology_ = topo::make_wustl();
    channels_ = phy::channels(4);
    comm_ = graph::build_communication_graph(topology_, channels_);
    reuse_hops_ = graph::hop_matrix(
        graph::build_channel_reuse_graph(topology_, channels_));
  }

  flow::flow_set make_set(int flows, std::uint64_t seed,
                          flow::traffic_type type =
                              flow::traffic_type::peer_to_peer) {
    flow::flow_set_params params;
    params.num_flows = flows;
    params.type = type;
    params.period_min_exp = 0;
    params.period_max_exp = 2;
    rng gen(seed);
    return flow::generate_flow_set(comm_, params, gen);
  }

  topo::topology topology_;
  std::vector<channel_t> channels_;
  graph::graph comm_;
  graph::hop_matrix reuse_hops_;
};

TEST_F(TestbedSchedulerTest, AllAlgorithmsProduceValidSchedules) {
  const auto set = make_set(20, 101);
  for (const auto algo :
       {algorithm::nr, algorithm::ra, algorithm::rc}) {
    const auto result =
        schedule_flows(set.flows, reuse_hops_, config_for(algo, 4));
    if (!result.schedulable) continue;
    tsch::validation_options opts;
    opts.min_reuse_hops =
        algo == algorithm::nr ? k_infinite_hops : 2;
    const auto validation =
        tsch::validate_schedule(result.sched, set.flows, reuse_hops_, opts);
    EXPECT_TRUE(validation.ok)
        << to_string(algo) << ": "
        << (validation.violations.empty() ? ""
                                          : validation.violations.front());
  }
}

TEST_F(TestbedSchedulerTest, SchedulersAreDeterministic) {
  const auto set = make_set(15, 103);
  const auto a =
      schedule_flows(set.flows, reuse_hops_, config_for(algorithm::rc, 4));
  const auto b =
      schedule_flows(set.flows, reuse_hops_, config_for(algorithm::rc, 4));
  ASSERT_EQ(a.schedulable, b.schedulable);
  ASSERT_EQ(a.sched.num_transmissions(), b.sched.num_transmissions());
  for (std::size_t i = 0; i < a.sched.placements().size(); ++i) {
    EXPECT_EQ(a.sched.placements()[i].slot, b.sched.placements()[i].slot);
    EXPECT_EQ(a.sched.placements()[i].offset,
              b.sched.placements()[i].offset);
  }
}

TEST_F(TestbedSchedulerTest, RcReusesLessThanRa) {
  // Heavy enough that reuse happens, across several seeds.
  std::size_t ra_reuse = 0;
  std::size_t rc_reuse = 0;
  for (std::uint64_t seed : {201u, 202u, 203u}) {
    const auto set = make_set(40, seed);
    const auto ra = schedule_flows(set.flows, reuse_hops_,
                                   config_for(algorithm::ra, 3));
    const auto rc = schedule_flows(set.flows, reuse_hops_,
                                   config_for(algorithm::rc, 3));
    if (ra.schedulable) ra_reuse += ra.stats.reuse_placements;
    if (rc.schedulable) rc_reuse += rc.stats.reuse_placements;
  }
  EXPECT_LT(rc_reuse, ra_reuse);
}

TEST_F(TestbedSchedulerTest, ChannelPolicyAffectsStacking) {
  const auto set = make_set(40, 301);
  auto config = config_for(algorithm::ra, 3);
  config.policy = channel_policy::min_load;
  const auto min_load = schedule_flows(set.flows, reuse_hops_, config);
  config.policy = channel_policy::max_reuse;
  const auto max_reuse = schedule_flows(set.flows, reuse_hops_, config);
  if (min_load.schedulable && max_reuse.schedulable) {
    const auto h_min = tsch::tx_per_channel_histogram(min_load.sched);
    const auto h_max = tsch::tx_per_channel_histogram(max_reuse.sched);
    // max_reuse stacks more transmissions per occupied cell on average.
    EXPECT_GE(h_max.mean(), h_min.mean());
  }
}

}  // namespace
}  // namespace wsan::core
