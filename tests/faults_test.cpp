#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/faults.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"
#include "tsch/schedule.h"

namespace wsan::sim {
namespace {

topo::topology line_topology(int n, double spacing = 10.0) {
  topo::topology t("line");
  for (int i = 0; i < n; ++i)
    t.add_node({spacing * i, 0.0, 0});
  return t;
}

void set_link_all_channels(topo::topology& t, node_id u, node_id v,
                           double prr,
                           const std::vector<channel_t>& channels) {
  for (channel_t ch : channels) {
    t.set_prr(u, v, ch, prr);
    t.set_prr(v, u, ch, prr);
  }
}

tsch::transmission make_tx(flow_id f, int instance, int link_index,
                           int attempt, node_id sender, node_id receiver) {
  tsch::transmission tx;
  tx.flow = f;
  tx.instance = instance;
  tx.link_index = link_index;
  tx.attempt = attempt;
  tx.sender = sender;
  tx.receiver = receiver;
  return tx;
}

flow::flow one_link_flow(flow_id id, node_id s, node_id d, slot_t period,
                         slot_t deadline) {
  flow::flow f;
  f.id = id;
  f.source = s;
  f.destination = d;
  f.period = period;
  f.deadline = deadline;
  f.route = {flow::link{s, d}};
  f.uplink_links = 1;
  return f;
}

sim_config quick_config(int runs = 50, std::uint64_t seed = 7) {
  sim_config config;
  config.runs = runs;
  config.seed = seed;
  config.temporal_fading_sigma_db = 0.0;
  config.calibration_drift_sigma_db = 0.0;
  config.maintained_drift_sigma_db = 0.0;
  config.intermittent_fraction = 0.0;
  return config;
}

/// Two-hop world 0 -> 1 -> 2 with perfect links and a retry per hop.
struct relay_world {
  topo::topology t = line_topology(3);
  std::vector<channel_t> channels = phy::channels(4);
  flow::flow f;
  tsch::schedule sched{10, 4};

  relay_world() {
    set_link_all_channels(t, 0, 1, 1.0, channels);
    set_link_all_channels(t, 1, 2, 1.0, channels);
    f.id = 0;
    f.source = 0;
    f.destination = 2;
    f.period = 10;
    f.deadline = 10;
    f.route = {flow::link{0, 1}, flow::link{1, 2}};
    f.uplink_links = 2;
    sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
    sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
    sched.add(make_tx(0, 0, 1, 0, 1, 2), 2, 0);
    sched.add(make_tx(0, 0, 1, 1, 1, 2), 3, 0);
  }

  sim_result run(const sim_config& config) const {
    return run_simulation(t, sched, {f}, channels, config);
  }
};

// ------------------------------------------------------------ the plan --

TEST(FaultPlan, ValidatesIntervalsAndNodes) {
  fault_plan plan;
  plan.crashes.push_back(node_crash{1, -2, -1});
  EXPECT_THROW(validate_fault_plan(plan), std::invalid_argument);

  plan.crashes = {node_crash{1, 5, 5}};  // empty interval
  EXPECT_THROW(validate_fault_plan(plan), std::invalid_argument);

  plan.crashes = {node_crash{1, 5, 10}};
  EXPECT_NO_THROW(validate_fault_plan(plan));
  EXPECT_THROW(validate_fault_plan(plan, 1), std::invalid_argument);

  plan.crashes.clear();
  plan.link_failures = {link_failure{2, 2, 0, -1}};  // self link
  EXPECT_THROW(validate_fault_plan(plan), std::invalid_argument);

  plan.link_failures = {link_failure{2, 3, 0, -1}};
  EXPECT_NO_THROW(validate_fault_plan(plan, 4));

  plan.link_failures.clear();
  plan.suppressions = {report_suppression{0, 3, 2}};  // ends before start
  EXPECT_THROW(validate_fault_plan(plan), std::invalid_argument);
}

TEST(FaultPlan, SliceClipsAndShiftsIntoTheWindow) {
  fault_plan plan;
  plan.crashes.push_back(node_crash{4, 10, 30});
  plan.crashes.push_back(node_crash{5, 2, -1});
  plan.link_failures.push_back(link_failure{0, 1, 0, 6});
  plan.suppressions.push_back(report_suppression{2, 40, 50});

  const auto sliced = slice_fault_plan(plan, 18, 18);  // window [18, 36)
  // Crash [10, 30) -> local [0, 12).
  ASSERT_EQ(sliced.crashes.size(), 2u);
  EXPECT_EQ(sliced.crashes[0], (node_crash{4, 0, 12}));
  // Permanent crash from run 2 covers the whole window.
  EXPECT_EQ(sliced.crashes[1], (node_crash{5, 0, -1}));
  // The link failure ended before the window: dropped.
  EXPECT_TRUE(sliced.link_failures.empty());
  // The suppression starts after the window: dropped.
  EXPECT_TRUE(sliced.suppressions.empty());

  // The same plan sliced over the first epoch keeps the early faults.
  const auto first = slice_fault_plan(plan, 0, 18);
  EXPECT_EQ(first.crashes.size(), 2u);
  ASSERT_EQ(first.link_failures.size(), 1u);
  EXPECT_EQ(first.link_failures[0], (link_failure{0, 1, 0, 6}));
  EXPECT_TRUE(first.suppressions.empty());
}

TEST(FaultPlan, SaveLoadRoundTrips) {
  fault_plan plan;
  plan.crashes.push_back(node_crash{5, 10, -1});
  plan.crashes.push_back(node_crash{6, 0, 3});
  plan.link_failures.push_back(link_failure{3, 7, 0, 20});
  plan.suppressions.push_back(report_suppression{2, 5, 10});

  std::stringstream ss;
  save_fault_plan(plan, ss);
  EXPECT_EQ(load_fault_plan(ss), plan);
}

TEST(FaultPlan, LoaderRejectsMalformedInput) {
  const auto load = [](const std::string& text) {
    std::istringstream is(text);
    return load_fault_plan(is);
  };
  EXPECT_THROW(load(""), std::invalid_argument);
  EXPECT_THROW(load("crash 1 0 -1\n"), std::invalid_argument);  // no header
  EXPECT_THROW(load("faultplan two\n"), std::invalid_argument);
  EXPECT_THROW(load("faultplan 2\ncrash 1 0 -1\n"),
               std::invalid_argument);  // count mismatch
  EXPECT_THROW(load("faultplan 1\ncrash 1 zero -1\n"),
               std::invalid_argument);
  EXPECT_THROW(load("faultplan 1\nreboot 1 0 -1\n"), std::invalid_argument);
  EXPECT_THROW(load("faultplan 1\ncrash 3 0 -1 extra\n"),
               std::invalid_argument);  // trailing input
  EXPECT_THROW(load("faultplan 1\ncrash 1 5 5\n"),
               std::invalid_argument);  // semantic validation runs too
  // Comments and blank lines are fine.
  const auto plan =
      load("# a comment\nfaultplan 1\n\ncrash 1 0 -1\n");
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0], (node_crash{1, 0, -1}));
}

TEST(FaultState, TracksIntervalsAcrossRuns) {
  fault_plan plan;
  plan.crashes.push_back(node_crash{1, 2, 4});  // down in runs 2, 3
  plan.link_failures.push_back(link_failure{0, 2, 1, -1});
  plan.suppressions.push_back(report_suppression{2, 0, 2});
  fault_state state(plan, 3);
  EXPECT_TRUE(state.any());

  state.begin_run(0);
  EXPECT_FALSE(state.node_down(1));
  EXPECT_FALSE(state.link_down(0, 2));
  EXPECT_TRUE(state.reports_withheld(2));

  state.begin_run(2);
  EXPECT_TRUE(state.node_down(1));
  EXPECT_TRUE(state.reports_withheld(1));  // crashed => silent
  EXPECT_TRUE(state.link_down(0, 2));
  EXPECT_FALSE(state.link_down(2, 0));  // directed
  EXPECT_FALSE(state.reports_withheld(2));

  state.begin_run(4);  // the transient crash has healed
  EXPECT_FALSE(state.node_down(1));
  EXPECT_FALSE(state.reports_withheld(1));
  EXPECT_TRUE(state.link_down(0, 2));

  fault_state empty(fault_plan{}, 3);
  EXPECT_FALSE(empty.any());
  empty.begin_run(0);
  EXPECT_FALSE(empty.node_down(0));

  plan.crashes[0].node = 7;  // out of range for 3 nodes
  EXPECT_THROW(fault_state(plan, 3), std::invalid_argument);
}

// ------------------------------------------------- simulator semantics --

TEST(FaultSim, CrashedSenderDeliversNothingAndReportsNothing) {
  relay_world w;
  auto config = quick_config(20);
  config.probes_per_run = 0;
  config.faults.crashes.push_back(node_crash{0, 0, -1});
  const auto result = w.run(config);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
  EXPECT_EQ(result.instances_delivered, 0);
  // Node 0 never transmits, so no stream for 0->1 exists at all.
  EXPECT_EQ(result.links.count(link_key{0, 1}), 0u);
}

TEST(FaultSim, CrashedRelaySilencesItsStreamsButNotItsSenders) {
  relay_world w;
  auto config = quick_config(20);
  config.probes_per_run = 1;
  config.faults.crashes.push_back(node_crash{1, 0, -1});
  const auto result = w.run(config);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
  // The crashed relay reports nothing as a sender...
  EXPECT_EQ(result.links.count(link_key{1, 2}), 0u);
  EXPECT_EQ(result.links.count(link_key{1, 0}), 0u);
  // ...but its upstream sender is alive and reports the collapse.
  ASSERT_EQ(result.links.count(link_key{0, 1}), 1u);
  const auto& obs = result.links.at(link_key{0, 1});
  EXPECT_GT(obs.total_attempts(), 0);
  EXPECT_EQ(obs.reuse_successes + obs.cf_successes, 0);
}

TEST(FaultSim, TransientCrashHealsAtTheRestartRun) {
  relay_world w;
  auto config = quick_config(20);
  config.probes_per_run = 0;
  config.faults.crashes.push_back(node_crash{1, 5, 10});
  const auto result = w.run(config);
  // 5 of 20 instances die with the relay: PDR 15/20.
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.75);
  // The relay's own stream holds samples only for its 15 healthy runs.
  const auto& obs = result.links.at(link_key{1, 2});
  EXPECT_EQ(obs.reuse_samples.size() + obs.cf_samples.size(), 15u);
  for (const auto& [run, prr] : obs.cf_samples)
    EXPECT_TRUE(run < 5 || run >= 10);
}

TEST(FaultSim, DirectedLinkFailureHitsOnlyThatLink) {
  relay_world w;
  auto config = quick_config(20);
  config.probes_per_run = 1;
  config.faults.link_failures.push_back(link_failure{1, 2, 0, -1});
  const auto result = w.run(config);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
  // Both endpoints are up and reporting; the failed direction shows
  // PRR 0, the healthy first hop is untouched.
  const auto& broken = result.links.at(link_key{1, 2});
  EXPECT_GT(broken.total_attempts(), 0);
  EXPECT_EQ(broken.reuse_successes + broken.cf_successes, 0);
  const auto& healthy = result.links.at(link_key{0, 1});
  EXPECT_DOUBLE_EQ(healthy.overall_cf_prr(), 1.0);
}

TEST(FaultSim, SuppressionWithholdsReportsWithoutTouchingTraffic) {
  relay_world w;
  auto baseline_config = quick_config(20);
  const auto baseline = w.run(baseline_config);

  auto config = quick_config(20);
  config.faults.suppressions.push_back(report_suppression{1, 0, -1});
  const auto result = w.run(config);

  // Traffic is bit-identical: suppression only mutes the reports.
  EXPECT_EQ(result.flow_pdr, baseline.flow_pdr);
  EXPECT_EQ(result.instances_delivered, baseline.instances_delivered);
  EXPECT_EQ(result.energy.total_mj, baseline.energy.total_mj);
  EXPECT_EQ(result.links.count(link_key{1, 2}), 0u);
  EXPECT_EQ(result.links.count(link_key{0, 1}), 1u);
}

TEST(FaultSim, EmptyPlanIsBitIdentical) {
  relay_world w;
  auto config = quick_config(30, 13);
  config.temporal_fading_sigma_db = 2.0;  // exercise every RNG consumer
  config.calibration_drift_sigma_db = 6.0;
  config.maintained_drift_sigma_db = 1.0;
  config.intermittent_fraction = 0.15;
  const auto baseline = w.run(config);

  auto faulty = config;
  // A crash scheduled entirely after the simulated window: the plan is
  // non-empty but can never fire, and must still change nothing.
  faulty.faults.crashes.push_back(node_crash{0, 30, -1});
  const auto replay = w.run(faulty);

  EXPECT_EQ(replay.flow_pdr, baseline.flow_pdr);
  EXPECT_EQ(replay.instances_released, baseline.instances_released);
  EXPECT_EQ(replay.instances_delivered, baseline.instances_delivered);
  EXPECT_EQ(replay.energy.per_node_mj, baseline.energy.per_node_mj);
  EXPECT_EQ(replay.energy.idle_listens, baseline.energy.idle_listens);
  ASSERT_EQ(replay.links.size(), baseline.links.size());
  for (const auto& [key, obs] : baseline.links) {
    const auto& other = replay.links.at(key);
    EXPECT_EQ(other.reuse_samples, obs.reuse_samples);
    EXPECT_EQ(other.cf_samples, obs.cf_samples);
    EXPECT_EQ(other.reuse_attempts, obs.reuse_attempts);
    EXPECT_EQ(other.reuse_successes, obs.reuse_successes);
    EXPECT_EQ(other.cf_attempts, obs.cf_attempts);
    EXPECT_EQ(other.cf_successes, obs.cf_successes);
  }
}

TEST(FaultSim, FaultsDoNotPerturbUnrelatedSamplePaths) {
  // A fault on one flow's link must not reshuffle another flow's sample
  // path. With single-attempt schedules every slot fires regardless of
  // reception outcomes, so the RNG streams stay aligned and the healthy
  // flow's per-run samples must match the no-fault run *exactly*.
  auto t = line_topology(4, 100.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.7, channels);
  set_link_all_channels(t, 2, 3, 0.7, channels);
  const auto f0 = one_link_flow(0, 0, 1, 10, 10);
  const auto f1 = one_link_flow(1, 2, 3, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(1, 0, 0, 0, 2, 3), 1, 1);

  auto config = quick_config(40, 17);
  config.probes_per_run = 1;
  const auto baseline =
      run_simulation(t, sched, {f0, f1}, channels, config);

  auto faulty = config;
  faulty.faults.link_failures.push_back(link_failure{2, 3, 0, -1});
  const auto result =
      run_simulation(t, sched, {f0, f1}, channels, faulty);

  EXPECT_DOUBLE_EQ(result.flow_pdr[1], 0.0);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], baseline.flow_pdr[0]);
  const auto& obs = result.links.at(link_key{0, 1});
  const auto& base = baseline.links.at(link_key{0, 1});
  EXPECT_EQ(obs.cf_samples, base.cf_samples);
  EXPECT_EQ(obs.reuse_samples, base.reuse_samples);
}

// ------------------------------------------- slice boundary semantics --

TEST(FaultPlan, SliceDropsEventsOnTheHalfOpenBoundary) {
  fault_plan plan;
  // Starts exactly at the window's end: outside [0, 18).
  plan.crashes.push_back(node_crash{1, 18, 20});
  // Ends exactly at the window's start: outside [18, 36).
  plan.link_failures.push_back(link_failure{0, 1, 10, 18});
  // Permanent from inside the first window.
  plan.suppressions.push_back(report_suppression{2, 4, -1});
  plan.jams.push_back(jammed_slot{3, 17, 19});  // straddles the boundary

  const auto first = slice_fault_plan(plan, 0, 18);
  EXPECT_TRUE(first.crashes.empty());
  ASSERT_EQ(first.link_failures.size(), 1u);
  EXPECT_EQ(first.link_failures[0], (link_failure{0, 1, 10, 18}));
  ASSERT_EQ(first.suppressions.size(), 1u);
  EXPECT_EQ(first.suppressions[0], (report_suppression{2, 4, -1}));
  ASSERT_EQ(first.jams.size(), 1u);
  EXPECT_EQ(first.jams[0], (jammed_slot{3, 17, 18}));  // clipped

  const auto second = slice_fault_plan(plan, 18, 18);
  ASSERT_EQ(second.crashes.size(), 1u);
  EXPECT_EQ(second.crashes[0], (node_crash{1, 0, 2}));
  EXPECT_TRUE(second.link_failures.empty());
  // The permanent suppression stays permanent in every later window.
  ASSERT_EQ(second.suppressions.size(), 1u);
  EXPECT_EQ(second.suppressions[0], (report_suppression{2, 0, -1}));
  ASSERT_EQ(second.jams.size(), 1u);
  EXPECT_EQ(second.jams[0], (jammed_slot{3, 0, 1}));

  // Adjacent slices partition the plan: every run of the straddling jam
  // lands in exactly one window-local interval.
  EXPECT_EQ((first.jams[0].end_run - first.jams[0].start_run) +
                (second.jams[0].end_run - second.jams[0].start_run),
            2);
}

TEST(FaultPlan, SliceEmptyWindowPreservesEmptyPlanIdentity) {
  fault_plan plan;
  plan.crashes.push_back(node_crash{1, 0, -1});
  plan.jams.push_back(jammed_slot{0, 0, -1});
  const auto sliced = slice_fault_plan(plan, 5, 0);
  EXPECT_TRUE(sliced.empty());
  // An empty slice of an empty plan is the strict no-op the simulator's
  // bit-identity guarantee relies on.
  EXPECT_EQ(slice_fault_plan(fault_plan{}, 0, 10), fault_plan{});
}

TEST(FaultPlan, SliceRejectsMalformedInput) {
  fault_plan plan;
  plan.crashes.push_back(node_crash{1, 0, 10});
  EXPECT_THROW(slice_fault_plan(plan, -1, 10), std::invalid_argument);
  EXPECT_THROW(slice_fault_plan(plan, 0, -1), std::invalid_argument);
  // A malformed plan (end before start) is rejected, not sliced quietly.
  plan.crashes[0] = node_crash{1, 10, 4};
  EXPECT_THROW(slice_fault_plan(plan, 0, 20), std::invalid_argument);
  plan.crashes.clear();
  plan.jams.push_back(jammed_slot{-1, 0, -1});  // negative slot
  EXPECT_THROW(slice_fault_plan(plan, 0, 20), std::invalid_argument);
}

// ------------------------------------------------------- jammed slots --

TEST(FaultPlan, JamRecordsValidateAndRoundTrip) {
  fault_plan plan;
  plan.jams.push_back(jammed_slot{14, 0, -1});
  plan.jams.push_back(jammed_slot{3, 5, 9});
  EXPECT_NO_THROW(validate_fault_plan(plan));

  std::stringstream ss;
  save_fault_plan(plan, ss);
  EXPECT_EQ(load_fault_plan(ss), plan);

  plan.jams.push_back(jammed_slot{2, 7, 7});  // empty interval
  EXPECT_THROW(validate_fault_plan(plan), std::invalid_argument);
}

TEST(FaultState, TracksJammedSlotsAcrossRuns) {
  fault_plan plan;
  plan.jams.push_back(jammed_slot{2, 1, 3});
  plan.jams.push_back(jammed_slot{5, 0, -1});
  fault_state state(plan, 3);
  EXPECT_TRUE(state.any());

  state.begin_run(0);
  EXPECT_FALSE(state.slot_jammed(2));
  EXPECT_TRUE(state.slot_jammed(5));
  EXPECT_FALSE(state.slot_jammed(99));  // beyond any jam: never jammed

  state.begin_run(1);
  EXPECT_TRUE(state.slot_jammed(2));
  state.begin_run(3);
  EXPECT_FALSE(state.slot_jammed(2));
  EXPECT_TRUE(state.slot_jammed(5));
}

TEST(FaultSim, JammedSlotKillsThatSlotButRetriesSurvive) {
  // The relay schedule puts each hop's first attempt in slots 0 and 2
  // and the retries in slots 1 and 3. Jamming slot 0 kills every
  // first-hop attempt there; the retry slot is untouched, so on perfect
  // links the flow still delivers.
  relay_world w;
  auto config = quick_config(30);
  config.probes_per_run = 0;  // probes are jam-immune; count traffic only
  config.faults.jams.push_back(jammed_slot{0, 0, -1});
  const auto jammed = w.run(config);
  EXPECT_DOUBLE_EQ(jammed.flow_pdr[0], 1.0);

  // Jamming both attempts' slots of hop 0 severs the flow entirely.
  config.faults.jams.push_back(jammed_slot{1, 0, -1});
  const auto severed = w.run(config);
  EXPECT_DOUBLE_EQ(severed.flow_pdr[0], 0.0);
  // The sender still transmitted and reported: the manager sees the
  // PRR collapse rather than silence.
  const auto& obs = severed.links.at(link_key{0, 1});
  EXPECT_GT(obs.cf_attempts + obs.reuse_attempts, 0);
  EXPECT_EQ(obs.cf_successes + obs.reuse_successes, 0);
}

TEST(FaultSim, JamOnOffSharesTheSamplePathOutsideTheJam) {
  // Jam checks compose after the PHY draw (the draw is consumed either
  // way), so switching a jam on must not reshuffle any other slot's
  // sample path: the unjammed flow's observations are identical with
  // and without the jam.
  auto t = line_topology(4, 100.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.7, channels);
  set_link_all_channels(t, 2, 3, 0.7, channels);
  const auto f0 = one_link_flow(0, 0, 1, 10, 10);
  const auto f1 = one_link_flow(1, 2, 3, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(1, 0, 0, 0, 2, 3), 1, 1);

  auto config = quick_config(40, 17);
  config.probes_per_run = 1;
  const auto baseline =
      run_simulation(t, sched, {f0, f1}, channels, config);
  config.faults.jams.push_back(jammed_slot{1, 0, -1});
  const auto jammed =
      run_simulation(t, sched, {f0, f1}, channels, config);

  EXPECT_DOUBLE_EQ(jammed.flow_pdr[1], 0.0);
  EXPECT_DOUBLE_EQ(jammed.flow_pdr[0], baseline.flow_pdr[0]);
  const auto& base = baseline.links.at(link_key{0, 1});
  const auto& obs = jammed.links.at(link_key{0, 1});
  EXPECT_EQ(obs.cf_samples, base.cf_samples);
  EXPECT_EQ(obs.reuse_samples, base.reuse_samples);
  EXPECT_EQ(obs.cf_successes, base.cf_successes);
}

// --------------------------------------------------- config validation --

TEST(SimConfig, ValidatesNumericInvariants) {
  const auto expect_rejected = [](auto&& mutate) {
    relay_world w;
    auto config = quick_config(10);
    mutate(config);
    EXPECT_THROW(w.run(config), std::invalid_argument);
  };
  expect_rejected([](sim_config& c) { c.runs = 0; });
  expect_rejected([](sim_config& c) { c.runs = -5; });
  expect_rejected([](sim_config& c) { c.probes_per_run = -1; });
  expect_rejected([](sim_config& c) { c.interferer_start_run = -1; });
  expect_rejected([](sim_config& c) { c.temporal_fading_sigma_db = -1.0; });
  expect_rejected([](sim_config& c) { c.calibration_drift_sigma_db = -0.1; });
  expect_rejected([](sim_config& c) { c.maintained_drift_sigma_db = -2.0; });
  expect_rejected([](sim_config& c) { c.intermittent_sigma_db = -1.0; });
  expect_rejected([](sim_config& c) { c.intermittent_fraction = -0.01; });
  expect_rejected([](sim_config& c) { c.intermittent_fraction = 1.01; });
  expect_rejected([](sim_config& c) {
    c.temporal_fading_sigma_db = std::numeric_limits<double>::quiet_NaN();
  });
  expect_rejected([](sim_config& c) {
    c.capture_threshold_db = std::numeric_limits<double>::infinity();
  });
  expect_rejected([](sim_config& c) { c.capture_transition_db = -1.0; });
  expect_rejected([](sim_config& c) { c.capture_transition_db = 0.0; });
  expect_rejected([](sim_config& c) {
    c.faults.crashes.push_back(node_crash{0, -1, -1});
  });
  // A zero-width link-model transition is rejected before any engine
  // runs, on both engines.
  for (const bool fast : {true, false}) {
    relay_world w;
    auto lm = w.t.link_model();
    lm.transition_width_db = 0.0;
    w.t.set_link_model(lm);
    auto config = quick_config(10);
    config.use_fast_path = fast;
    EXPECT_THROW(w.run(config), std::invalid_argument);
  }
  // The defaults, and an onset beyond the horizon ("never"), are valid.
  EXPECT_NO_THROW(validate_sim_config(sim_config{}));
  sim_config never;
  never.interferer_start_run = 1000000;
  EXPECT_NO_THROW(validate_sim_config(never));
}

}  // namespace
}  // namespace wsan::sim
