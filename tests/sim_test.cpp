#include <gtest/gtest.h>

#include <cmath>

#include "sim/interference.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"
#include "tsch/schedule.h"

namespace wsan::sim {
namespace {

/// Topology with nodes on one floor spaced `spacing` meters apart along
/// the x axis. Link PRRs start at zero; tests set what they need.
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
  // Unit tests pin the channel: no drift, no slow fading, no probe
  // traffic unless a test opts in.
  config.temporal_fading_sigma_db = 0.0;
  config.calibration_drift_sigma_db = 0.0;
  config.maintained_drift_sigma_db = 0.0;
  config.intermittent_fraction = 0.0;
  return config;
}

TEST(Simulator, PerfectLinkDeliversEverything) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);

  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  const auto result =
      run_simulation(t, sched, {f}, channels, quick_config());
  ASSERT_EQ(result.flow_pdr.size(), 1u);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 1.0);
  EXPECT_EQ(result.instances_released, 50);
  EXPECT_EQ(result.instances_delivered, 50);
}

TEST(Simulator, DeadLinkDeliversNothing) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  // PRR stays 0 (default no-signal).
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  const auto result =
      run_simulation(t, sched, {f}, channels, quick_config());
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
}

TEST(Simulator, RetrySlotRecoversFromPrimaryFailure) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.5, channels);

  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  const auto result =
      run_simulation(t, sched, {f}, channels, quick_config(4000, 11));
  // Delivery probability = 1 - 0.5^2 = 0.75 with one retry.
  EXPECT_NEAR(result.flow_pdr[0], 0.75, 0.03);
}

TEST(Simulator, RetrySlotStaysSilentAfterSuccess) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);

  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  auto config = quick_config(20);
  config.probes_per_run = 0;  // count data attempts only
  const auto result = run_simulation(t, sched, {f}, channels, config);
  // Only the primary attempt ever fires: exactly 20 attempts in total.
  const auto& obs = result.links.at(link_key{0, 1});
  EXPECT_EQ(obs.cf_attempts + obs.reuse_attempts, 20);
}

TEST(Simulator, MultiHopProgressesAlongRoute) {
  auto t = line_topology(3);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  set_link_all_channels(t, 1, 2, 1.0, channels);

  flow::flow f;
  f.id = 0;
  f.source = 0;
  f.destination = 2;
  f.period = 10;
  f.deadline = 10;
  f.route = {flow::link{0, 1}, flow::link{1, 2}};
  f.uplink_links = 2;

  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  sched.add(make_tx(0, 0, 1, 0, 1, 2), 2, 0);
  sched.add(make_tx(0, 0, 1, 1, 1, 2), 3, 0);

  const auto result =
      run_simulation(t, sched, {f}, channels, quick_config());
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 1.0);
}

TEST(Simulator, BrokenFirstHopSilencesDownstreamLinks) {
  auto t = line_topology(3);
  const auto channels = phy::channels(4);
  // First hop dead, second hop perfect.
  set_link_all_channels(t, 1, 2, 1.0, channels);

  flow::flow f;
  f.id = 0;
  f.source = 0;
  f.destination = 2;
  f.period = 10;
  f.deadline = 10;
  f.route = {flow::link{0, 1}, flow::link{1, 2}};
  f.uplink_links = 2;

  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  sched.add(make_tx(0, 0, 1, 0, 1, 2), 2, 0);
  sched.add(make_tx(0, 0, 1, 1, 1, 2), 3, 0);

  auto config = quick_config(20);
  config.probes_per_run = 0;  // probes would create entries for 1->2
  const auto result = run_simulation(t, sched, {f}, channels, config);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
  // The 1->2 link never transmits: the packet never reaches node 1.
  EXPECT_EQ(result.links.count(link_key{1, 2}), 0u);
}

TEST(Simulator, FarApartReuseSurvivesViaCapture) {
  auto t = line_topology(4, 100.0);  // 100 m apart: negligible coupling
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  set_link_all_channels(t, 2, 3, 1.0, channels);
  // Cross-coupling stays at the no-signal default.

  const auto f0 = one_link_flow(0, 0, 1, 10, 10);
  const auto f1 = one_link_flow(1, 2, 3, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(1, 0, 0, 0, 2, 3), 0, 0);  // same cell: reuse
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  sched.add(make_tx(1, 0, 0, 1, 2, 3), 1, 0);

  auto config = quick_config(200);
  config.probes_per_run = 0;  // keep the cf stream empty for the check
  const auto result = run_simulation(t, sched, {f0, f1}, channels, config);
  EXPECT_GT(result.flow_pdr[0], 0.99);
  EXPECT_GT(result.flow_pdr[1], 0.99);
  // Attempts were classified as reuse-slot attempts.
  EXPECT_GT(result.links.at(link_key{0, 1}).reuse_attempts, 0);
  EXPECT_EQ(result.links.at(link_key{0, 1}).cf_attempts, 0);
}

TEST(Simulator, CloseReuseBreaksReception) {
  auto t = line_topology(4, 10.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  set_link_all_channels(t, 2, 3, 1.0, channels);
  // The interfering sender couples strongly into the victim receiver:
  // same power as the desired signal -> capture fails.
  for (channel_t ch : channels) {
    t.set_rssi_dbm(2, 1, ch, t.rssi_dbm(0, 1, ch));
    t.set_rssi_dbm(0, 3, ch, t.rssi_dbm(2, 3, ch));
  }

  const auto f0 = one_link_flow(0, 0, 1, 10, 10);
  const auto f1 = one_link_flow(1, 2, 3, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(1, 0, 0, 0, 2, 3), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  sched.add(make_tx(1, 0, 0, 1, 2, 3), 1, 0);

  const auto result =
      run_simulation(t, sched, {f0, f1}, channels, quick_config(400));
  EXPECT_LT(result.flow_pdr[0], 0.5);
  EXPECT_LT(result.flow_pdr[1], 0.5);
}

TEST(Simulator, SeparateOffsetsDoNotInterfere) {
  // Same geometry as CloseReuseBreaksReception, but the two flows are on
  // different channel offsets, hence different physical channels.
  auto t = line_topology(4, 10.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  set_link_all_channels(t, 2, 3, 1.0, channels);
  for (channel_t ch : channels) {
    t.set_rssi_dbm(2, 1, ch, t.rssi_dbm(0, 1, ch));
    t.set_rssi_dbm(0, 3, ch, t.rssi_dbm(2, 3, ch));
  }

  const auto f0 = one_link_flow(0, 0, 1, 10, 10);
  const auto f1 = one_link_flow(1, 2, 3, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(1, 0, 0, 0, 2, 3), 0, 1);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  sched.add(make_tx(1, 0, 0, 1, 2, 3), 1, 1);

  const auto result =
      run_simulation(t, sched, {f0, f1}, channels, quick_config(200));
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 1.0);
  EXPECT_DOUBLE_EQ(result.flow_pdr[1], 1.0);
  // Exclusive cells: attempts are contention-free.
  EXPECT_EQ(result.links.at(link_key{0, 1}).reuse_attempts, 0);
  EXPECT_GT(result.links.at(link_key{0, 1}).cf_attempts, 0);
}

TEST(Simulator, IsDeterministicPerSeed) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.7, channels);
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  const auto a = run_simulation(t, sched, {f}, channels, quick_config(100, 5));
  const auto b = run_simulation(t, sched, {f}, channels, quick_config(100, 5));
  EXPECT_DOUBLE_EQ(a.flow_pdr[0], b.flow_pdr[0]);
  const auto c = run_simulation(t, sched, {f}, channels, quick_config(100, 6));
  // Different seed: almost surely a different sample path.
  EXPECT_NE(a.instances_delivered, 0);
  (void)c;
}

TEST(Simulator, RejectsMismatchedChannelList) {
  auto t = line_topology(2);
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  EXPECT_THROW(
      run_simulation(t, sched, {f}, phy::channels(3), quick_config()),
      std::invalid_argument);
}

TEST(Simulator, RejectsRepeatedChannel) {
  // Two offsets of a slot on one physical channel would interfere
  // across cells; both engines refuse such a channel list.
  auto t = line_topology(2);
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 2);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  for (const bool fast : {true, false}) {
    auto config = quick_config();
    config.use_fast_path = fast;
    EXPECT_THROW(run_simulation(t, sched, {f}, {11, 11}, config),
                 std::invalid_argument)
        << (fast ? "fast" : "naive");
  }
}

TEST(Simulator, RejectsOutOfRangeInstance) {
  // schedule::add only checks cell coordinates; a transmission whose
  // instance index exceeds the flow's instances_in(hyperperiod) would
  // index past the per-instance progress array. The simulator must
  // reject it during schedule flattening.
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  const auto f = one_link_flow(0, 0, 1, 10, 10);  // 1 instance in 10 slots
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 3, 0, 0, 0, 1), 0, 0);  // instance 3 of 1
  EXPECT_THROW(run_simulation(t, sched, {f}, channels, quick_config()),
               std::invalid_argument);
}

TEST(Simulator, RejectsOutOfRangeLinkIndex) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  const auto f = one_link_flow(0, 0, 1, 10, 10);  // route has 1 link
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 2, 0, 0, 1), 0, 0);  // link_index 2 of 1
  EXPECT_THROW(run_simulation(t, sched, {f}, channels, quick_config()),
               std::invalid_argument);
}

TEST(Simulator, RejectsTransmissionNodesOutsideTopology) {
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  const auto f = one_link_flow(0, 0, 5, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 5), 0, 0);  // node 5 of a 2-node topo
  EXPECT_THROW(run_simulation(t, sched, {f}, channels, quick_config()),
               std::invalid_argument);
}

TEST(Simulator, ProbesProvideContentionFreeSamples) {
  // A link whose every data slot is shared would have no contention-free
  // distribution for the detector; neighbor-discovery probes fill it.
  auto t = line_topology(4, 100.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 1.0, channels);
  set_link_all_channels(t, 2, 3, 1.0, channels);

  const auto f0 = one_link_flow(0, 0, 1, 10, 10);
  const auto f1 = one_link_flow(1, 2, 3, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(1, 0, 0, 0, 2, 3), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);
  sched.add(make_tx(1, 0, 0, 1, 2, 3), 1, 0);

  auto config = quick_config(20);
  config.probes_per_run = 3;
  const auto result = run_simulation(t, sched, {f0, f1}, channels, config);
  const auto& obs = result.links.at(link_key{0, 1});
  EXPECT_EQ(obs.cf_attempts, 20 * 3);
  EXPECT_EQ(obs.cf_samples.size(), 20u);  // one PRR sample per run
  EXPECT_GT(obs.reuse_attempts, 0);
  // A perfect, isolated link has perfect probes.
  EXPECT_DOUBLE_EQ(obs.overall_cf_prr(), 1.0);
}

TEST(Simulator, ProbeOutcomeIsIndependentOfItsChannel) {
  // A probe picks a channel uniformly and then succeeds with that
  // channel's PRR, so over many probes the success rate is the mean PRR
  // across channels. An outcome drawn from the same uniform as the
  // channel pick would drift from that mean when PRRs differ by
  // channel (here to 0.25). Both data slots are jammed: they count as
  // failed contention-free attempts, so cf_successes counts probes
  // alone.
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  const double prr[] = {0.9, 0.1, 0.1, 0.1};
  for (std::size_t c = 0; c < channels.size(); ++c) {
    t.set_prr(0, 1, channels[c], prr[c]);
    t.set_prr(1, 0, channels[c], prr[c]);
  }
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  constexpr int runs = 1000;
  constexpr int probes = 20;
  auto config = quick_config(runs);
  config.probes_per_run = probes;
  config.faults.jams.push_back({0, 0, -1});
  config.faults.jams.push_back({1, 0, -1});
  for (const bool fast : {true, false}) {
    config.use_fast_path = fast;
    const auto result = run_simulation(t, sched, {f}, channels, config);
    const auto& obs = result.links.at(link_key{0, 1});
    ASSERT_EQ(obs.cf_attempts, runs * (probes + 2));
    // Mean PRR 0.3; the binomial standard error over 20,000 probes is
    // 0.0032.
    EXPECT_NEAR(static_cast<double>(obs.cf_successes) / (runs * probes),
                0.3, 0.02)
        << (fast ? "fast" : "naive") << " engine";
  }
}

TEST(Simulator, TemporalFadingWidensOutcomeSpread) {
  // With slow fading, a borderline link's per-run PRR varies run to run;
  // without it the variation is pure Bernoulli noise around a constant.
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.95, channels);
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  auto static_config = quick_config(400, 21);
  const auto static_run =
      run_simulation(t, sched, {f}, channels, static_config);

  auto fading_config = quick_config(400, 21);
  fading_config.temporal_fading_sigma_db = 6.0;
  const auto fading_run =
      run_simulation(t, sched, {f}, channels, fading_config);

  // Strong fading must push some runs into failure: lower delivery than
  // the static channel (0.95 with retry ~ 0.9975).
  EXPECT_LT(fading_run.flow_pdr[0], static_run.flow_pdr[0]);
  EXPECT_GT(static_run.flow_pdr[0], 0.98);
}

TEST(Simulator, TemporalFadingIsRedrawnEveryRun) {
  // Each run draws fresh fades. On a link whose clean PRR is 0.5, a
  // 6 dB fade pushes each channel near 0 or 1, so the per-run PRR over
  // 40 probes swings from run to run (standard deviation ~0.2); fades
  // frozen after the first run would leave only the spread of channel
  // picks and Bernoulli outcomes (~0.08, as without fading). Both data
  // slots are jammed so the per-run samples hold probes only.
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.5, channels);
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  constexpr int runs = 300;
  constexpr int probes = 40;
  auto config = quick_config(runs, 21);
  config.temporal_fading_sigma_db = 6.0;
  config.probes_per_run = probes;
  config.faults.jams.push_back({0, 0, -1});
  config.faults.jams.push_back({1, 0, -1});
  for (const bool fast : {true, false}) {
    config.use_fast_path = fast;
    const auto result = run_simulation(t, sched, {f}, channels, config);
    const auto& samples = result.links.at(link_key{0, 1}).cf_samples;
    ASSERT_EQ(samples.size(), static_cast<std::size_t>(runs));
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& [run, prr] : samples) {
      // Undo the two jammed data attempts: probe successes per probe.
      const double probe_prr = prr * (probes + 2) / probes;
      sum += probe_prr;
      sum_sq += probe_prr * probe_prr;
    }
    const double mean = sum / runs;
    const double sd = std::sqrt(sum_sq / runs - mean * mean);
    EXPECT_GT(sd, 0.15) << (fast ? "fast" : "naive") << " engine";
  }
}

TEST(Simulator, CalibrationDriftIsStaticAcrossRuns) {
  // Drift moves a link's quality once for the whole experiment; with no
  // per-run fading the per-run PRR samples of a drifted link are i.i.d.
  // around a single (shifted) mean, and the same seed gives the same
  // shift.
  auto t = line_topology(2);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.95, channels);
  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  auto config = quick_config(300, 33);
  config.calibration_drift_sigma_db = 6.0;
  const auto a = run_simulation(t, sched, {f}, channels, config);
  const auto b = run_simulation(t, sched, {f}, channels, config);
  EXPECT_DOUBLE_EQ(a.flow_pdr[0], b.flow_pdr[0]);

  // Across many seeds, drift must sometimes land below the static PDR
  // (the whole point: the measured world is not the live world). The
  // scheduled 0->1 link is a *maintained* pair, so the maintained drift
  // is what applies to it.
  int worse = 0;
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    auto c = quick_config(100, seed);
    c.maintained_drift_sigma_db = 8.0;
    const auto r = run_simulation(t, sched, {f}, channels, c);
    if (r.flow_pdr[0] < 0.9) ++worse;
  }
  EXPECT_GT(worse, 0);
  EXPECT_LT(worse, 20);
}

// --------------------------------------------------------- interference --

TEST(Interference, FieldOnlyHitsOverlappingChannels) {
  auto t = line_topology(2);
  external_interferer intf;
  intf.pos = {0.0, 0.0, 0};
  intf.wifi_channel = 1;
  const interference_field field(t, {intf}, 1);
  EXPECT_TRUE(field.power_at(0, 0, 11).has_value());
  EXPECT_TRUE(field.power_at(0, 0, 14).has_value());
  EXPECT_FALSE(field.power_at(0, 0, 15).has_value());
  EXPECT_FALSE(field.power_at(0, 0, 26).has_value());
}

TEST(Interference, PowerDecaysWithDistance) {
  auto t = line_topology(2, 50.0);  // node 0 at 0 m, node 1 at 50 m
  external_interferer intf;
  intf.pos = {0.0, 0.0, 0};
  const interference_field field(t, {intf}, 1);
  // Shadowing is per-(interferer, node) but 4 dB sigma cannot flip a
  // 50 m distance gap at exponent 3.
  EXPECT_GT(*field.power_at(0, 0, 11), *field.power_at(0, 1, 11));
}

TEST(Interference, DutyCycleControlsActivity) {
  auto t = line_topology(2);
  external_interferer always;
  always.duty_cycle = 1.0;
  external_interferer never;
  never.duty_cycle = 0.0;
  const interference_field field(t, {always, never}, 1);
  rng gen(3);
  for (int i = 0; i < 50; ++i) {
    const auto active = field.sample_active(gen);
    EXPECT_TRUE(active[0]);
    EXPECT_FALSE(active[1]);
  }
}

TEST(Interference, OnePerFloorPlacesAtEveryFloor) {
  const auto t = topo::make_wustl();
  const auto interferers = one_interferer_per_floor(t);
  ASSERT_EQ(interferers.size(), 3u);
  for (int f = 0; f < 3; ++f)
    EXPECT_EQ(interferers[static_cast<std::size_t>(f)].pos.floor, f);
}

TEST(Interference, OnsetRunDelaysTheImpact) {
  // Interference switched on at run 10 of 20: the first half of the
  // per-run PRR samples is clean, the second half degraded.
  auto t = line_topology(2, 10.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.99, channels);

  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  auto config = quick_config(20, 9);
  external_interferer intf;
  intf.pos = {5.0, 0.0, 0};
  intf.duty_cycle = 1.0;
  intf.tx_power_dbm = 20.0;
  config.interferers = {intf};
  config.interferer_start_run = 10;
  config.probes_per_run = 1;
  const auto result = run_simulation(t, sched, {f}, channels, config);

  const auto& obs = result.links.at(link_key{0, 1});
  double early_sum = 0.0;
  int early_n = 0;
  double late_sum = 0.0;
  int late_n = 0;
  for (const auto& [run, prr] : obs.cf_samples) {
    if (run < 10) {
      early_sum += prr;
      ++early_n;
    } else {
      late_sum += prr;
      ++late_n;
    }
  }
  ASSERT_GT(early_n, 0);
  ASSERT_GT(late_n, 0);
  EXPECT_GT(early_sum / early_n, 0.9);  // clean half
  EXPECT_LT(late_sum / late_n, 0.5);    // jammed half
}

TEST(Interference, ActivityIsDrawnPerSamplePoint) {
  // A duty-cycled interferer is an independent Bernoulli at every
  // sample point (each slot with traffic, each probe), not once per
  // run: with a 50% duty cycle that wipes the link out when active,
  // the per-run contention-free PRR over 22 attempts concentrates
  // around one half instead of splitting the runs into clean and
  // jammed ones.
  auto t = line_topology(2, 10.0);
  const auto channels = phy::channels(4);
  set_link_all_channels(t, 0, 1, 0.99, channels);

  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  auto config = quick_config(300, 9);
  external_interferer intf;
  intf.pos = {5.0, 0.0, 0};  // right next to the receiver
  intf.duty_cycle = 0.5;
  intf.tx_power_dbm = 20.0;
  config.interferers = {intf};
  config.probes_per_run = 20;
  for (const bool fast : {true, false}) {
    config.use_fast_path = fast;
    const auto result = run_simulation(t, sched, {f}, channels, config);
    const auto& samples = result.links.at(link_key{0, 1}).cf_samples;
    ASSERT_EQ(samples.size(), 300u);
    int mixed = 0;
    for (const auto& [run, prr] : samples)
      if (prr > 0.2 && prr < 0.8) ++mixed;
    EXPECT_GT(mixed, 270) << (fast ? "fast" : "naive") << " engine";
  }
}

TEST(Interference, ExternalInterferenceDegradesMarginalLink) {
  auto t = line_topology(2, 10.0);
  const auto channels = phy::channels(4);
  // A link with moderate margin: PRR 0.99 alone.
  set_link_all_channels(t, 0, 1, 0.99, channels);

  const auto f = one_link_flow(0, 0, 1, 10, 10);
  tsch::schedule sched(10, 4);
  sched.add(make_tx(0, 0, 0, 0, 0, 1), 0, 0);
  sched.add(make_tx(0, 0, 0, 1, 0, 1), 1, 0);

  auto clean = quick_config(500, 9);
  const auto base = run_simulation(t, sched, {f}, channels, clean);

  auto noisy = quick_config(500, 9);
  external_interferer intf;
  intf.pos = {5.0, 0.0, 0};  // right next to the receiver
  intf.duty_cycle = 1.0;
  intf.tx_power_dbm = 20.0;
  noisy.interferers = {intf};
  const auto jammed = run_simulation(t, sched, {f}, channels, noisy);

  EXPECT_LT(jammed.flow_pdr[0], base.flow_pdr[0]);
}

}  // namespace
}  // namespace wsan::sim
