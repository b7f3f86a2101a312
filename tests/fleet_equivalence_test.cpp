// Equivalence oracle for incremental delta-scheduling and the fleet
// service built on it (the PR's acceptance test).
//
// core::delta_scheduler claims a canonical invariant: when seeded with a
// flow set and after any sequence of admit_flow/evict_flows calls, its
// (schedule, schedulable) state is bit-identical to a from-scratch
// core::schedule_flows run over its current flow set — same placements
// in the same insertion order, same verdict. This suite drives
// randomized admit/evict traces on both
// testbeds (Indriya-80, WUSTL-60) and checks the oracle after every
// single operation, plus the fleet-level determinism contract:
// run_churn is bit-identical at any --jobs value and replay_tenant
// reproduces exactly each tenant's slice of the full run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/rng.h"
#include "core/delta.h"
#include "core/scheduler.h"
#include "fleet/fleet.h"
#include "flow/flow_generator.h"
#include "index_check.h"
#include "obs/metrics.h"
#include "tsch/validate.h"

namespace wsan::fleet {
namespace {

fleet_config small_config(const std::string& testbed) {
  fleet_config config;
  config.testbed = testbed;
  config.num_channels = 4;
  config.tenants = 12;
  config.ops_per_tenant = 16;
  config.max_flows_per_tenant = 8;
  config.seed = 7;
  return config;
}

/// Asserts the canonical invariant: the delta scheduler's state equals a
/// full schedule_flows rerun over its current flow set, placement for
/// placement. Returns the oracle run (default-constructed for an empty
/// flow set).
core::schedule_result expect_canonical(const core::delta_scheduler& delta,
                                       const network_blueprint& blueprint,
                                       const std::string& context) {
  if (delta.empty()) {
    EXPECT_TRUE(delta.schedulable()) << context;
    EXPECT_TRUE(delta.sched().placements().empty()) << context;
    return {};
  }
  auto oracle = core::schedule_flows(delta.flows(), blueprint.reuse_hops,
                                     delta.config());
  EXPECT_EQ(delta.schedulable(), oracle.schedulable) << context;
  EXPECT_EQ(delta.sched().num_slots(), oracle.sched.num_slots()) << context;
  EXPECT_EQ(delta.sched().num_offsets(), oracle.sched.num_offsets())
      << context;
  EXPECT_EQ(delta.sched().placements(), oracle.sched.placements())
      << context << ": placements diverged from the schedule_flows oracle";
  return oracle;
}

/// What a randomized trace exercised. The delta scheduler never falls
/// back to a full rerun, so every hyperperiod change counted here was
/// repaired in place.
struct trace_summary {
  int admissions = 0;
  /// Refused admissions on a complete schedule: their partial
  /// placements (or grown grid) were rolled back.
  int rollbacks = 0;
  int evictions = 0;
  /// Evictions from a state that is not a complete schedule.
  int incomplete_evictions = 0;
  /// Evictions of two or more flows in one batch.
  int batch_evictions = 0;
  /// Rebuilds from the flow set (the seeding constructor) that left an
  /// incomplete base.
  int incomplete_builds = 0;
  int growths = 0;
  int shrinks = 0;
  /// Largest count of placements in shared cells over the trace.
  std::size_t shared_placements = 0;
  /// Reuse activations of the oracle runs over the trace.
  std::size_t reuse_activations = 0;
};

std::size_t shared_placements(const tsch::schedule& sched) {
  std::size_t n = 0;
  for (const auto& p : sched.placements())
    if (sched.cell_load(p.slot, p.offset) > 1) ++n;
  return n;
}

/// Expects `seeded` to hold `delta`'s state: same flows, verdict,
/// placed prefix and placements in the same order.
void expect_same_state(const core::delta_scheduler& seeded,
                       const core::delta_scheduler& delta,
                       const std::string& context) {
  EXPECT_EQ(seeded.size(), delta.size()) << context;
  EXPECT_EQ(seeded.schedulable(), delta.schedulable()) << context;
  EXPECT_EQ(seeded.placed(), delta.placed()) << context;
  EXPECT_EQ(seeded.sched().num_slots(), delta.sched().num_slots())
      << context;
  EXPECT_EQ(seeded.sched().placements(), delta.sched().placements())
      << context << ": the rebuilt scheduler diverged";
}

/// Drives one randomized admit/evict trace against the oracle, drawing
/// each admitted flow from `config.flow_params` with the given period
/// octaves. With `batch`, an eviction takes each flow with probability
/// 1/4 (at least one) in one evict_flows call. With `initial_flows`,
/// the trace starts from that many flows seeded through the
/// constructor, which leaves an incomplete base when they do not fit.
///
/// One scheduler, `delta`, lives through the whole trace and is checked
/// against the oracle after every op, so a wrong rho history that shows
/// only many ops later still fails. A second one, `seeded`, gets the
/// same ops and is rebuilt from its flow set with the seeding
/// constructor every fourth op: after every op it must hold `delta`'s
/// state, so the constructor must reproduce both the placements and the
/// history later ops resume from. Neither draws from `gen` on its own,
/// so the trace is the same as with `delta` alone.
trace_summary run_trace(const fleet_config& config, int period_min_exp,
                        int period_max_exp, int ops, bool batch = false,
                        int initial_flows = 0) {
  const auto blueprint = make_blueprint(config);
  flow::flow_set_params params = config.flow_params;
  params.period_min_exp = period_min_exp;
  params.period_max_exp = period_max_exp;
  rng gen(config.seed);
  trace_summary sum;

  params.num_flows = initial_flows;
  const auto initial =
      initial_flows > 0
          ? flow::generate_flow_set(blueprint.comm, params, gen).flows
          : std::vector<flow::flow>{};
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config,
                              initial);
  core::delta_scheduler seeded(blueprint.reuse_hops, blueprint.sched_config,
                               initial);
  expect_canonical(delta, blueprint, config.testbed + " seeded");
  expect_same_state(seeded, delta, config.testbed + " seeded");
  if (!seeded.schedulable()) ++sum.incomplete_builds;
  params.num_flows = 1;
  for (int op = 0; op < ops; ++op) {
    const std::string context =
        config.testbed + " op " + std::to_string(op);
    const bool can_admit =
        delta.size() < static_cast<std::size_t>(config.max_flows_per_tenant);
    const bool can_evict = !delta.empty();
    const bool do_admit =
        can_admit && (!can_evict || gen.bernoulli(config.admit_bias));
    const slot_t slots_before = delta.sched().num_slots();
    if (do_admit) {
      auto f = flow::generate_flow_set(blueprint.comm, params, gen)
                   .flows.front();
      // Oracle verdict for this exact admission, computed on a copy
      // BEFORE mutating the delta state.
      auto with_f = delta.flows();
      f.id = static_cast<flow_id>(with_f.size());
      with_f.push_back(f);
      const bool oracle_admits =
          delta.schedulable() &&
          core::schedule_flows(with_f, blueprint.reuse_hops, delta.config())
              .schedulable;
      const auto out = delta.admit_flow(f);
      EXPECT_EQ(out.admitted, oracle_admits)
          << context << ": admission verdict diverged";
      EXPECT_EQ(seeded.admit_flow(f).admitted, out.admitted) << context;
      if (out.admitted)
        ++sum.admissions;
      else if (delta.schedulable())
        ++sum.rollbacks;
      if (out.admitted && slots_before > 0 &&
          delta.sched().num_slots() > slots_before)
        ++sum.growths;
    } else {
      std::vector<flow_id> victims;
      if (batch)
        for (std::size_t i = 0; i < delta.size(); ++i)
          if (gen.bernoulli(0.25)) victims.push_back(static_cast<flow_id>(i));
      if (victims.empty())
        victims.push_back(static_cast<flow_id>(
            gen.uniform_int(0, static_cast<int>(delta.size()) - 1)));
      std::size_t freed = 0;
      for (const auto& p : delta.sched().placements())
        freed += std::binary_search(victims.begin(), victims.end(),
                                    p.tx.flow)
                     ? 1
                     : 0;
      if (!delta.schedulable()) ++sum.incomplete_evictions;
      if (victims.size() > 1) ++sum.batch_evictions;
      const auto out = delta.evict_flows(victims);
      EXPECT_TRUE(out.evicted) << context;
      EXPECT_EQ(out.freed, freed) << context;
      EXPECT_EQ(seeded.evict_flows(victims).freed, freed) << context;
      ++sum.evictions;
      if (!delta.empty() && delta.sched().num_slots() < slots_before)
        ++sum.shrinks;
    }
    const auto oracle = expect_canonical(delta, blueprint, context);
    tsch::expect_index_consistent(delta.sched());
    if (op % 4 == 3) {
      seeded = core::delta_scheduler(blueprint.reuse_hops, seeded.config(),
                                     seeded.flows());
      if (!seeded.schedulable()) ++sum.incomplete_builds;
    }
    expect_same_state(seeded, delta, context);
    if (delta.schedulable() && !delta.empty()) {
      sum.reuse_activations += oracle.stats.reuse_activations;
      sum.shared_placements =
          std::max(sum.shared_placements, shared_placements(delta.sched()));
      tsch::validation_options opts;
      opts.min_reuse_hops = blueprint.sched_config.rho_t;
      EXPECT_TRUE(tsch::validate_schedule(delta.sched(), delta.flows(),
                                          blueprint.reuse_hops, opts)
                      .ok)
          << context;
    }
  }
  return sum;
}

/// The small traces: three period octaves so admissions grow and
/// evictions shrink the hyperperiod. The trace must have exercised
/// every path; otherwise it proves nothing. (Deterministic given the
/// seed — tune the seed, not these.)
void run_small_trace(const std::string& testbed, std::uint64_t seed) {
  auto config = small_config(testbed);
  config.seed = seed;
  const auto sum = run_trace(config, 0, 2, 48);
  EXPECT_GT(sum.admissions, 0) << testbed;
  EXPECT_GT(sum.evictions, 0) << testbed;
  EXPECT_GT(sum.growths, 0) << testbed;
  EXPECT_GT(sum.shrinks, 0) << testbed;
}

TEST(DeltaEquivalence, RandomTraceMatchesOracleOnIndriya) {
  run_small_trace("indriya", 14);
}

TEST(DeltaEquivalence, RandomTraceMatchesOracleOnWustl) {
  run_small_trace("wustl", 9);
}

TEST(DeltaEquivalence, ReuseHeavyTraceMatchesOracle) {
  // The fleet-reuse benchmark regime: so few channels that RC has to
  // share cells, enough flows that admissions get refused, and periods
  // over three octaves.
  fleet_config config;
  config.testbed = "indriya";
  config.num_channels = 3;
  config.max_flows_per_tenant = 30;
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.seed = 14;
  const auto sum = run_trace(config, -1, 1, 160);
  EXPECT_GT(sum.shared_placements, 0u);
  EXPECT_GT(sum.reuse_activations, 0u);
  EXPECT_GT(sum.rollbacks, 0);
  EXPECT_GT(sum.incomplete_evictions, 0);
  EXPECT_GT(sum.incomplete_builds, 0);
  EXPECT_GT(sum.growths, 0);
  EXPECT_GT(sum.shrinks, 0);
}

TEST(DeltaEquivalence, BatchEvictionMatchesOracle) {
  // Departures in batches, as the scenario engine evicts an epoch's
  // departures: one replay from the lowest departed id, also on
  // incomplete bases and across shrinks. Two channels, and a seeded
  // start of 40 flows that does not fit, so incomplete bases come both
  // from the constructor and from failed replays.
  fleet_config config;
  config.testbed = "indriya";
  config.num_channels = 2;
  config.max_flows_per_tenant = 30;
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.seed = 1;
  const auto sum = run_trace(config, -1, 1, 160, /*batch=*/true,
                             /*initial_flows=*/40);
  EXPECT_GT(sum.batch_evictions, 0);
  EXPECT_GT(sum.incomplete_evictions, 0);
  EXPECT_GT(sum.incomplete_builds, 0);
  EXPECT_GT(sum.growths, 0);
  EXPECT_GT(sum.shrinks, 0);
}

TEST(DeltaEquivalence, BatchEvictionRejectsUnorderedIds) {
  const auto config = small_config("wustl");
  const auto blueprint = make_blueprint(config);
  flow::flow_set_params params;
  params.num_flows = 3;
  rng gen(5);
  core::delta_scheduler delta(
      blueprint.reuse_hops, blueprint.sched_config,
      flow::generate_flow_set(blueprint.comm, params, gen).flows);
  const auto before = delta.sched().placements();
  const std::vector<flow_id> unordered{2, 0};
  const std::vector<flow_id> repeated{1, 1};
  EXPECT_THROW(delta.evict_flows(unordered), std::invalid_argument);
  EXPECT_THROW(delta.evict_flows(repeated), std::invalid_argument);
  const std::vector<flow_id> past_end{1, 3};
  EXPECT_FALSE(delta.evict_flows(past_end).evicted);
  EXPECT_FALSE(delta.evict_flows({}).evicted);
  EXPECT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta.sched().placements(), before);
  expect_canonical(delta, blueprint, "refused batches");
}

TEST(DeltaAllocation, EvictionOnTheSameHyperperiodAllocatesNothing) {
  // One period, so no eviction changes the hyperperiod: once the
  // buffers have grown, evicting a flow frees it and replays the
  // suffix without a heap allocation.
  const auto config = small_config("indriya");
  const auto blueprint = make_blueprint(config);
  flow::flow_set_params params;
  params.num_flows = 12;
  params.period_min_exp = 0;
  params.period_max_exp = 0;
  rng gen(9);
  const auto flows =
      flow::generate_flow_set(blueprint.comm, params, gen).flows;
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config,
                              flows);
  ASSERT_TRUE(delta.schedulable());
  // Warm up: an eviction and the admission back leave every buffer at
  // its size.
  ASSERT_TRUE(delta.evict_flow(0).evicted);
  ASSERT_TRUE(delta.admit_flow(flows[0]).admitted);
  const auto before = test::g_allocations.load(std::memory_order_relaxed);
  const auto out = delta.evict_flow(3);
  const auto after = test::g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(out.evicted);
  EXPECT_GT(out.rescheduled_flows, 0u);
  EXPECT_EQ(after - before, 0u);
  expect_canonical(delta, blueprint, "after the counted eviction");
}

TEST(DeltaEquivalence, AdmissionRejectionRollsBackExactly) {
  // Starve the grid (1 channel, rho high) so an admission fails, then
  // check the rollback left the state canonical and the rejection
  // verdict equals the oracle's.
  auto config = small_config("wustl");
  config.num_channels = 1;
  config.rho_t = 4;
  config.max_flows_per_tenant = 64;
  const auto blueprint = make_blueprint(config);
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);

  flow::flow_set_params params;
  params.num_flows = 1;
  params.period_min_exp = 0;
  params.period_max_exp = 0;

  rng gen(3);
  bool saw_rejection = false;
  for (int op = 0; op < 64 && !saw_rejection; ++op) {
    const auto f =
        flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
    const auto before = delta.sched().placements();
    const auto size_before = delta.size();
    const auto out = delta.admit_flow(f);
    if (!out.admitted) {
      saw_rejection = true;
      // State untouched: same flows, same placements.
      EXPECT_EQ(delta.size(), size_before);
      EXPECT_EQ(delta.sched().placements(), before);
      expect_canonical(delta, blueprint, "after rejection");
      tsch::expect_index_consistent(delta.sched());
    }
  }
  ASSERT_TRUE(saw_rejection)
      << "the starved configuration never rejected an admission";

  // A refused admission that would have doubled the hyperperiod must
  // also restore each flow's stored rho history: a double-period flow
  // whose deadline leaves no slack is refused after every flow resumed
  // over the new block, then a loose one grows the grid, and every flow
  // resumes from the history the refusal left behind.
  params.period_min_exp = 1;
  params.period_max_exp = 1;
  const slot_t slots = delta.sched().num_slots();
  auto tight =
      flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
  tight.deadline = static_cast<slot_t>(tight.route.size()) *
                   (1 + blueprint.sched_config.retries_per_link);
  EXPECT_FALSE(delta.admit_flow(tight).admitted);
  expect_canonical(delta, blueprint, "refused growth");
  EXPECT_EQ(delta.sched().num_slots(), slots);
  ASSERT_TRUE(delta
                  .admit_flow(flow::generate_flow_set(blueprint.comm, params,
                                                      gen)
                                  .flows.front())
                  .admitted);
  EXPECT_GT(delta.sched().num_slots(), slots);
  expect_canonical(delta, blueprint, "growth after a refused one");
}

TEST(DeltaEquivalence, EvictToEmptyAndReadmit) {
  const auto config = small_config("indriya");
  const auto blueprint = make_blueprint(config);
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);

  flow::flow_set_params params;
  params.num_flows = 1;
  rng gen(5);
  for (int i = 0; i < 3; ++i) {
    const auto f =
        flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
    ASSERT_TRUE(delta.admit_flow(f).admitted);
  }
  // Evicting an unknown id is a no-op with evicted == false.
  EXPECT_FALSE(delta.evict_flow(99).evicted);
  EXPECT_EQ(delta.size(), 3u);

  while (!delta.empty()) {
    ASSERT_TRUE(delta.evict_flow(0).evicted);
    expect_canonical(delta, blueprint, "drain");
  }
  EXPECT_TRUE(delta.schedulable());
  EXPECT_EQ(delta.sched().num_transmissions(), 0u);

  const auto f =
      flow::generate_flow_set(blueprint.comm, params, gen).flows.front();
  const auto out = delta.admit_flow(f);
  EXPECT_TRUE(out.admitted);
  EXPECT_EQ(out.id, 0);
  expect_canonical(delta, blueprint, "readmit after drain");
}

TEST(DeltaMetrics, AdmitOnlyTraceFlushesTheOracleTotals) {
  if (!obs::k_compiled_in) GTEST_SKIP() << "observability compiled out";
  // One period, so the hyperperiod never changes and every admission is
  // a plain resumption: the delta path does exactly the oracle's work.
  fleet_config config = small_config("indriya");
  config.num_channels = 3;
  const auto blueprint = make_blueprint(config);
  flow::flow_set_params params;
  params.num_flows = 1;
  params.type = flow::traffic_type::peer_to_peer;
  params.period_min_exp = 0;
  params.period_max_exp = 0;

  struct obs_session {
    obs_session() {
      obs::reset_metrics();
      obs::set_enabled(true);
    }
    ~obs_session() {
      obs::set_enabled(false);
      obs::reset_metrics();
    }
  } session;
  core::delta_scheduler delta(blueprint.reuse_hops, blueprint.sched_config);
  rng gen(13);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(delta
                    .admit_flow(flow::generate_flow_set(blueprint.comm,
                                                        params, gen)
                                    .flows.front())
                    .admitted)
        << "admission " << i;
  const auto flushed = obs::take_snapshot();
  obs::reset_metrics();
  const auto oracle = core::schedule_flows(
      delta.flows(), blueprint.reuse_hops, delta.config());
  const auto oracle_snap = obs::take_snapshot();
  ASSERT_TRUE(oracle.schedulable);

  const auto counter = [&flushed](const char* name) {
    const auto it = flushed.counters.find(name);
    return it == flushed.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_GT(oracle.stats.laxity_evaluations, 0u);
  EXPECT_EQ(counter("core.sched.total_transmissions"),
            oracle.stats.total_transmissions);
  EXPECT_EQ(counter("core.sched.find_slot_calls"),
            oracle.stats.find_slot_calls);
  EXPECT_EQ(counter("core.sched.laxity_evaluations"),
            oracle.stats.laxity_evaluations);
  EXPECT_EQ(counter("core.probes.cells_probed"),
            oracle.stats.probes.cells_probed);
  // RC's relaxation rounds reach the registry through the same flush:
  // one find_slot call per round.
  EXPECT_EQ(counter("core.sched.relaxation_rounds"),
            oracle.stats.relaxation_rounds);
  EXPECT_EQ(oracle.stats.relaxation_rounds, oracle.stats.find_slot_calls);
  EXPECT_EQ(oracle_snap.counters.at("core.sched.relaxation_rounds"),
            oracle.stats.relaxation_rounds);
  // One final-rho observation per flow, as schedule_flows records.
  EXPECT_EQ(flushed.histograms.at("core.sched.final_rho").counts,
            oracle_snap.histograms.at("core.sched.final_rho").counts);
  EXPECT_EQ(flushed.histograms.at("core.sched.final_rho").total(),
            delta.size());
}

// --------------------------------------------------- fleet determinism --

TEST(FleetDeterminism, RunChurnIsBitIdenticalAcrossJobCounts) {
  for (const std::string testbed : {"indriya", "wustl"}) {
    const fleet_manager fleet(small_config(testbed));
    const auto serial = fleet.run_churn(1);
    const auto two = fleet.run_churn(2);
    const auto eight = fleet.run_churn(8);
    EXPECT_TRUE(serial == two) << testbed << ": jobs 1 vs 2 diverged";
    EXPECT_TRUE(serial == eight) << testbed << ": jobs 1 vs 8 diverged";
    EXPECT_EQ(serial.tenants, 12);
    EXPECT_EQ(serial.totals.ops, 12 * 16);
    EXPECT_GT(serial.totals.admissions, 0) << testbed;
    EXPECT_GT(serial.totals.evictions, 0) << testbed;
    // Every admission attempt was timed, on every worker count.
    EXPECT_EQ(serial.admit_latency_ns.size(),
              static_cast<std::size_t>(serial.totals.admissions +
                                       serial.totals.rejections));
    EXPECT_EQ(eight.admit_latency_ns.size(), serial.admit_latency_ns.size());
  }
}

TEST(FleetDeterminism, ReplayTenantReproducesItsSliceOfTheFleet) {
  const fleet_manager fleet(small_config("indriya"));
  const auto full = fleet.run_churn(4);

  // Replaying every tenant in isolation and re-merging must rebuild the
  // fleet's deterministic result exactly: same op totals, same summed
  // state digest.
  tenant_stats merged;
  std::uint64_t digest = 0;
  std::int64_t schedulable = 0;
  std::int64_t final_flows = 0;
  const auto n = static_cast<std::uint64_t>(fleet.config().tenants);
  for (std::uint64_t id = 0; id < n; ++id) {
    tenant_stats stats;
    const auto t = fleet.replay_tenant(id, &stats);
    merged += stats;
    digest += tenant_state_digest(id, t.delta());
    schedulable += t.delta().schedulable() ? 1 : 0;
    final_flows += static_cast<std::int64_t>(t.delta().size());
  }
  EXPECT_EQ(merged, full.totals);
  EXPECT_EQ(digest, full.state_digest);
  EXPECT_EQ(schedulable, full.schedulable_tenants);
  EXPECT_EQ(final_flows, full.final_flows);

  EXPECT_THROW(fleet.replay_tenant(n), std::invalid_argument);
}

TEST(FleetDeterminism, SeedChangesTheFleetFingerprint) {
  auto config = small_config("wustl");
  const fleet_manager a(config);
  config.seed = config.seed + 1;
  const fleet_manager b(config);
  EXPECT_NE(a.run_churn(2).state_digest, b.run_churn(2).state_digest);
}

TEST(FleetConfig, RejectsInvalidConfigs) {
  auto bad = small_config("indriya");
  bad.tenants = 0;
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
  bad = small_config("nowhere");
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
  bad = small_config("wustl");
  bad.admit_bias = 1.5;
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
  bad = small_config("wustl");
  bad.max_flows_per_tenant = 0;
  EXPECT_THROW(fleet_manager{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace wsan::fleet
