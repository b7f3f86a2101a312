// Mechanics gate for the simulator's fast engine (DESIGN.md §10). The
// fast engine draws fades, drift, interferer activity and probes
// through other transforms and streams than the naive reference, so
// the two agree only statistically in general (fade_equivalence_test).
// With drift, fading, interferers and probes off, though, both engines
// consume the same main-stream Bernoulli draws in the same order, and
// every output must then match bitwise: the whole sim_result on
// contention-free schedules, and on schedules that share cells every
// field but the expected-loss ground truth, whose SINR arithmetic runs
// through polynomial kernels instead of libm and must agree to 1e-12
// relative. This pins hopping, retries, progress, fault handling,
// attempt accounting, energy and the flush order on real testbed
// workloads (WUSTL topology, generated flow sets, RC/RA/NR schedules,
// and the coexistence study's two networks merged into one), across
// seeds and fault plans.
//
// This file also spot-checks the "allocation-free in steady state" claim
// with a counting global allocator: the fast engine's marginal
// allocations per additional run must be near zero, while the naive
// engine allocates per slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "alloc_count.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/network_view.h"
#include "obs/metrics.h"
#include "sim/coexistence.h"
#include "sim/simulator.h"
#include "topo/merge.h"
#include "topo/testbeds.h"

namespace wsan {
namespace {

struct world {
  topo::topology topology;
  std::vector<channel_t> channels;
  tsch::schedule sched;
  std::vector<flow::flow> flows;
};

world make_world(core::algorithm algo, int num_channels,
                 const flow::flow_set_params& params) {
  auto view = graph::make_network_view(topo::make_wustl(),
                                       phy::channels(num_channels));
  rng gen(977);
  auto set = flow::generate_flow_set(view.comm, params, gen);
  const auto result = core::schedule_flows(
      set.flows, view.reuse_hops, core::make_config(algo, num_channels));
  if (!result.schedulable)
    throw std::runtime_error("equivalence workload must be schedulable");
  return {std::move(view.topology), std::move(view.channels), result.sched,
          set.flows};
}

/// One scheduled WUSTL workload per (algorithm, flow count), cached: the
/// expensive part of every parameterized case is identical.
const world& shared_world(core::algorithm algo, int flows) {
  static std::map<std::pair<int, int>, world> cache;
  const auto key = std::make_pair(static_cast<int>(algo), flows);
  auto it = cache.find(key);
  if (it == cache.end()) {
    flow::flow_set_params params;
    params.num_flows = flows;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = 1;
    params.period_max_exp = 3;
    it = cache.emplace(key, make_world(algo, 4, params)).first;
  }
  return it->second;
}

/// An RC schedule that shares cells. RC reuses a channel only when the
/// workload is infeasible without reuse, which the shared worlds never
/// are; 60 flows with periods 2^0..2^2 on two channels (the shape of
/// the simthroughput experiment's wustl-60-reuse point) are.
const world& rc_reuse_world() {
  static const world w = [] {
    flow::flow_set_params params;
    params.num_flows = 60;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = 0;
    params.period_max_exp = 2;
    return make_world(core::algorithm::rc, 2, params);
  }();
  return w;
}

/// RA over three channels: the hyperperiod is not a multiple of the
/// channel count.
const world& ra_three_channel_world() {
  static const world w = [] {
    flow::flow_set_params params;
    params.num_flows = 20;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = 1;
    params.period_max_exp = 3;
    return make_world(core::algorithm::ra, 3, params);
  }();
  return w;
}

/// The RA world plus a one-link flow, in a free cell, from the sender
/// of a shared cell's second entry to the receiver of its first: that
/// cross pair is then also a schedule link, so its drift is the small
/// maintained one.
const world& ra_cross_link_world() {
  static const world w = [] {
    world x = shared_world(core::algorithm::ra, 20);
    const slot_t hp = x.sched.num_slots();
    std::vector<tsch::transmission> shared;
    std::pair<slot_t, offset_t> free_cell{-1, -1};
    for (slot_t s = 0; s < hp; ++s) {
      for (offset_t c = 0; c < x.sched.num_offsets(); ++c) {
        const auto cell = x.sched.cell(s, c);
        if (cell.size() >= 2 && shared.empty())
          shared.assign(cell.begin(), cell.end());
        if (cell.empty() && free_cell.first < 0) free_cell = {s, c};
      }
    }
    if (shared.empty() || free_cell.first < 0)
      throw std::runtime_error("RA world needs a shared and a free cell");
    flow::flow f;
    f.id = static_cast<flow_id>(x.flows.size());
    f.source = shared[1].sender;
    f.destination = shared[0].receiver;
    f.period = hp;
    f.deadline = hp;
    f.route = {flow::link{f.source, f.destination}};
    f.uplink_links = 1;
    tsch::transmission tx;
    tx.flow = f.id;
    tx.instance = 0;
    tx.link_index = 0;
    tx.attempt = 0;
    tx.sender = f.source;
    tx.receiver = f.destination;
    x.sched.add(tx, free_cell.first, free_cell.second);
    x.flows.push_back(f);
    return x;
  }();
  return w;
}

/// The coexistence study's 0 m world at its default arguments: two
/// 25-flow RC networks at 1 s periods on four channels (WUSTL seeds 1
/// and 2, workloads of seed 931) merged at zero separation, so cells
/// shared across the networks run the capture path on cross-network
/// node pairs.
const world& coexistence_world() {
  static const world w = [] {
    const auto ta = topo::make_wustl(1);
    const auto tb = topo::make_wustl(2);
    const auto build = [](const topo::topology& t, std::uint64_t net) {
      const auto view = graph::make_network_view(t, phy::channels(4));
      flow::flow_set_params params;
      params.num_flows = 25;
      params.period_min_exp = 0;
      params.period_max_exp = 0;
      rng gen(derive_seed(931, net, 0));
      auto set = flow::generate_flow_set(view.comm, params, gen);
      auto result = core::schedule_flows(
          set.flows, view.reuse_hops,
          core::make_config(core::algorithm::rc, 4));
      if (!result.schedulable)
        throw std::runtime_error("coexistence workload must be schedulable");
      return std::make_pair(std::move(set.flows), std::move(result.sched));
    };
    const auto [flows_a, sched_a] = build(ta, 0);
    const auto [flows_b, sched_b] = build(tb, 1);
    auto merged = topo::merge_topologies(ta, tb, 0.0, 9);
    auto net = sim::merge_networks({sched_a, flows_a}, {sched_b, flows_b},
                                   merged.node_offset);
    return world{std::move(merged.merged), phy::channels(4),
                 std::move(net.sched), std::move(net.flows)};
  }();
  return w;
}

sim::fault_plan crash_and_suppress_plan(const world& w) {
  sim::fault_plan plan;
  // Crash a relay mid-experiment, fail one direction of a scheduled
  // link, suppress another sender's reports, and jam two busy slots —
  // all four fault kinds exercise distinct branches of the hot loop.
  const auto& placements = w.sched.placements();
  const auto& first = placements.front().tx;
  const auto& last = placements.back().tx;
  plan.crashes.push_back({first.sender, 5, 9});
  plan.link_failures.push_back({last.sender, last.receiver, 3, -1});
  plan.suppressions.push_back({first.receiver, 7, 11});
  plan.jams.push_back({placements.front().slot, 2, 8});
  plan.jams.push_back({placements.back().slot, 0, -1});
  return plan;
}

sim::sim_config base_config(std::uint64_t seed, int runs) {
  sim::sim_config config;
  config.runs = runs;
  config.seed = seed;
  // Defaults exercise every derived table: calibration drift,
  // maintained drift, intermittent pairs, and temporal fading are all
  // non-zero.
  return config;
}

/// The configuration on which both engines draw the same sample path:
/// no derived randomness at all.
sim::sim_config mechanics_config(std::uint64_t seed, int runs) {
  auto config = base_config(seed, runs);
  config.calibration_drift_sigma_db = 0.0;
  config.maintained_drift_sigma_db = 0.0;
  config.intermittent_fraction = 0.0;
  config.temporal_fading_sigma_db = 0.0;
  config.probes_per_run = 0;
  return config;
}

bool shares_a_cell(const tsch::schedule& sched) {
  for (slot_t s = 0; s < sched.num_slots(); ++s)
    for (offset_t c = 0; c < sched.num_offsets(); ++c)
      if (sched.cell(s, c).size() >= 2) return true;
  return false;
}

void expect_close(double fast, double naive, const std::string& what) {
  EXPECT_LE(std::abs(fast - naive),
            1e-12 * std::max(std::abs(fast), std::abs(naive)))
      << what << ": fast " << fast << " vs naive " << naive;
}

// Parameters: (seed, use_faults, algorithm).
class SimEquivalence
    : public ::testing::TestWithParam<
          std::tuple<int, bool, core::algorithm>> {};

void expect_mechanics_match(const world& w, sim::sim_config config) {
  config.use_fast_path = true;
  const auto fast =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
  config.use_fast_path = false;
  const auto naive =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);

  // Field-by-field first, for diagnosable failures.
  ASSERT_EQ(fast.flow_pdr, naive.flow_pdr);
  ASSERT_EQ(fast.instances_released, naive.instances_released);
  ASSERT_EQ(fast.instances_delivered, naive.instances_delivered);
  ASSERT_EQ(fast.energy.per_node_mj, naive.energy.per_node_mj);
  ASSERT_EQ(fast.energy.data_transmissions, naive.energy.data_transmissions);
  ASSERT_EQ(fast.energy.idle_listens, naive.energy.idle_listens);
  ASSERT_EQ(fast.energy.total_mj, naive.energy.total_mj);
  ASSERT_EQ(fast.links.size(), naive.links.size());
  for (const auto& [key, obs] : naive.links) {
    const auto fit = fast.links.find(key);
    ASSERT_NE(fit, fast.links.end())
        << "link " << key.sender << "->" << key.receiver
        << " missing from fast result";
    const auto& f = fit->second;
    const std::string where = "link " + std::to_string(key.sender) + "->" +
                              std::to_string(key.receiver);
    EXPECT_EQ(f.reuse_samples, obs.reuse_samples) << where;
    EXPECT_EQ(f.cf_samples, obs.cf_samples) << where;
    EXPECT_EQ(f.reuse_attempts, obs.reuse_attempts) << where;
    EXPECT_EQ(f.reuse_successes, obs.reuse_successes) << where;
    EXPECT_EQ(f.cf_attempts, obs.cf_attempts) << where;
    EXPECT_EQ(f.cf_successes, obs.cf_successes) << where;
    expect_close(f.expected_loss_internal, obs.expected_loss_internal,
                 where + " expected_loss_internal");
    expect_close(f.expected_loss_external, obs.expected_loss_external,
                 where + " expected_loss_external");
  }
  // Without shared cells no capture arithmetic runs, so the whole
  // result must be equal.
  if (!shares_a_cell(w.sched)) {
    EXPECT_TRUE(fast == naive);
  }
}

TEST_P(SimEquivalence, MechanicsMatchBitwise) {
  const auto [seed, use_faults, algo] = GetParam();
  const auto& w = shared_world(algo, 20);
  auto config = mechanics_config(static_cast<std::uint64_t>(seed), 12);
  if (use_faults) config.faults = crash_and_suppress_plan(w);
  expect_mechanics_match(w, config);
}

INSTANTIATE_TEST_SUITE_P(
    Mechanics, SimEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 908), ::testing::Bool(),
                       ::testing::Values(core::algorithm::rc,
                                         core::algorithm::ra,
                                         core::algorithm::nr)),
    [](const ::testing::TestParamInfo<
        std::tuple<int, bool, core::algorithm>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_faults_" : "_nofaults_") +
             core::to_string(std::get<2>(info.param));
    });

TEST(SimEquivalence, MechanicsMatchWhenCellsChangeChannelPosition) {
  // A power-of-two hyperperiod over three channels moves every cell to
  // another channel position from one run to the next, so a shared
  // cell's cross coordinates span several positions.
  const auto& w = ra_three_channel_world();
  ASSERT_TRUE(shares_a_cell(w.sched));
  ASSERT_NE(w.sched.num_slots() % 3, 0);
  expect_mechanics_match(w, mechanics_config(5, 12));
}

TEST(SimEquivalence, MechanicsMatchOnTheMergedCoexistenceWorld) {
  // sim::run_coexistence's whole model: two networks in one schedule,
  // with drift, fading, probes and interferers off.
  const auto& w = coexistence_world();
  ASSERT_TRUE(shares_a_cell(w.sched));
  for (const std::uint64_t seed : {1, 931})
    expect_mechanics_match(w, mechanics_config(seed, 12));
}

TEST(SimEquivalence, MechanicsGridCoversSharedCells) {
  // The expected-loss comparison above must not be vacuous: RA on this
  // workload shares cells, and NR never does.
  EXPECT_TRUE(shares_a_cell(shared_world(core::algorithm::ra, 20).sched));
  EXPECT_FALSE(shares_a_cell(shared_world(core::algorithm::nr, 20).sched));
}

// ------------------------------------------------- fast-engine pin --
// The gates above turn every derived draw off (mechanics) or compare
// distributions (K-S), so neither notices a fast-engine change that
// moves sim_result while keeping it statistically sound. This pin
// digests the whole result of a run with drift, fading, interferers
// and probes all on, against constants cut from the engine as it
// stands: any intended change to the fast engine's sample path must
// re-cut them and say why.

class fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(long long v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::vector<std::pair<int, double>>& samples) {
    add(static_cast<std::uint64_t>(samples.size()));
    for (const auto& [run, prr] : samples) {
      add(run);
      add(prr);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a over every field of `result`, doubles by their bit patterns.
std::uint64_t digest(const sim::sim_result& result) {
  fnv1a h;
  h.add(static_cast<std::uint64_t>(result.flow_pdr.size()));
  for (double pdr : result.flow_pdr) h.add(pdr);
  h.add(static_cast<std::uint64_t>(result.links.size()));
  for (const auto& [key, obs] : result.links) {
    h.add(key.sender);
    h.add(key.receiver);
    h.add(obs.reuse_samples);
    h.add(obs.cf_samples);
    h.add(obs.reuse_attempts);
    h.add(obs.reuse_successes);
    h.add(obs.cf_attempts);
    h.add(obs.cf_successes);
    h.add(obs.expected_loss_internal);
    h.add(obs.expected_loss_external);
  }
  h.add(result.instances_released);
  h.add(result.instances_delivered);
  h.add(static_cast<std::uint64_t>(result.energy.per_node_mj.size()));
  for (double mj : result.energy.per_node_mj) h.add(mj);
  h.add(result.energy.data_transmissions);
  h.add(result.energy.idle_listens);
  h.add(result.energy.total_mj);
  return h.value();
}

/// Every derived draw on: the default drift and fading, one WiFi
/// interferer per floor (so probes take the interfered path), probes.
sim::sim_config everything_on_config(const world& w) {
  auto config = base_config(31, 24);
  config.interferers = sim::one_interferer_per_floor(w.topology, 0.5);
  return config;
}

TEST(Simulator, FastEngineResultIsPinned) {
  const struct {
    const char* name;
    const world& w;
    std::uint64_t digest;
  } cases[] = {
      {"RC", rc_reuse_world(), 0x3caab770c61c03ecULL},
      {"RA", shared_world(core::algorithm::ra, 20), 0x3e562e47e425803eULL},
      {"RA over 3 channels", ra_three_channel_world(), 0x38f00ed62f434fe5ULL},
      {"RA with a cross pair that is a link", ra_cross_link_world(),
       0x81d81506c77f0317ULL},
  };
  for (const auto& c : cases) {
    ASSERT_TRUE(shares_a_cell(c.w.sched)) << c.name;
    const auto result =
        sim::run_simulation(c.w.topology, c.w.sched, c.w.flows, c.w.channels,
                            everything_on_config(c.w));
    EXPECT_EQ(digest(result), c.digest)
        << c.name << " digest 0x" << std::hex << digest(result);
  }
}

/// Coordinates the fast engine interns for `w` over `runs` runs: each
/// schedule link at every channel position, and each cross pair (a
/// sender and the receiver of another entry in its cell) at the
/// positions its cell reaches, shifted by (run * hp) mod |channels|
/// from run to run.
std::size_t interned_coordinates(const world& w, int runs) {
  const int ncl = static_cast<int>(w.channels.size());
  const slot_t hp = w.sched.num_slots();
  std::set<int> shifts;
  for (int run = 0; run < runs; ++run)
    shifts.insert(static_cast<int>((static_cast<long long>(run) * hp) % ncl));
  std::set<std::pair<node_id, node_id>> links;
  std::set<std::tuple<node_id, node_id, int>> cross;
  for (slot_t s = 0; s < hp; ++s) {
    for (offset_t c = 0; c < w.sched.num_offsets(); ++c) {
      const auto view = w.sched.cell(s, c);
      const std::vector<tsch::transmission> cell(view.begin(), view.end());
      for (std::size_t i = 0; i < cell.size(); ++i) {
        links.insert({cell[i].sender, cell[i].receiver});
        for (std::size_t j = 0; j < cell.size(); ++j) {
          if (j == i) continue;
          for (int shift : shifts)
            cross.insert({cell[j].sender, cell[i].receiver,
                          static_cast<int>((s + c + shift) % ncl)});
        }
      }
    }
  }
  return links.size() * w.channels.size() + cross.size();
}

TEST(Simulator, FadeKernelsCountInternedCoordinates) {
  if (!obs::k_compiled_in)
    GTEST_SKIP() << "observability compiled out (WSAN_OBS=OFF)";
  // The fast engine refills every interned coordinate once per run. On
  // two channels each cell keeps its channel position; on three, cells
  // move between positions from run to run.
  for (const world* w : {&rc_reuse_world(), &ra_three_channel_world()}) {
    const auto config = everything_on_config(*w);
    obs::reset_metrics();
    obs::set_enabled(true);
    sim::run_simulation(w->topology, w->sched, w->flows, w->channels,
                        config);
    const auto snap = obs::take_snapshot();
    obs::set_enabled(false);
    obs::reset_metrics();
    EXPECT_EQ(snap.counters.at("sim.fade_kernels"),
              static_cast<std::uint64_t>(config.runs) *
                  interned_coordinates(*w, config.runs))
        << w->channels.size() << " channels";
    EXPECT_EQ(snap.counters.count("sim.rssi_cache_hits"), 0u);
  }
}

// ------------------------------------------------ allocation behavior --

std::uint64_t allocations_during(const world& w,
                                 const sim::sim_config& config) {
  const auto before = test::g_allocations.load(std::memory_order_relaxed);
  const auto result =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
  const auto after = test::g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(result.instances_released, 0);
  return after - before;
}

TEST(SimAllocations, FastEngineSlotLoopIsAllocationFree) {
  const auto& w = shared_world(core::algorithm::rc, 20);

  // Marginal allocations of extra runs: the naive engine allocates per
  // slot (scratch vectors, map nodes, derived-RNG lambdas returning
  // vectors), so doubling the runs roughly doubles its allocations. The
  // fast engine's slot loop reuses its buffers — the only per-run
  // allocations are the amortized growth of the per-run sample streams,
  // orders of magnitude below one per slot.
  auto short_config = base_config(7, 10);
  auto long_config = base_config(7, 30);

  short_config.use_fast_path = true;
  long_config.use_fast_path = true;
  const auto fast_short = allocations_during(w, short_config);
  const auto fast_long = allocations_during(w, long_config);
  const auto fast_marginal = fast_long - fast_short;

  short_config.use_fast_path = false;
  long_config.use_fast_path = false;
  const auto naive_short = allocations_during(w, short_config);
  const auto naive_long = allocations_during(w, long_config);
  const auto naive_marginal = naive_long - naive_short;

  // Naive: several allocations per occupied slot across 20 extra runs.
  EXPECT_GT(naive_marginal, 1000u);
  // Fast: the 20 extra runs cost only the amortized growth of the
  // per-run sample streams — a handful of allocations per run, zero per
  // slot, and a small fraction of the naive engine's appetite.
  EXPECT_LT(fast_marginal, 20u * 10u);
  EXPECT_LT(fast_marginal * 20, naive_marginal);
}

}  // namespace
}  // namespace wsan
