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
// workloads (WUSTL topology, generated flow sets, RC/RA/NR schedules),
// across seeds and fault plans.
//
// This file also spot-checks the "allocation-free in steady state" claim
// with a counting global allocator: the fast engine's marginal
// allocations per additional run must be near zero, while the naive
// engine allocates per slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"

// ------------------------------------------------- counting allocator --
// Program-wide operator new/delete replacement (this test is its own
// binary). Uses malloc/free so ASan/TSan interception still works, and
// relaxed atomics so the counter itself is data-race free.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// The scalar replacements stay out of line. Inlined, GCC 12 sees the
// malloc inside operator new reach operator delete, or operator new's
// pointer reach the free inside operator delete, and raises
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer) must come
// from malloc too: the replaced deletes free every pointer.
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace wsan {
namespace {

struct world {
  topo::topology topology;
  std::vector<channel_t> channels;
  tsch::schedule sched;
  std::vector<flow::flow> flows;
};

/// One scheduled WUSTL workload per (algorithm, flow count), cached: the
/// expensive part of every parameterized case is identical.
const world& shared_world(core::algorithm algo, int flows) {
  static std::map<std::pair<int, int>, world> cache;
  const auto key = std::make_pair(static_cast<int>(algo), flows);
  auto it = cache.find(key);
  if (it == cache.end()) {
    world w;
    w.topology = topo::make_wustl();
    w.channels = phy::channels(4);
    const auto comm =
        graph::build_communication_graph(w.topology, w.channels);
    const auto reuse_hops = graph::hop_matrix(
        graph::build_channel_reuse_graph(w.topology, w.channels));
    flow::flow_set_params params;
    params.num_flows = flows;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = 1;
    params.period_max_exp = 3;
    rng gen(977);
    auto set = flow::generate_flow_set(comm, params, gen);
    const auto result = core::schedule_flows(
        set.flows, reuse_hops, core::make_config(algo, 4));
    if (!result.schedulable)
      throw std::runtime_error("equivalence workload must be schedulable");
    w.sched = result.sched;
    w.flows = set.flows;
    cache.emplace(key, std::move(w));
    it = cache.find(key);
  }
  return it->second;
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

TEST_P(SimEquivalence, MechanicsMatchBitwise) {
  const auto [seed, use_faults, algo] = GetParam();
  const auto& w = shared_world(algo, 20);
  auto config = mechanics_config(static_cast<std::uint64_t>(seed), 12);
  if (use_faults) config.faults = crash_and_suppress_plan(w);

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

TEST(SimEquivalence, MechanicsGridCoversSharedCells) {
  // The expected-loss comparison above must not be vacuous: RA on this
  // workload shares cells, and NR never does.
  EXPECT_TRUE(shares_a_cell(shared_world(core::algorithm::ra, 20).sched));
  EXPECT_FALSE(shares_a_cell(shared_world(core::algorithm::nr, 20).sched));
}

// ------------------------------------------------ allocation behavior --

std::uint64_t allocations_during(const world& w,
                                 const sim::sim_config& config) {
  const auto before = g_allocations.load(std::memory_order_relaxed);
  const auto result =
      sim::run_simulation(w.topology, w.sched, w.flows, w.channels, config);
  const auto after = g_allocations.load(std::memory_order_relaxed);
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
