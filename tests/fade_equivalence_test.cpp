// Statistical-equivalence contract of the simulator's fast engine
// (DESIGN.md §10) and the numeric contracts backing it.
//
// The fast engine draws the naive engine's distributions through
// different transforms (counter-based batch kernels instead of xoshiro
// + libm) and moves interferer activity and probe draws onto derived
// per-run streams, so outside the mechanics that sim_equivalence_test
// pins bitwise its correctness evidence lives here, in three layers:
//
//  1. End-to-end: on a real scheduled WUSTL workload, the per-link PRR
//     sample streams of naive and fast runs pass the K-S equivalence
//     gate across seeds, with and without interferers, and the gate
//     demonstrably has power (a genuinely different fading sigma is
//     rejected).
//  2. Kernel accuracy: the polynomial log/cos/exp cores and the fused
//     Box-Muller agree with their libm compositions to well under the
//     gate's resolution, the sigmoid snaps exactly where
//     phy::clamped_sigmoid does, and the bulk array forms equal the
//     scalar definitions bit for bit (the build turns FMA contraction
//     off, so no target_clones version can round differently).
//  3. Determinism: a (config, seed) pair reproduces the exact same
//     sim_result.
//
// Also hosts the compute_drift_db corner tests: maintained-vs-
// intermittent sigma selection, channel independence of the
// intermittence draw, the exact-zero early-out, and argument-order
// symmetry.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/batch_rng.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "detect/equivalence.h"
#include "flow/flow_generator.h"
#include "graph/comm_graph.h"
#include "graph/reuse_graph.h"
#include "phy/sigmoid.h"
#include "sim/interference.h"
#include "sim/simulator.h"
#include "topo/testbeds.h"

namespace wsan {
namespace {

// ------------------------------------------------------ shared world --

struct world {
  topo::topology topology;
  std::vector<channel_t> channels;
  tsch::schedule sched;
  std::vector<flow::flow> flows;
};

/// One scheduled WUSTL workload, cached: scheduling is the expensive
/// part of every gate case and is identical across them.
const world& shared_world() {
  static const world w = [] {
    world built;
    built.topology = topo::make_wustl();
    built.channels = phy::channels(4);
    const auto comm =
        graph::build_communication_graph(built.topology, built.channels);
    const auto reuse_hops = graph::hop_matrix(
        graph::build_channel_reuse_graph(built.topology, built.channels));
    flow::flow_set_params params;
    params.num_flows = 20;
    params.type = flow::traffic_type::peer_to_peer;
    params.period_min_exp = 1;
    params.period_max_exp = 3;
    rng gen(977);
    auto set = flow::generate_flow_set(comm, params, gen);
    const auto result = core::schedule_flows(
        set.flows, reuse_hops, core::make_config(core::algorithm::rc, 4));
    if (!result.schedulable)
      throw std::runtime_error("gate workload must be schedulable");
    built.sched = result.sched;
    built.flows = set.flows;
    return built;
  }();
  return w;
}

sim::sim_result run_world(const sim::sim_config& config) {
  const auto& w = shared_world();
  return sim::run_simulation(w.topology, w.sched, w.flows, w.channels,
                             config);
}

/// Fading + probes on (the fast engine's hot configuration); drift
/// defaults stay on so the batched drift kernel is exercised too.
sim::sim_config gate_config(std::uint64_t seed, bool fast) {
  sim::sim_config config;
  config.runs = 12;
  config.seed = seed;
  config.use_fast_path = fast;
  return config;
}

std::vector<sim::sim_result> runs_for_seeds(
    const std::vector<std::uint64_t>& seeds, bool fast,
    double fading_sigma_db, bool with_interferers) {
  std::vector<sim::sim_result> out;
  out.reserve(seeds.size());
  for (const auto seed : seeds) {
    auto config = gate_config(seed, fast);
    config.temporal_fading_sigma_db = fading_sigma_db;
    if (with_interferers) {
      config.interferers =
          sim::one_interferer_per_floor(shared_world().topology);
      config.interferer_start_run = 4;
    }
    out.push_back(run_world(config));
  }
  return out;
}

const std::vector<std::uint64_t> k_gate_seeds = {101, 102, 103,
                                                 104, 105, 106};

// ----------------------------------------------------- K-S gate tests --

TEST(FadeEquivalence, BatchedMatchesOracleUnderKsGate) {
  const auto naive = runs_for_seeds(k_gate_seeds, false, 2.0, false);
  const auto fast = runs_for_seeds(k_gate_seeds, true, 2.0, false);
  const auto gate = detect::compare_prr_streams(naive, fast);
  EXPECT_TRUE(gate.passed) << gate.summary();
  // The workload must actually power the gate: a pass over zero tested
  // groups would be vacuous.
  EXPECT_GE(gate.tested_groups, 8u);
}

TEST(FadeEquivalence, BatchedMatchesOracleWithInterferers) {
  // Interferer activity comes from the main RNG stream in the naive
  // engine and from a derived per-run stream in the fast one — the
  // duty-cycle process must still be statistically indistinguishable
  // end-to-end.
  const auto naive = runs_for_seeds(k_gate_seeds, false, 2.0, true);
  const auto fast = runs_for_seeds(k_gate_seeds, true, 2.0, true);
  const auto gate = detect::compare_prr_streams(naive, fast);
  EXPECT_TRUE(gate.passed) << gate.summary();
  EXPECT_GE(gate.tested_groups, 8u);
}

TEST(FadeEquivalence, GateRejectsDifferentFadingSigma) {
  // Power check: if the candidate draws from a genuinely different
  // fading distribution, the gate must say so — otherwise a green gate
  // would be meaningless.
  const auto naive = runs_for_seeds(k_gate_seeds, false, 2.0, false);
  const auto shifted = runs_for_seeds(k_gate_seeds, true, 5.0, false);
  const auto gate = detect::compare_prr_streams(naive, shifted);
  EXPECT_FALSE(gate.passed) << gate.summary();
}

TEST(FadeEquivalence, BatchedTierIsDeterministic) {
  // Statistical equivalence does not mean nondeterminism: the same
  // (config, seed) must reproduce the exact same sim_result, through
  // both derived streams (probe draws, then interferer rows).
  auto config = gate_config(314, true);
  config.probes_per_run = 3;
  EXPECT_TRUE(run_world(config) == run_world(config));
  config.interferers =
      sim::one_interferer_per_floor(shared_world().topology);
  EXPECT_TRUE(run_world(config) == run_world(config));
}

// ------------------------------------------------ kernel accuracy ------

/// Deterministic test points: the splitmix64 chain rooted at `seed`.
std::vector<std::uint64_t> chain(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  std::uint64_t state = seed;
  for (auto& v : out) v = splitmix64(state);
  return out;
}

TEST(BatchKernels, LogMatchesLibm) {
  for (const auto z : chain(7, 20000)) {
    const double u = u64_to_unit_double(z) + 0x1.0p-53;  // (0, 1]
    const double ref = std::log(u);
    const double got = batch_detail::poly_log(u);
    EXPECT_LE(std::abs(got - ref), 1e-12 * std::abs(ref) + 1e-15)
        << "u = " << u;
  }
}

TEST(BatchKernels, Cos2PiMatchesLibm) {
  for (const auto z : chain(11, 20000)) {
    const double u = u64_to_unit_double(z);
    const double ref = std::cos(batch_detail::k_two_pi * u);
    const double got = batch_detail::poly_cos2pi(u);
    EXPECT_LE(std::abs(got - ref), 1e-13) << "u = " << u;
  }
}

TEST(BatchKernels, SigmoidMatchesLibm) {
  // The reference is the PHY layer's clamped sigmoid, rails included:
  // beyond +-8 both return exactly 1 or 0.
  for (const auto z : chain(13, 20000)) {
    // Spread over [-10, 10] so both rails are exercised.
    const double x = 20.0 * u64_to_unit_double(z) - 10.0;
    const double ref = phy::clamped_sigmoid(x);
    const double got = batch_sigmoid(x);
    EXPECT_LE(std::abs(got - ref), 1e-13 * ref) << "x = " << x;
  }
  EXPECT_EQ(batch_sigmoid(8.0 + 0x1.0p-40), 1.0);
  EXPECT_EQ(batch_sigmoid(-8.0 - 0x1.0p-40), 0.0);
  EXPECT_EQ(batch_sigmoid(30.0), 1.0);
  EXPECT_EQ(batch_sigmoid(-30.0), 0.0);
}

TEST(BatchKernels, NormalMatchesLibmComposition) {
  for (const auto seed : chain(17, 20000)) {
    const std::uint64_t z1 =
        splitmix64_finalize(seed + 1 * k_splitmix64_increment);
    const std::uint64_t z2 =
        splitmix64_finalize(seed + 2 * k_splitmix64_increment);
    const double u1 = u64_to_unit_double(z1) + 0x1.0p-53;
    const double u2 = u64_to_unit_double(z2);
    const double ref = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(batch_detail::k_two_pi * u2);
    const double got = batch_normal(seed);
    // Near cosine zeros the value itself is tiny while the Box-Muller
    // radius is not, so bound the error relative to the radius.
    const double radius = std::sqrt(-2.0 * std::log(u1));
    EXPECT_LE(std::abs(got - ref), 1e-11 * (radius + 1.0))
        << "seed = " << seed;
  }
}

TEST(BatchKernels, FadeNormalMatchesComposedChain) {
  // batch_fade_normal is documented as fade-chain tail + batch_normal;
  // scalar-vs-scalar in one translation unit, so exactly equal.
  for (const auto pre : chain(19, 1000)) {
    for (const std::uint64_t ch : {0ull, 3ull, 15ull}) {
      std::uint64_t s = pre + k_splitmix64_increment;
      s ^= splitmix64_finalize(s) + ch;
      const double ref =
          batch_normal(splitmix64_finalize(s + k_splitmix64_increment));
      EXPECT_EQ(ref, batch_fade_normal(pre, ch));
    }
  }
}

TEST(BatchKernels, BulkFormsMatchScalarDefinitions) {
  // Elementwise purity: out[i] must be the scalar function of input i,
  // bit for bit, whichever target_clones version the CPU runs (the
  // build turns FMA contraction off).
  constexpr std::size_t n = 4097;  // off power-of-two: exercises tails
  const auto seeds = chain(23, n);
  std::vector<double> out(n);

  batch_normals(seeds.data(), n, out.data());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(out[i], batch_normal(seeds[i])) << i;

  std::vector<std::uint64_t> ch(n);
  for (std::size_t i = 0; i < n; ++i) ch[i] = i % 16;
  batch_fade_normals(seeds.data(), ch.data(), n, out.data());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(out[i], batch_fade_normal(seeds[i], ch[i])) << i;

  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i)
    xs[i] = 20.0 * u64_to_unit_double(seeds[i]) - 10.0;
  batch_sigmoids(xs.data(), n, out.data());
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(out[i], batch_sigmoid(xs[i])) << i;
}

TEST(BatchKernels, UniformStreamMatchesSequentialSplitmix) {
  // batch_uniform01s is documented as identical to draining a
  // sequential splitmix64 chain; integer expansion plus exact
  // power-of-two scaling, so this one IS exact.
  constexpr std::size_t n = 1000;
  std::vector<double> out(n);
  const std::uint64_t seed = 0xfeedULL;
  batch_uniform01s(seed, n, out.data());
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(u64_to_unit_double(splitmix64(state)), out[i]) << i;
}

TEST(BatchKernels, FadeFillMatchesScalarChain) {
  // The fused whole-table fill must produce, per coordinate, exactly
  // the documented composition, bit for bit.
  constexpr std::size_t n = 513;
  const std::uint64_t state = 0xabcdULL, z = 0x1234ULL;
  const double sigma = 2.0, sens = -88.0, scale = 1.9;
  const auto pk = chain(29, n);
  std::vector<std::uint64_t> ch(n);
  std::vector<double> base(n), sig(n), p0(n);
  for (std::size_t i = 0; i < n; ++i) {
    ch[i] = i % 16;
    base[i] = -95.0 + 0.01 * static_cast<double>(i);
  }
  batch_fade_fill(state, z, pk.data(), ch.data(), base.data(), n, sigma,
                  sens, scale, sig.data(), p0.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double ref_sig =
        base[i] + sigma * batch_fade_normal(state ^ (z + pk[i]), ch[i]);
    const double ref_p0 = batch_sigmoid((ref_sig - sens) / scale);
    ASSERT_EQ(sig[i], ref_sig) << i;
    ASSERT_EQ(p0[i], ref_p0) << i;
  }
}

// --------------------------------------------- drift corner tests ------

sim::sim_config drift_config() {
  sim::sim_config config;
  config.seed = 4242;
  return config;
}

TEST(DriftCorners, MaintainedSelectsMaintainedSigma) {
  auto config = drift_config();
  config.maintained_drift_sigma_db = 1.0;
  // The drift is sigma * normal(chan_seed) with a sigma-independent
  // seed, so doubling the maintained sigma must exactly double the
  // maintained drift.
  auto doubled = config;
  doubled.maintained_drift_sigma_db = 2.0;
  // Maintained pairs never consult the unmaintained population's
  // parameters — not even for RNG draw order.
  auto unrelated = config;
  unrelated.calibration_drift_sigma_db = 20.0;
  unrelated.intermittent_fraction = 0.9;
  unrelated.intermittent_sigma_db = 30.0;
  for (node_id a = 0; a < 12; ++a) {
    for (node_id b = a + 1; b < 12; ++b) {
      const double d = sim::compute_drift_db(config, true, a, b, 5);
      EXPECT_EQ(2.0 * d, sim::compute_drift_db(doubled, true, a, b, 5));
      EXPECT_EQ(d, sim::compute_drift_db(unrelated, true, a, b, 5));
    }
  }
}

TEST(DriftCorners, IntermittenceIsChannelIndependent) {
  // Intermittence is a property of the pair, not of one channel: with
  // intermittent_sigma_db = 0 every intermittent pair drifts exactly
  // 0.0 on EVERY channel while every other unmaintained pair drifts
  // nonzero on every channel — all-or-nothing per pair.
  auto config = drift_config();
  config.intermittent_fraction = 0.4;
  config.intermittent_sigma_db = 0.0;
  config.calibration_drift_sigma_db = 6.0;
  int intermittent_pairs = 0, steady_pairs = 0;
  for (node_id a = 0; a < 20; ++a) {
    for (node_id b = a + 1; b < 20; ++b) {
      int zero_channels = 0;
      for (channel_t ch = 0; ch < 16; ++ch) {
        if (sim::compute_drift_db(config, false, a, b, ch) == 0.0)
          ++zero_channels;
      }
      EXPECT_TRUE(zero_channels == 0 || zero_channels == 16)
          << "pair (" << a << ", " << b << ") classified per channel";
      (zero_channels == 16 ? intermittent_pairs : steady_pairs) += 1;
    }
  }
  // With fraction 0.4 over 190 pairs both classes must show up.
  EXPECT_GT(intermittent_pairs, 0);
  EXPECT_GT(steady_pairs, 0);
}

TEST(DriftCorners, ZeroSigmaIsExactZero) {
  auto all_zero = drift_config();
  all_zero.calibration_drift_sigma_db = 0.0;
  all_zero.maintained_drift_sigma_db = 0.0;
  all_zero.intermittent_sigma_db = 0.0;
  // Maintained sigma zero while the unmaintained sigmas stay hot.
  auto maintained_zero = drift_config();
  maintained_zero.maintained_drift_sigma_db = 0.0;
  for (node_id a = 0; a < 10; ++a) {
    for (node_id b = a + 1; b < 10; ++b) {
      for (const bool maintained : {true, false}) {
        const double d =
            sim::compute_drift_db(all_zero, maintained, a, b, 3);
        // Exactly +0.0, bit for bit — the mechanics gate and the
        // fast engine's drift-free path depend on the early-out, not
        // on a tiny value.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(d), 0u);
      }
      const double m =
          sim::compute_drift_db(maintained_zero, true, a, b, 3);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m), 0u);
      EXPECT_NE(sim::compute_drift_db(maintained_zero, false, a, b, 3),
                0.0);
    }
  }
}

TEST(DriftCorners, PairOrderSymmetry) {
  // Drift and fading are properties of the unordered pair: (a, b) and
  // (b, a) must agree bitwise in every mode.
  const auto config = drift_config();
  for (node_id a = 0; a < 15; ++a) {
    for (node_id b = a + 1; b < 15; ++b) {
      for (channel_t ch = 0; ch < 4; ++ch) {
        for (const bool maintained : {true, false}) {
          EXPECT_EQ(sim::compute_drift_db(config, maintained, a, b, ch),
                    sim::compute_drift_db(config, maintained, b, a, ch));
        }
        EXPECT_EQ(sim::compute_fade_db(config, 7, a, b, ch),
                  sim::compute_fade_db(config, 7, b, a, ch));
      }
    }
  }
}

}  // namespace
}  // namespace wsan
