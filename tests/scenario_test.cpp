// The scenario engine's determinism, replay, randomization, jamming,
// and recovery-hardening contracts (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/json.h"

#include "common/rng.h"
#include "core/scheduler.h"
#include "exp/runner.h"
#include "flow/flow_generator.h"
#include "graph/hop_matrix.h"
#include "scenario/scenario.h"
#include "sim/interference.h"
#include "topo/testbeds.h"
#include "tsch/randomize.h"
#include "tsch/validate.h"

namespace wsan::scenario {
namespace {

/// A churn-heavy configuration exercising every engine phase: arrivals,
/// departures, node crashes/revivals, jamming with randomization.
scenario_config churn_config(std::uint64_t seed = 7) {
  scenario_config config;
  config.epochs = 6;
  config.runs_per_epoch = 6;
  config.seed = seed;
  config.flow_params.num_flows = 8;
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.flow_params.period_min_exp = 0;
  config.flow_params.period_max_exp = 1;
  config.departure_rate = 0.15;
  config.arrivals.rate = 1.5;
  config.arrivals.max_flows = 12;
  config.churn.crash_rate = 0.01;
  config.churn.revival_rate = 0.3;
  config.jammer.enabled = true;
  config.jammer.jam_slots = 3;
  config.jammer.randomize = true;
  config.jammer.swap_attempts = 64;
  config.manager.num_channels = 8;
  config.manager.scheduler = core::make_config(core::algorithm::rc, 8);
  config.manager.watchdog_epochs = 2;
  config.sim.probes_per_run = 1;
  return config;
}

/// A quiet, fully static configuration (no churn, no drift, no external
/// interference) for the jamming acceptance: the only thing that varies
/// across epochs is the SlotSwapper permutation.
scenario_config jamming_config(bool randomize, bool jam) {
  scenario_config config;
  config.epochs = 8;
  config.runs_per_epoch = 6;
  config.seed = 21;
  config.flow_params.num_flows = 6;
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.flow_params.period_min_exp = 1;
  config.flow_params.period_max_exp = 2;
  config.arrivals.rate = 0.0;
  config.departure_rate = 0.0;
  config.churn.crash_rate = 0.0;
  config.jammer.enabled = jam;
  config.jammer.jam_slots = 4;
  config.jammer.randomize = randomize;
  config.jammer.swap_attempts = 256;
  config.manager.num_channels = 8;
  config.manager.scheduler = core::make_config(core::algorithm::rc, 8);
  // A calibrated, static channel: losses come only from the PHY model
  // and the jammer, so the jam-on/jam-off PDR comparison is exact.
  config.sim.calibration_drift_sigma_db = 0.0;
  config.sim.maintained_drift_sigma_db = 0.0;
  config.sim.intermittent_fraction = 0.0;
  config.sim.temporal_fading_sigma_db = 0.0;
  config.sim.probes_per_run = 1;
  return config;
}

TEST(ScenarioEngine, TraceIsDeterministic) {
  const auto topology = topo::make_wustl(2);
  const auto config = churn_config();
  auto a = scenario_engine(topology, config).run();
  auto b = scenario_engine(topology, config).run();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e)
    EXPECT_EQ(a.epochs[e].digest, b.epochs[e].digest) << "epoch " << e;
  EXPECT_EQ(a.final_digest, b.final_digest);
}

TEST(ScenarioEngine, TraceExercisesChurn) {
  const auto topology = topo::make_wustl(2);
  const auto result = scenario_engine(topology, churn_config()).run();
  EXPECT_GT(result.total_arrivals_offered, 0);
  EXPECT_GT(result.total_arrivals_accepted, 0);
  EXPECT_GT(result.total_departures, 0);
  EXPECT_GT(result.total_jam_predictions, 0);
  // Each epoch's record carries the workload it ended with.
  for (const auto& rec : result.epochs)
    EXPECT_LE(rec.num_flows, churn_config().arrivals.max_flows);
}

/// Per-trial digests folded into trial-indexed slots: a commutative
/// merge, so exp::trial_runner's partial folding cannot reorder it.
struct digest_slots {
  std::vector<std::uint64_t> digests;

  digest_slots& operator+=(const digest_slots& other) {
    if (other.digests.size() > digests.size())
      digests.resize(other.digests.size());
    for (std::size_t i = 0; i < other.digests.size(); ++i)
      if (other.digests[i] != 0) digests[i] = other.digests[i];
    return *this;
  }
};

TEST(ScenarioEngine, BitIdenticalAtAnyJobsCount) {
  const auto topology = topo::make_wustl(2);
  constexpr int k_trials = 4;
  const auto run_at = [&](int jobs) {
    exp::trial_runner runner(jobs);
    return runner.run_point<digest_slots>(
        977, 0, k_trials, [&](int trial, rng&, digest_slots& local) {
          auto config = churn_config(
              derive_seed(977, 0, static_cast<std::uint64_t>(trial)));
          const auto result = scenario_engine(topology, config).run();
          if (local.digests.size() < static_cast<std::size_t>(trial + 1))
            local.digests.resize(static_cast<std::size_t>(trial + 1));
          local.digests[static_cast<std::size_t>(trial)] =
              result.final_digest;
        });
  };
  const auto jobs1 = run_at(1);
  const auto jobs2 = run_at(2);
  const auto jobs8 = run_at(8);
  ASSERT_EQ(jobs1.digests.size(), static_cast<std::size_t>(k_trials));
  EXPECT_EQ(jobs1.digests, jobs2.digests);
  EXPECT_EQ(jobs1.digests, jobs8.digests);
}

TEST(ScenarioEngine, ReplayReproducesEveryEpochDigest) {
  const auto topology = topo::make_wustl(2);
  const auto config = churn_config();
  const auto full = scenario_engine(topology, config).run();
  for (int e = 0; e < config.epochs; ++e) {
    const auto rec = scenario_engine::replay(topology, config, e);
    EXPECT_EQ(rec.digest, full.epochs[static_cast<std::size_t>(e)].digest)
        << "epoch " << e;
    EXPECT_EQ(rec.epoch, e);
  }
}

TEST(ScenarioEngine, BackpressureCapsTheWorkload) {
  const auto topology = topo::make_wustl(2);
  auto config = churn_config();
  config.arrivals.rate = 6.0;
  config.arrivals.max_flows = 5;
  config.departure_rate = 0.0;
  scenario_engine engine(topology, config);
  int rejected = 0;
  for (int e = 0; e < config.epochs; ++e) {
    const auto rec = engine.step();
    EXPECT_LE(rec.num_flows, 5);
    rejected += rec.rejected_backpressure;
  }
  EXPECT_GT(rejected, 0);
}

TEST(ScenarioEngine, ReadmissionShedsFromTheBackAndKeepsUidsAligned) {
  // RC on two channels near the 20-flow cap: the links maintain()
  // isolates in epoch 4 leave the workload unschedulable at epoch 5's
  // re-admission, which sheds its lowest-priority flows until it fits.
  // No departures and no crashes, so re-admission is the only way a
  // flow leaves.
  const auto topology = topo::make_wustl(2);
  scenario_config config;
  config.epochs = 8;
  config.runs_per_epoch = 6;
  config.seed = 4;
  config.flow_params.num_flows = 12;
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.flow_params.period_min_exp = 0;
  config.flow_params.period_max_exp = 1;
  config.departure_rate = 0.0;
  config.arrivals.rate = 1.0;
  config.arrivals.max_flows = 20;
  config.churn.crash_rate = 0.0;
  config.manager.num_channels = 2;
  config.manager.scheduler = core::make_config(core::algorithm::rc, 2);
  config.sim.probes_per_run = 1;
  scenario_engine engine(topology, config);

  int shed = 0;
  for (int e = 0; e < config.epochs; ++e) {
    const auto flows_before = engine.flows();
    const auto uids_before = engine.flow_uids();
    const auto rec = engine.step();
    const auto& flows = engine.flows();
    const auto& uids = engine.flow_uids();
    ASSERT_EQ(uids.size(), flows.size()) << "epoch " << e;
    EXPECT_EQ(rec.shed_for_schedulability,
              static_cast<int>(flows_before.size()) +
                  rec.arrivals_accepted - static_cast<int>(flows.size()))
        << "epoch " << e;
    // Arrivals append and shedding pops the back, so the flows kept from
    // before the epoch are its prefix, each under its old uid.
    const std::size_t kept = std::min(flows.size(), flows_before.size());
    for (std::size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(uids[i], uids_before[i]) << "epoch " << e << " flow " << i;
      EXPECT_EQ(flows[i].route, flows_before[i].route)
          << "epoch " << e << " flow " << i;
    }
    shed += rec.shed_for_schedulability;
  }
  EXPECT_GT(shed, 0) << "no epoch shed: the test exercises nothing";
}

TEST(ScenarioEngine, InitialShedIsCountedInEpochZero) {
  // RC on one channel cannot fit 60 generated flows on WUSTL, so the
  // constructor sheds from the back before epoch 0. Epoch 0's record
  // and its series window count those flows; a later epoch counts only
  // what its own re-admission sheds.
  const auto topology = topo::make_wustl(2);
  scenario_config config;
  config.epochs = 2;
  config.seed = 1;
  config.flow_params.num_flows = 60;
  config.flow_params.type = flow::traffic_type::peer_to_peer;
  config.flow_params.period_min_exp = 0;
  config.flow_params.period_max_exp = 0;
  config.departure_rate = 0.0;
  config.arrivals.rate = 0.0;
  config.arrivals.max_flows = 60;
  config.churn.crash_rate = 0.0;
  config.manager.num_channels = 1;
  config.manager.scheduler = core::make_config(core::algorithm::rc, 1);
  config.sim.probes_per_run = 1;
  scenario_engine engine(topology, config);
  const int kept = static_cast<int>(engine.flows().size());
  ASSERT_EQ(engine.flow_uids().size(), engine.flows().size());
  ASSERT_LT(kept, 60) << "the initial population fits: nothing is shed";

  const auto first = engine.step();
  EXPECT_EQ(first.num_flows, kept);
  EXPECT_EQ(first.shed_for_schedulability, 60 - kept);
  EXPECT_DOUBLE_EQ(epoch_window(first).values.at("shed"), 60 - kept);
  const auto second = engine.step();
  EXPECT_EQ(second.shed_for_schedulability, kept - second.num_flows);
}

TEST(SlotSwapper, PreservesValidityOnBothTestbeds) {
  struct testbed_case {
    const char* name;
    topo::topology topology;
  };
  const std::vector<testbed_case> cases = {
      {"indriya", topo::make_indriya(1)},
      {"wustl", topo::make_wustl(2)},
  };
  for (const auto& tc : cases) {
    manager::manager_config mc;
    mc.num_channels = 8;
    mc.scheduler = core::make_config(core::algorithm::rc, 8);
    manager::network_manager mgr(tc.topology, mc);
    flow::flow_set_params fsp;
    fsp.num_flows = 10;
    fsp.type = flow::traffic_type::peer_to_peer;
    fsp.period_min_exp = 0;
    fsp.period_max_exp = 1;
    rng gen(4100);
    const auto fs = mgr.generate_workload(fsp, gen);
    const auto admitted = mgr.admit(fs.flows);
    ASSERT_TRUE(admitted.schedulable) << tc.name;

    tsch::validation_options vo;
    vo.min_reuse_hops = mc.scheduler.rho_t;
    vo.retries_per_link = mc.scheduler.retries_per_link;
    int applied_total = 0;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      rng swap_gen(derive_seed(4200, seed, 0));
      const auto randomized =
          tsch::randomize_slots(admitted.sched, fs.flows, swap_gen, 128);
      applied_total += randomized.swaps_applied;
      // Schedulability verdict unchanged: every placement survives and
      // the permuted schedule passes the from-scratch validator.
      EXPECT_EQ(randomized.sched.num_transmissions(),
                admitted.sched.num_transmissions())
          << tc.name;
      const auto verdict = tsch::validate_schedule(
          randomized.sched, fs.flows, mgr.view().reuse_hops, vo);
      EXPECT_TRUE(verdict.ok)
          << tc.name << ": "
          << (verdict.violations.empty() ? "" : verdict.violations[0]);
    }
    // The pass must actually permute, not just validate the identity.
    EXPECT_GT(applied_total, 0) << tc.name;
  }
}

TEST(SlotSwapper, DeterministicPermutationAndRngState) {
  const auto topology = topo::make_wustl(2);
  manager::manager_config mc;
  mc.num_channels = 8;
  mc.scheduler = core::make_config(core::algorithm::rc, 8);
  manager::network_manager mgr(topology, mc);
  flow::flow_set_params fsp;
  fsp.num_flows = 6;
  fsp.type = flow::traffic_type::peer_to_peer;
  rng gen(4300);
  const auto fs = mgr.generate_workload(fsp, gen);
  const auto admitted = mgr.admit(fs.flows);
  ASSERT_TRUE(admitted.schedulable);

  rng a(99), b(99);
  const auto ra = tsch::randomize_slots(admitted.sched, fs.flows, a, 50);
  const auto rb = tsch::randomize_slots(admitted.sched, fs.flows, b, 50);
  // Same inputs, same stream: identical permutation, identical
  // post-call rng state (the next raw outputs agree).
  ASSERT_EQ(ra.sched.num_transmissions(), rb.sched.num_transmissions());
  const auto& pa = ra.sched.placements();
  const auto& pb = rb.sched.placements();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].slot, pb[i].slot);
    EXPECT_EQ(pa[i].offset, pb[i].offset);
  }
  EXPECT_EQ(ra.columns, rb.columns);
  EXPECT_EQ(ra.columns_moved, rb.columns_moved);
  EXPECT_EQ(ra.swaps_applied, rb.swaps_applied);
  EXPECT_EQ(a(), b());
  // The relabeling must actually move the busy set, not just validate
  // the identity permutation.
  EXPECT_GT(ra.columns, 0);
  EXPECT_GT(ra.columns_moved, 0);
}

TEST(Jamming, RandomizationDefeatsTheTimingPredictingJammer) {
  const auto topology = topo::make_wustl(2);

  // Randomization OFF: the frame repeats, so every prediction hits.
  const auto undefended =
      scenario_engine(topology, jamming_config(false, true)).run();
  ASSERT_GT(undefended.total_jam_predictions, 0);
  EXPECT_DOUBLE_EQ(undefended.jam_hit_rate(), 1.0);

  // Randomization ON: the hit rate collapses toward the uniform-guess
  // baseline (the frame's busy fraction — jamming a random slot hits a
  // transmission with that probability).
  const auto defended =
      scenario_engine(topology, jamming_config(true, true)).run();
  ASSERT_GT(defended.total_jam_predictions, 0);
  EXPECT_LT(defended.jam_hit_rate(), 0.5);
  EXPECT_LE(defended.jam_hit_rate(),
            4.0 * defended.mean_busy_fraction + 0.05);

  // Surviving-flow PDR: with the defense on, jamming costs at most 2%
  // network PDR versus the identical unjammed run (same seeds, same
  // permutations — the jam is the only difference).
  const auto unjammed =
      scenario_engine(topology, jamming_config(true, false)).run();
  EXPECT_NEAR(defended.mean_pdr, unjammed.mean_pdr, 0.02);
  EXPECT_GT(unjammed.mean_pdr, 0.9);
}

TEST(RecoveryHardening, RetriesWithBackoffThenSucceeds) {
  const auto topology = topo::make_wustl(2);
  auto config = jamming_config(false, false);
  config.retry.max_attempts = 3;
  config.retry.backoff_base = 1;
  config.recovery_hook = [](int epoch, int attempt) {
    if (epoch == 2 && attempt < 2)
      throw std::runtime_error("management plane dropped the update");
  };
  scenario_engine engine(topology, config);
  for (int e = 0; e < 2; ++e) {
    const auto rec = engine.step();
    EXPECT_EQ(rec.recovery_retries, 0);
    EXPECT_FALSE(rec.recovery_failed);
  }
  const auto rec = engine.step();
  EXPECT_EQ(rec.recovery_retries, 2);
  EXPECT_EQ(rec.recovery_backoff, (1 << 0) + (1 << 1));
  EXPECT_FALSE(rec.recovery_failed);
}

TEST(RecoveryHardening, ExhaustedRetriesKeepPreviousStateAndContinue) {
  const auto topology = topo::make_wustl(2);
  auto config = jamming_config(false, false);
  config.retry.max_attempts = 2;
  config.recovery_hook = [](int epoch, int) {
    if (epoch == 1) throw std::runtime_error("down hard");
  };
  scenario_engine engine(topology, config);
  const auto before = engine.step();
  const auto failed = engine.step();
  EXPECT_TRUE(failed.recovery_failed);
  EXPECT_EQ(failed.recovery_retries, 2);
  EXPECT_EQ(failed.num_flows, before.num_flows);  // state kept
  const auto after = engine.step();  // the scenario keeps running
  EXPECT_FALSE(after.recovery_failed);
  EXPECT_EQ(after.num_flows, before.num_flows);
}

TEST(ScenarioEngine, InterfererOnsetEpochDelaysTheInterferers) {
  // Interferers switched on at epoch 2: the first two epochs are the
  // clean scenario's, digest for digest, and epoch 2 leaves its path.
  const auto topology = topo::make_wustl(2);
  const auto clean_config = jamming_config(false, false);
  auto onset_config = clean_config;
  onset_config.sim.interferers = sim::one_interferer_per_floor(topology);
  onset_config.interferer_onset_epoch = 2;
  const auto clean = scenario_engine(topology, clean_config).run();
  const auto onset = scenario_engine(topology, onset_config).run();
  for (std::size_t e = 0; e < 2; ++e)
    EXPECT_EQ(onset.epochs[e].digest, clean.epochs[e].digest)
        << "epoch " << e;
  EXPECT_NE(onset.epochs[2].digest, clean.epochs[2].digest);
  EXPECT_LT(onset.epochs[2].pdr, clean.epochs[2].pdr);
}

TEST(TemporalObservability, ScenarioSeriesMirrorsEpochRecords) {
  const auto topology = topo::make_wustl(2);
  const auto result = scenario_engine(topology, churn_config()).run();
  const auto s = scenario_series(result);
  EXPECT_EQ(s.name, "scenario");
  EXPECT_EQ(s.index_unit, "epoch");
  ASSERT_EQ(s.windows.size(), result.epochs.size());
  for (std::size_t e = 0; e < s.windows.size(); ++e) {
    const auto& w = s.windows[e];
    const auto& rec = result.epochs[e];
    EXPECT_EQ(w.index, rec.epoch);
    EXPECT_DOUBLE_EQ(w.values.at("pdr"), rec.pdr);
    EXPECT_DOUBLE_EQ(w.values.at("num_flows"), rec.num_flows);
    EXPECT_DOUBLE_EQ(w.values.at("jam_hits"), rec.jam_hits);
    EXPECT_DOUBLE_EQ(w.values.at("recovery_failed"),
                     rec.recovery_failed ? 1.0 : 0.0);
  }
}

TEST(TemporalObservability, RecoveryExhaustionDumpsAPostMortem) {
  const auto topology = topo::make_wustl(2);
  auto config = jamming_config(false, false);
  config.retry.max_attempts = 2;
  config.recovery_hook = [](int epoch, int) {
    if (epoch == 2) throw std::runtime_error("down hard");
  };
  obs::flight_recorder::config fc;
  fc.window_capacity = 8;
  fc.dump_path = ::testing::TempDir() + "wsan_scenario_dump.json";
  obs::flight_recorder recorder(fc);
  config.recorder = &recorder;
  const auto result = scenario_engine(topology, config).run();
  EXPECT_TRUE(result.epochs[2].recovery_failed);
  EXPECT_EQ(recorder.triggers(), 1u);

  // The dump is a self-contained, parseable post-mortem: the trigger
  // plus the last epoch windows up to and including the failing one.
  std::ifstream in(fc.dump_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = exp::json::parse(text.str());
  EXPECT_EQ(doc.find("schema")->as_string(), "wsan-flight-recorder/1");
  const auto* trigger = doc.find("trigger");
  ASSERT_NE(trigger, nullptr);
  EXPECT_EQ(trigger->find("event")->as_string(), "recovery_exhausted");
  EXPECT_EQ(trigger->find("fields")->find("epoch")->as_int(), 2);
  EXPECT_EQ(trigger->find("fields")->find("attempts")->as_int(), 2);
  const auto& windows = doc.find("windows")->as_array();
  ASSERT_EQ(windows.size(), 3u);  // epochs 0..2 recorded before firing
  EXPECT_EQ(windows.back().find("index")->as_int(), 2);
  EXPECT_EQ(windows.back()
                .find("values")
                ->find("recovery_failed")
                ->as_double(),
            1.0);
  std::remove(fc.dump_path.c_str());
}

TEST(TemporalObservability, SloAndRecorderNeverPerturbDigests) {
  const auto topology = topo::make_wustl(2);
  const auto config = churn_config();
  const auto plain = scenario_engine(topology, config).run();
  auto instrumented = config;
  instrumented.slo = obs::default_scenario_policy();
  obs::flight_recorder recorder;  // no dump file
  instrumented.recorder = &recorder;
  const auto observed = scenario_engine(topology, instrumented).run();
  ASSERT_EQ(plain.epochs.size(), observed.epochs.size());
  for (std::size_t e = 0; e < plain.epochs.size(); ++e)
    EXPECT_EQ(plain.epochs[e].digest, observed.epochs[e].digest)
        << "epoch " << e;
  EXPECT_EQ(plain.final_digest, observed.final_digest);
  // Every epoch's window was fed to the recorder.
  EXPECT_EQ(recorder.recent_windows().size(), plain.epochs.size());
}

TEST(Poisson, DrawIsDeterministicAndMeanIsPlausible) {
  rng gen(11);
  long long sum = 0;
  constexpr int k_draws = 2000;
  for (int i = 0; i < k_draws; ++i) sum += poisson_draw(gen, 3.0);
  const double mean = static_cast<double>(sum) / k_draws;
  EXPECT_NEAR(mean, 3.0, 0.15);
  rng again(11);
  long long sum2 = 0;
  for (int i = 0; i < k_draws; ++i) sum2 += poisson_draw(again, 3.0);
  EXPECT_EQ(sum, sum2);
  rng zero(1);
  EXPECT_EQ(poisson_draw(zero, 0.0), 0);
}

}  // namespace
}  // namespace wsan::scenario
