// Tests of the parallel deterministic experiment harness (src/exp) and
// its use by the migrated benches (bench/bench_common.h):
//
//  * bit-identical aggregates for --jobs 1/2/8, and identical to a
//    plain serial reference loop over the same derived streams;
//  * --replay reproducing any single trial in isolation;
//  * the counter-style RNG stream derivation (no colliding streams);
//  * order-independent aggregation and merge;
//  * exact JSON round-trips and report schema validation.
//
// This suite also runs under ThreadSanitizer in CI (it exercises the
// thread pool with real scheduler workloads).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/rng.h"
#include "exp/aggregator.h"
#include "exp/json.h"
#include "exp/options.h"
#include "exp/report.h"
#include "exp/runner.h"

namespace wsan {
namespace {

// ------------------------------------------------------------ streams --

TEST(DeriveSeed, StreamsDoNotCollide) {
  // 10k (point, trial) coordinates under one experiment seed: every
  // derived seed is distinct, and so is every stream's first-8-output
  // prefix. Because rng's seed expansion is injective (the first state
  // word is a bijection of the seed), distinct derived seeds imply
  // distinct full generator states — so this checks for state
  // collisions, not just output coincidences.
  constexpr std::uint64_t experiment_seed = 42;
  constexpr int points = 100;
  constexpr int trials = 100;
  std::set<std::uint64_t> seeds;
  std::set<std::array<std::uint64_t, 8>> prefixes;
  for (int p = 0; p < points; ++p) {
    for (int t = 0; t < trials; ++t) {
      const auto derived =
          derive_seed(experiment_seed, static_cast<std::uint64_t>(p),
                      static_cast<std::uint64_t>(t));
      seeds.insert(derived);
      rng gen(derived);
      std::array<std::uint64_t, 8> prefix;
      for (auto& word : prefix) word = gen();
      prefixes.insert(prefix);
    }
  }
  EXPECT_EQ(seeds.size(), points * trials);
  EXPECT_EQ(prefixes.size(), points * trials);
}

TEST(DeriveSeed, CoordinatesAreNotInterchangeable) {
  // (point, trial) and (trial, point) must give different streams, and
  // the experiment seed must matter.
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

// ------------------------------------------------------------- runner --

TEST(TrialRunner, ResolveJobs) {
  EXPECT_GE(exp::resolve_jobs(0), 1);  // 0 = all hardware threads
  EXPECT_EQ(exp::resolve_jobs(-3), 1);
  EXPECT_EQ(exp::resolve_jobs(1), 1);
  EXPECT_EQ(exp::resolve_jobs(5), 5);
}

TEST(TrialRunner, EveryTrialRunsExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    constexpr int trials = 100;
    std::vector<std::atomic<int>> ran(trials);
    exp::parallel_trials(trials, jobs, [&](int, int trial) {
      ran[static_cast<std::size_t>(trial)].fetch_add(1);
    });
    for (int t = 0; t < trials; ++t)
      EXPECT_EQ(ran[static_cast<std::size_t>(t)].load(), 1)
          << "jobs=" << jobs << " trial=" << t;
  }
}

TEST(TrialRunner, PropagatesWorkerExceptions) {
  const auto boom = [](int, int trial) {
    if (trial == 13) throw std::runtime_error("boom");
  };
  EXPECT_THROW(exp::parallel_trials(64, 4, boom), std::runtime_error);
  EXPECT_THROW(exp::parallel_trials(64, 1, boom), std::runtime_error);
}

// The determinism contract, on the real workload: schedulable_ratio on
// Indriya must produce the same counters at any thread count, and those
// counters must equal a plain serial for-loop over the same derived
// streams (i.e. the runner adds nothing beyond parallelism).
TEST(TrialRunner, SchedulableRatioBitIdenticalAcrossJobs) {
  const auto env = bench::make_env("indriya", 5);
  flow::flow_set_params fsp;
  fsp.type = flow::traffic_type::centralized;
  fsp.num_flows = 20;
  fsp.period_min_exp = 0;
  fsp.period_max_exp = 2;
  constexpr int trials = 12;
  constexpr std::uint64_t seed = 901;
  constexpr std::uint64_t point_index = 7;

  // Serial reference: the legacy bench loop body, one trial at a time,
  // no runner involved.
  bench::ratio_point reference;
  for (int trial = 0; trial < trials; ++trial) {
    rng gen(derive_seed(seed, point_index,
                        static_cast<std::uint64_t>(trial)));
    const auto outcome = bench::run_ratio_trial(env, fsp, 2, gen);
    ++reference.trials;
    reference.nr_ok += outcome.nr_ok ? 1 : 0;
    reference.ra_ok += outcome.ra_ok ? 1 : 0;
    reference.rc_ok += outcome.rc_ok ? 1 : 0;
  }
  // The workload must be non-degenerate or the test proves nothing.
  EXPECT_EQ(reference.trials, trials);
  EXPECT_GT(reference.rc_ok, 0);

  for (const int jobs : {1, 2, 8}) {
    const auto point = bench::schedulable_ratio(env, fsp, trials, seed, 2,
                                                nullptr, jobs, point_index);
    EXPECT_EQ(point.trials, reference.trials) << "jobs=" << jobs;
    EXPECT_EQ(point.nr_ok, reference.nr_ok) << "jobs=" << jobs;
    EXPECT_EQ(point.ra_ok, reference.ra_ok) << "jobs=" << jobs;
    EXPECT_EQ(point.rc_ok, reference.rc_ok) << "jobs=" << jobs;
  }
}

TEST(TrialRunner, EfficiencyHistogramsBitIdenticalAcrossJobs) {
  // Same contract for the merged histogram side channel (figures 4/5).
  const auto env = bench::make_env("indriya", 5);
  flow::flow_set_params fsp;
  fsp.type = flow::traffic_type::centralized;
  fsp.num_flows = 15;
  fsp.period_min_exp = 0;
  fsp.period_max_exp = 2;
  bench::efficiency_accumulator serial;
  bench::schedulable_ratio(env, fsp, 8, 77, 2, &serial, 1, 0);
  bench::efficiency_accumulator parallel;
  bench::schedulable_ratio(env, fsp, 8, 77, 2, &parallel, 8, 0);
  EXPECT_EQ(serial.rc_tx_per_channel.bins(),
            parallel.rc_tx_per_channel.bins());
  EXPECT_EQ(serial.ra_hop_count.bins(), parallel.ra_hop_count.bins());
  EXPECT_FALSE(serial.rc_tx_per_channel.bins().empty());
}

TEST(TrialRunner, ReplayReproducesOneTrial) {
  // Replaying trial t in isolation gives exactly the outcome trial t
  // contributed to the full run — fresh stream, no sibling influence.
  const auto env = bench::make_env("indriya", 5);
  flow::flow_set_params fsp;
  fsp.type = flow::traffic_type::centralized;
  fsp.num_flows = 20;
  fsp.period_min_exp = 0;
  fsp.period_max_exp = 2;
  constexpr std::uint64_t seed = 901;
  constexpr std::uint64_t point_index = 3;
  for (const int trial : {0, 5, 11}) {
    rng full_run_gen(derive_seed(seed, point_index,
                                 static_cast<std::uint64_t>(trial)));
    const auto in_run = bench::run_ratio_trial(env, fsp, 2, full_run_gen);
    rng replay_gen(derive_seed(seed, point_index,
                               static_cast<std::uint64_t>(trial)));
    const auto replayed = bench::run_ratio_trial(env, fsp, 2, replay_gen);
    EXPECT_EQ(replayed.generated, in_run.generated) << "trial=" << trial;
    EXPECT_EQ(replayed.nr_ok, in_run.nr_ok) << "trial=" << trial;
    EXPECT_EQ(replayed.ra_ok, in_run.ra_ok) << "trial=" << trial;
    EXPECT_EQ(replayed.rc_ok, in_run.rc_ok) << "trial=" << trial;
  }
}

TEST(TrialRunner, FindReliabilitySetsIndependentOfJobs) {
  const auto env = bench::make_env("wustl", 4);
  flow::flow_set_params fsp;
  fsp.type = flow::traffic_type::peer_to_peer;
  fsp.num_flows = 20;
  fsp.period_min_exp = 0;
  fsp.period_max_exp = 0;
  const auto serial = bench::find_reliability_sets(env, fsp, 2, 11, 2,
                                                   50, 1);
  const auto parallel = bench::find_reliability_sets(env, fsp, 2, 11, 2,
                                                     50, 8);
  ASSERT_EQ(serial.sets.size(), parallel.sets.size());
  EXPECT_EQ(serial.flows_used, parallel.flows_used);
  for (std::size_t i = 0; i < serial.sets.size(); ++i) {
    const auto& a = serial.sets[i].flows;
    const auto& b = parallel.sets[i].flows;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) {
      EXPECT_EQ(a[f].period, b[f].period);
      EXPECT_EQ(a[f].route, b[f].route);
    }
  }
}

// --------------------------------------------------------- aggregation --

TEST(RatioPoint, MergeAddsCounters) {
  bench::ratio_point a;
  a.trials = 3;
  a.nr_ok = 1;
  a.ra_ok = 2;
  a.rc_ok = 3;
  bench::ratio_point b;
  b.trials = 5;
  b.nr_ok = 4;
  b.ra_ok = 0;
  b.rc_ok = 2;
  a += b;
  EXPECT_EQ(a.trials, 8);
  EXPECT_EQ(a.nr_ok, 5);
  EXPECT_EQ(a.ra_ok, 2);
  EXPECT_EQ(a.rc_ok, 5);
  EXPECT_DOUBLE_EQ(a.rc(), 5.0 / 8.0);
}

TEST(Aggregator, MergeIsOrderIndependent) {
  // Two partials merged in either order give bit-identical reads; the
  // value metrics are keyed by trial, so even floating-point sums are
  // taken in trial order regardless of which partial held which trial.
  const auto make = [](std::initializer_list<int> trials) {
    exp::aggregator agg;
    for (const int t : trials) {
      agg.add_count("seen");
      agg.add_value("latency", t, 0.1 * (t + 1));
    }
    return agg;
  };
  const auto a = make({0, 3, 4});
  const auto b = make({1, 2, 5});
  exp::aggregator ab = a;
  ab += b;
  exp::aggregator ba = b;
  ba += a;
  EXPECT_EQ(ab.count("seen"), 6);
  EXPECT_EQ(ab.count("seen"), ba.count("seen"));
  EXPECT_EQ(ab.value_count("latency"), 6);
  // Bit-exact equality, not EXPECT_NEAR: this is the determinism claim.
  EXPECT_EQ(ab.sum("latency"), ba.sum("latency"));
  EXPECT_EQ(ab.mean("latency"), ba.mean("latency"));
}

TEST(Aggregator, RejectsDuplicateTrialValues) {
  exp::aggregator a;
  a.add_value("metric", 4, 1.0);
  EXPECT_THROW(a.add_value("metric", 4, 2.0), std::invalid_argument);
  exp::aggregator b;
  b.add_value("metric", 4, 3.0);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Aggregator, RatioUsesWilsonInterval) {
  exp::aggregator agg;
  agg.add_count("ok", 80);
  agg.add_count("trials", 100);
  const auto ci = agg.ratio("ok", "trials");
  EXPECT_DOUBLE_EQ(ci.estimate, 0.8);
  EXPECT_LT(ci.low, 0.8);
  EXPECT_GT(ci.high, 0.8);
  // Absent counters: zero trials, the vacuous [0, 1] interval.
  const auto empty = agg.ratio("missing", "also_missing");
  EXPECT_DOUBLE_EQ(empty.low, 0.0);
  EXPECT_DOUBLE_EQ(empty.high, 1.0);
}

// -------------------------------------------------------------- options --

TEST(RunOptions, ParsesHarnessFlags) {
  const char* argv[] = {"prog",    "--jobs", "4",         "--trials",
                        "25",      "--seed", "123",       "--json",
                        "out.json"};
  const cli_args args(static_cast<int>(std::size(argv)),
                      const_cast<char**>(argv));
  const auto options = exp::parse_run_options(args);
  EXPECT_EQ(options.jobs, 4);
  EXPECT_EQ(options.trials_or(50), 25);
  EXPECT_TRUE(options.seed_overridden);
  EXPECT_EQ(options.seed_or(999), 123u);
  EXPECT_EQ(options.json_path, "out.json");
  EXPECT_FALSE(options.replay.requested());
}

TEST(RunOptions, DefaultsApplyWhenFlagsAbsent) {
  const char* argv[] = {"prog"};
  const cli_args args(1, const_cast<char**>(argv));
  const auto options = exp::parse_run_options(args);
  EXPECT_EQ(options.jobs, 1);
  EXPECT_EQ(options.trials_or(50), 50);
  EXPECT_FALSE(options.seed_overridden);
  EXPECT_EQ(options.seed_or(999), 999u);
  EXPECT_TRUE(options.json_path.empty());
}

TEST(RunOptions, ParsesReplayTarget) {
  const auto target = exp::parse_replay_target("12:3");
  EXPECT_EQ(target.point, 12);
  EXPECT_EQ(target.trial, 3);
  EXPECT_TRUE(target.requested());
  EXPECT_THROW(exp::parse_replay_target("12"), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target("a:b"), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target("-1:2"), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target("2:-1"), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target("12:"), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target(":3"), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target(""), std::invalid_argument);
  EXPECT_THROW(exp::parse_replay_target("1:two"), std::invalid_argument);
}

// ----------------------------------------------------------------- json --

TEST(Json, RoundTripsDoublesBitExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           2.5,
                           -0.0,
                           1e-300,
                           1.7976931348623157e308,
                           3.141592653589793,
                           123456.78901234567};
  for (const double d : values) {
    exp::json::value v(d);
    const auto text = exp::json::to_string(v);
    const auto parsed = exp::json::parse(text);
    // Full-precision round-trip: bitwise equality, not tolerance.
    EXPECT_EQ(parsed.as_double(), d) << text;
  }
}

TEST(Json, RoundTripsIntegersAndStrings) {
  exp::json::object obj;
  obj["big"] = exp::json::value(std::int64_t{1} << 62);
  obj["neg"] = exp::json::value(std::int64_t{-42});
  obj["text"] = exp::json::value("line\n\"quoted\"\ttab \\ slash");
  obj["flag"] = exp::json::value(true);
  obj["nothing"] = exp::json::value(nullptr);
  const auto parsed =
      exp::json::parse(exp::json::to_string(exp::json::value(obj)));
  EXPECT_EQ(parsed.find("big")->as_int(), std::int64_t{1} << 62);
  EXPECT_EQ(parsed.find("neg")->as_int(), -42);
  EXPECT_EQ(parsed.find("text")->as_string(),
            "line\n\"quoted\"\ttab \\ slash");
  EXPECT_TRUE(parsed.find("flag")->as_bool());
  EXPECT_TRUE(parsed.find("nothing")->is_null());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(exp::json::parse(""), std::invalid_argument);
  EXPECT_THROW(exp::json::parse("{"), std::invalid_argument);
  EXPECT_THROW(exp::json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(exp::json::parse("{} trailing"), std::invalid_argument);
  EXPECT_THROW(exp::json::parse("nul"), std::invalid_argument);
}

TEST(Json, BoundsNestingDepth) {
  const auto nested = [](int depth, char open, char close) {
    std::string text;
    for (int i = 0; i < depth; ++i)
      text += open == '{' ? std::string("{\"k\":") : std::string(1, open);
    text += "0";
    text += std::string(static_cast<std::size_t>(depth), close);
    return text;
  };
  const int limit = exp::json::k_max_depth;
  EXPECT_NO_THROW(exp::json::parse(nested(limit, '[', ']')));
  EXPECT_NO_THROW(exp::json::parse(nested(limit, '{', '}')));
  EXPECT_THROW(exp::json::parse(nested(limit + 1, '[', ']')),
               std::invalid_argument);
  EXPECT_THROW(exp::json::parse(nested(limit + 1, '{', '}')),
               std::invalid_argument);
  // Deep input fails loudly instead of overflowing the stack.
  EXPECT_THROW(exp::json::parse(std::string(100000, '[')),
               std::invalid_argument);
  // Depth is nesting, not the number of containers.
  std::string wide = "[";
  for (int i = 0; i < 2 * limit; ++i) wide += "[[]],";
  wide += "[]]";
  EXPECT_NO_THROW(exp::json::parse(wide));
}

TEST(Json, NumberGrammarIsRfc8259Strict) {
  for (const char* bad : {"1.", "01", "-01", "+1", ".5", "-", "--1", "1e",
                          "1e+", "1.e5", "0x10", "1.5.2", "1e5e5", "- 1",
                          "[1.]", "[01]", "{\"a\":+1}"})
    EXPECT_THROW(exp::json::parse(bad), std::invalid_argument) << bad;
  EXPECT_EQ(exp::json::parse("0").as_int(), 0);
  EXPECT_EQ(exp::json::parse("-12").as_int(), -12);
  EXPECT_EQ(exp::json::parse("1.5").as_double(), 1.5);
  EXPECT_EQ(exp::json::parse("1E-5").as_double(), 1e-5);
  EXPECT_EQ(exp::json::parse("1e+20").as_double(), 1e20);
  EXPECT_EQ(exp::json::parse("-0.0").as_double(), 0.0);
  // write() emits -0.0 as "-0": it reads back with its sign.
  const auto negative_zero =
      exp::json::parse(exp::json::to_string(exp::json::value(-0.0)));
  EXPECT_FALSE(negative_zero.is_int());
  EXPECT_TRUE(std::signbit(negative_zero.as_double()));
}

TEST(Json, DecodesSurrogatePairsAndRejectsLoneSurrogates) {
  EXPECT_EQ(exp::json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  EXPECT_EQ(exp::json::parse("\"\\u00e9\\u20ac\"").as_string(),
            "\xc3\xa9\xe2\x82\xac");
  for (const char* bad : {"\"\\ud800\"", "\"\\udc00\"",
                          "\"\\ud800\\u0041\"", "\"\\ud800x\"",
                          "\"\\udbff\\ud800\"", "\"\\u12\"",
                          "\"a\x01b\"", "\"tab\there\""})
    EXPECT_THROW(exp::json::parse(bad), std::invalid_argument) << bad;
}

TEST(Json, CommittedBaselinesRoundTrip) {
  for (const char* name : {"/fig6_smoke.json", "/fleet_reuse_smoke.json",
                           "/sim_throughput_smoke.json",
                           "/fig8_smoke.json"}) {
    std::ifstream in(std::string(WSAN_BASELINE_DIR) + name);
    ASSERT_TRUE(in.good()) << name;
    const std::string doc{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    const std::string text = exp::json::to_string(exp::json::parse(doc));
    EXPECT_EQ(exp::json::to_string(exp::json::parse(text)), text) << name;
  }
}

exp::figure_report sample_report() {
  exp::figure_report report;
  report.figure = "fig1";
  report.title = "schedulable ratio";
  report.seed = 901;
  report.jobs = 8;
  report.trials = 50;
  report.wall_seconds = 12.734209914889999;
  report.parameters = {{"testbed", "indriya"}, {"flows", "40"}};
  exp::report_panel panel;
  panel.name = "(a)";
  panel.x_label = "#channels";
  exp::report_point point;
  point.x = 3;
  point.values = {{"nr", 1.0 / 3.0}, {"rc", 0.9744266736324261}};
  panel.points.push_back(point);
  report.panels.push_back(panel);
  return report;
}

TEST(Report, RoundTripsThroughJsonToFullPrecision) {
  const auto report = sample_report();
  const auto text =
      exp::json::to_string(exp::to_json(std::vector{report}));
  const auto parsed = exp::reports_from_json(exp::json::parse(text));
  ASSERT_EQ(parsed.size(), 1u);
  const auto& back = parsed.front();
  EXPECT_EQ(back.figure, report.figure);
  EXPECT_EQ(back.title, report.title);
  EXPECT_EQ(back.seed, report.seed);
  EXPECT_EQ(back.jobs, report.jobs);
  EXPECT_EQ(back.trials, report.trials);
  EXPECT_EQ(back.wall_seconds, report.wall_seconds);  // bit-exact
  EXPECT_EQ(back.parameters, report.parameters);
  ASSERT_EQ(back.panels.size(), 1u);
  EXPECT_EQ(back.panels[0].name, "(a)");
  EXPECT_EQ(back.panels[0].x_label, "#channels");
  ASSERT_EQ(back.panels[0].points.size(), 1u);
  EXPECT_EQ(back.panels[0].points[0].x, 3.0);
  EXPECT_EQ(back.panels[0].points[0].values, report.panels[0].points[0].values);
}

TEST(Report, ContainerIsSchemaValid) {
  const auto doc = exp::to_json(std::vector{sample_report()});
  EXPECT_TRUE(exp::validate_reports_json(doc).empty());
}

TEST(Report, ValidatorFlagsStructuralViolations) {
  auto doc = exp::to_json(std::vector{sample_report()});
  doc.as_object().erase("schema");
  doc.as_object()["reports"]
      .as_array()[0]
      .as_object()["panels"] = exp::json::value("not an array");
  const auto violations = exp::validate_reports_json(doc);
  ASSERT_GE(violations.size(), 2u);
}

TEST(Report, ContainerCarriesExplicitNullObservability) {
  const auto doc = exp::to_json(std::vector{sample_report()});
  const auto* obs = doc.find("observability");
  ASSERT_NE(obs, nullptr) << "observability key must always be present";
  EXPECT_TRUE(obs->is_null());
}

TEST(Report, ValidatorRequiresObservabilityKey) {
  auto doc = exp::to_json(std::vector{sample_report()});
  doc.as_object().erase("observability");
  const auto violations = exp::validate_reports_json(doc);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("observability"), std::string::npos);
}

TEST(Report, ValidatorRejectsNonObjectObservability) {
  auto doc = exp::to_json(std::vector{sample_report()});
  doc.as_object()["observability"] = exp::json::value("not an object");
  EXPECT_FALSE(exp::validate_reports_json(doc).empty());
  doc.as_object()["observability"] = exp::json::value(exp::json::object{});
  EXPECT_TRUE(exp::validate_reports_json(doc).empty());
}

TEST(Report, SciencePayloadStripsMeasurements) {
  auto report = sample_report();
  report.measurement_keys = {"rc"};  // declare one series as measured
  auto doc = exp::to_json(std::vector{report});
  doc.as_object()["observability"] = exp::json::value(exp::json::object{});
  const auto payload = exp::science_payload(doc);
  EXPECT_TRUE(payload.find("observability")->is_null());
  const auto& back = payload.find("reports")->as_array()[0];
  EXPECT_EQ(back.find("wall_seconds")->as_double(), 0.0);
  const auto& values = *back.find("panels")
                            ->as_array()[0]
                            .find("points")
                            ->as_array()[0]
                            .find("values");
  EXPECT_EQ(values.find("rc")->as_double(), 0.0);  // declared: zeroed
  // Everything else survives untouched.
  EXPECT_EQ(values.find("nr")->as_double(), 1.0 / 3.0);
  EXPECT_EQ(back.find("figure")->as_string(), "fig1");
}

TEST(Report, MeasurementKeysRoundTripAndValidate) {
  auto report = sample_report();
  report.measurement_keys = {"nr_ms", "speedup"};
  const auto doc = exp::to_json(std::vector{report});
  EXPECT_TRUE(exp::validate_reports_json(doc).empty());
  const auto back = exp::reports_from_json(doc);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].measurement_keys, report.measurement_keys);
  // Wrong type is flagged.
  auto bad = doc;
  bad.as_object()["reports"].as_array()[0].as_object()
      ["measurement_keys"] = exp::json::value("not an array");
  EXPECT_FALSE(exp::validate_reports_json(bad).empty());
}

TEST(Report, CommittedFixtureIsSchemaValid) {
  std::ifstream in(std::string(WSAN_TEST_DATA_DIR) +
                   "/bench_report_fixture.json");
  ASSERT_TRUE(in.is_open()) << "missing tests/data fixture";
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = exp::json::parse(text.str());
  const auto violations = exp::validate_reports_json(doc);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();
  const auto reports = exp::reports_from_json(doc);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].figure, "fig1");
  EXPECT_EQ(reports[1].figure, "coexistence");
  // Doubles written by the shortest-round-trip writer re-parse exactly.
  EXPECT_EQ(reports[0].wall_seconds, 12.734209914889999);
}

}  // namespace
}  // namespace wsan
