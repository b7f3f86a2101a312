// Tests of the bench experiment registry (bench/experiments.h): every
// registered experiment runs at smoke size, emits a schema-valid report
// whose science payload is the same at --jobs 1 and --jobs 3, and
// refuses an out-of-range --replay target.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments.h"
#include "exp/json.h"
#include "exp/report.h"
#include "obs/metrics.h"

namespace wsan {
namespace {

/// Figure-specific flags that shrink each experiment to a smoke run.
const std::map<std::string, std::vector<std::string>>& smoke_args() {
  static const std::map<std::string, std::vector<std::string>> args = {
      {"fig1", {"--trials", "1"}},
      {"fig2", {"--trials", "1"}},
      {"fig3", {"--trials", "1"}},
      {"fig4",
       {"--trials", "2", "--flows-centralized", "10", "--flows-p2p", "20"}},
      {"fig5",
       {"--trials", "2", "--flows-centralized", "10", "--flows-p2p", "20"}},
      {"fig6", {"--trials", "1"}},
      {"fig7", {}},
      {"fig8", {"--trials", "2", "--runs", "3", "--flows", "20"}},
      {"fig9", {"--trials", "2", "--flows", "20"}},
      {"fig10", {"--flows", "20", "--epochs", "1"}},
      {"fig11", {"--flows", "10", "--epochs", "2"}},
      {"detector", {"--trials", "1", "--epochs", "1", "--flows", "20"}},
      {"coexistence", {"--runs", "2", "--flows", "10"}},
      {"simthroughput", {"--trials", "1", "--runs", "2"}},
      {"fleet", {"--trials", "1", "--tenants", "6", "--ops", "6"}},
      {"churn", {"--trials", "1", "--epochs", "3"}},
      {"rho", {"--trials", "3", "--flows", "15"}},
      {"policy", {"--trials", "3", "--flows", "15"}},
      {"routing", {"--trials", "3", "--flows", "15", "--runs", "5"}},
      {"management", {"--trials", "3", "--flows", "15"}},
      {"pessimism", {"--trials", "3"}},
      {"optimality", {"--trials", "2", "--budget", "20000"}},
      {"latency", {"--trials", "2", "--flows", "20"}},
      {"energy", {"--trials", "2", "--flows", "20", "--runs", "3"}},
      {"recovery", {"--flows", "20", "--runs", "18", "--cycles", "1"}},
      // A threshold no run can miss: the test must not depend on timing.
      {"obsoverhead",
       {"--trials", "1", "--reps", "1", "--flows", "20", "--threshold",
        "1e9"}},
  };
  return args;
}

cli_args make_cli(const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"bench"};
  for (const auto& flag : flags) argv.push_back(flag.c_str());
  return cli_args(static_cast<int>(argv.size()), argv.data());
}

/// The cli_args of a smoke run, plus `extra` harness flags.
cli_args smoke_cli(const std::string& id,
                   const std::vector<std::string>& extra) {
  const auto it = smoke_args().find(id);
  if (it == smoke_args().end())
    throw std::logic_error("no smoke arguments for experiment " + id);
  auto flags = it->second;
  flags.insert(flags.end(), extra.begin(), extra.end());
  return make_cli(flags);
}

exp::figure_report run_smoke(const bench::figure_def& def, int jobs,
                             std::string& text) {
  const auto args = smoke_cli(def.id, {"--jobs", std::to_string(jobs)});
  std::ostringstream out;
  auto report = def.run(exp::parse_run_options(args), args, out);
  text = out.str();
  return report;
}

TEST(Registry, ListsEveryPaperFigureOnce) {
  std::set<std::string> ids;
  for (const auto& def : bench::figures()) {
    EXPECT_TRUE(ids.insert(def.id).second) << "duplicate id " << def.id;
    EXPECT_NE(def.run, nullptr) << def.id;
    EXPECT_FALSE(def.summary.empty()) << def.id;
    EXPECT_EQ(bench::find_figure(def.id), &def);
  }
  EXPECT_EQ(ids.size(), 26u);
  for (int n = 1; n <= 11; ++n)
    EXPECT_TRUE(ids.count("fig" + std::to_string(n))) << "fig" << n;
  EXPECT_TRUE(ids.count("detector"));
  EXPECT_EQ(bench::find_figure("fig12"), nullptr);
}

class RegistrySmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySmoke, ReportIsSchemaValidAndJobsInvariant) {
  const auto* def = bench::find_figure(GetParam());
  ASSERT_NE(def, nullptr);
  std::string serial_text;
  std::string parallel_text;
  const auto serial = exp::to_json(
      std::vector<exp::figure_report>{run_smoke(*def, 1, serial_text)});
  const auto parallel = exp::to_json(
      std::vector<exp::figure_report>{run_smoke(*def, 3, parallel_text)});
  EXPECT_FALSE(serial_text.empty());
  EXPECT_TRUE(exp::validate_reports_json(serial).empty());
  EXPECT_TRUE(exp::validate_reports_json(parallel).empty());
  EXPECT_EQ(exp::json::to_string(exp::science_payload(serial)),
            exp::json::to_string(exp::science_payload(parallel)));
}

TEST_P(RegistrySmoke, ReplayRefusesAnOutOfRangePoint) {
  const auto* def = bench::find_figure(GetParam());
  ASSERT_NE(def, nullptr);
  if (def->replay == nullptr) {  // only experiments without trials
    EXPECT_TRUE(def->id == "fig7" || def->id == "obsoverhead") << def->id;
    return;
  }
  const auto args = smoke_cli(def->id, {"--replay", "1000:0"});
  std::ostringstream out;
  EXPECT_FALSE(def->replay(exp::parse_run_options(args), args, out));
}

std::vector<std::string> registered_ids() {
  std::vector<std::string> ids;
  for (const auto& def : bench::figures()) ids.push_back(def.id);
  return ids;
}

INSTANTIATE_TEST_SUITE_P(
    Figures, RegistrySmoke, ::testing::ValuesIn(registered_ids()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Registry, ObsOverheadKeepsAnActiveSessionAndFailsAboveThreshold) {
  const auto* def = bench::find_figure("obsoverhead");
  ASSERT_NE(def, nullptr);
  std::string text;
  if (!obs::k_compiled_in) {  // nothing to measure, nothing can trip
    EXPECT_TRUE(run_smoke(*def, 1, text).panels.empty());
    return;
  }
  obs::set_enabled(true);
  const auto marker = obs::register_counter("test.registry.marker");
  marker.add(7);
  run_smoke(*def, 1, text);
  EXPECT_TRUE(obs::enabled());
  EXPECT_EQ(obs::take_snapshot().counters.at("test.registry.marker"), 7u);

  // The disabled-overhead ratio is at least 1, so a threshold below 1
  // always trips: the run must fail, not print and pass.
  const auto args = make_cli({"--trials", "1", "--reps", "1", "--flows",
                              "20", "--threshold", "0.99"});
  std::ostringstream out;
  EXPECT_THROW(def->run(exp::parse_run_options(args), args, out),
               std::runtime_error);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace wsan
