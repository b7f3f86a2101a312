// Temporal observability tests (obs/timeseries, obs/slo,
// obs/flight_recorder + the exp-side parsers):
//
//  * the series recorder enforces strictly increasing indices and
//    accumulates scalars and fixed-bucket histograms per window;
//  * wsan-series/1 JSONL round-trips bit-exactly through the exp
//    parser, and the OpenMetrics exposition is well-formed;
//  * SLO evaluation flags upper/lower-bound violations per window,
//    skips metrics a window does not carry, and only error-severity
//    rules make a verdict unhealthy;
//  * the flight recorder retains bounded event/window rings, counts
//    drops, and dumps a parseable self-contained post-mortem;
//  * tee_sink fans events out to several sinks with per-child
//    min-severity filtering.
//
// Everything here is cold-path tooling that works under WSAN_OBS=OFF
// too (sinks are driven by direct consume(), the recorder by explicit
// calls), so none of these tests gate on obs::k_compiled_in.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.h"
#include "exp/obs_io.h"
#include "obs/events.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace wsan {
namespace {

obs::event make_event(obs::severity sev, int seq) {
  obs::event ev;
  ev.sev = sev;
  ev.component = "test";
  ev.name = "tick";
  ev.fields.push_back({"n", seq});
  ev.seq = static_cast<std::uint64_t>(seq);
  return ev;
}

TEST(SeriesRecorder, BuildsWindowsAndEnforcesIncreasingIndices) {
  obs::series_recorder rec({.name = "t", .index_unit = "epoch"});
  rec.begin_window(0);
  rec.set("pdr", 0.75);
  rec.add("rejected", 2.0);
  rec.add("rejected", 3.0);
  rec.observe("lat", {1.0, 10.0}, 0.5);
  rec.observe("lat", {1.0, 10.0}, 5.0);
  rec.observe("lat", {1.0, 10.0}, 50.0);
  rec.end_window();
  rec.begin_window(3);  // gaps are fine, only monotonicity is required
  rec.set("pdr", 0.5);
  rec.end_window();

  const auto& s = rec.result();
  ASSERT_EQ(s.windows.size(), 2u);
  EXPECT_EQ(s.windows[0].index, 0);
  EXPECT_EQ(s.windows[1].index, 3);
  EXPECT_DOUBLE_EQ(s.windows[0].values.at("rejected"), 5.0);
  const auto& h = s.windows[0].histograms.at("lat");
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{1, 1, 1}));

  obs::series_recorder bad;
  bad.begin_window(5);
  bad.end_window();
  EXPECT_THROW(bad.begin_window(5), std::exception);
}

TEST(SeriesRecorder, HistogramMergeEqualsElementwiseSum) {
  const auto bounds = obs::exponential_bounds(1.0, 4.0, 4);
  obs::series_recorder one_shot;
  one_shot.begin_window(0);
  for (double v : {0.5, 1.0, 3.0, 16.0, 999.0})
    one_shot.observe("h", bounds, v);
  one_shot.end_window();

  obs::series_recorder halves;
  halves.begin_window(0);
  for (double v : {0.5, 1.0}) halves.observe("h", bounds, v);
  obs::histogram_snapshot rest;
  rest.upper_bounds = bounds;
  rest.counts = {0, 1, 1, 0, 1};  // 3.0, 16.0, 999.0
  halves.merge_histogram("h", rest);
  halves.end_window();

  EXPECT_EQ(one_shot.result().windows[0].histograms.at("h").counts,
            halves.result().windows[0].histograms.at("h").counts);
}

TEST(SeriesRecorder, ExponentialBoundsAssignBoundariesInclusively) {
  const auto bounds = obs::exponential_bounds(1.0, 4.0, 4);
  EXPECT_EQ(bounds, (std::vector<double>{1.0, 4.0, 16.0, 64.0}));
  obs::series_recorder rec;
  rec.begin_window(0);
  rec.observe("h", bounds, 1.0);    // bucket 0 (inclusive upper bound)
  rec.observe("h", bounds, 1.001);  // bucket 1
  rec.observe("h", bounds, 64.0);   // bucket 3
  rec.observe("h", bounds, 64.001); // overflow
  rec.end_window();
  EXPECT_EQ(rec.result().windows[0].histograms.at("h").counts,
            (std::vector<std::uint64_t>{1, 1, 0, 1, 1}));
}

TEST(SeriesFormats, JsonlRoundTripsBitExactly) {
  obs::series_recorder rec({.name = "rt", .index_unit = "op"});
  rec.begin_window(2);
  rec.set("pdr", 1.0 / 3.0);  // a double that exposes formatting loss
  rec.set("count", 7.0);
  rec.observe("lat", {1.0, 4.0}, 2.5);
  rec.end_window();
  rec.begin_window(4);
  rec.set("pdr", 0.9999999999999999);
  rec.end_window();

  std::ostringstream out;
  obs::write_series_jsonl(rec.result(), out);
  std::istringstream in(out.str());
  const auto parsed = exp::series_from_jsonl(in);

  EXPECT_EQ(parsed.name, "rt");
  EXPECT_EQ(parsed.index_unit, "op");
  ASSERT_EQ(parsed.windows.size(), 2u);
  EXPECT_EQ(parsed.windows[0].index, 2);
  EXPECT_EQ(parsed.windows[0].values.at("pdr"), 1.0 / 3.0);  // bit-exact
  EXPECT_EQ(parsed.windows[1].values.at("pdr"), 0.9999999999999999);
  const auto& h = parsed.windows[0].histograms.at("lat");
  EXPECT_EQ(h.upper_bounds, (std::vector<double>{1.0, 4.0}));
  EXPECT_EQ(h.counts, (std::vector<std::uint64_t>{0, 1, 0}));

  // A malformed header is rejected loudly.
  std::istringstream bad("{\"schema\":\"other/1\"}\n");
  EXPECT_THROW(exp::series_from_jsonl(bad), std::exception);
}

TEST(SeriesFormats, TableSurvivesValuesWhoseRangeOverflows) {
  // max - min overflows to infinity: the sparkline must still pick a
  // block instead of indexing with a NaN-derived level.
  obs::series s;
  s.name = "extreme";
  for (const double v : {1.7e308, -1.7e308, 0.0, 1.7e308}) {
    obs::series_window w;
    w.index = static_cast<std::int64_t>(s.windows.size());
    w.values["x"] = v;
    s.windows.push_back(w);
  }
  std::ostringstream os;
  exp::print_series_table(s, os);
  EXPECT_NE(os.str().find("\xe2\x96\x81"), std::string::npos);  // "▁"
}

TEST(SeriesFormats, OpenMetricsExpositionIsWellFormed) {
  obs::series_recorder rec({.name = "om", .index_unit = "epoch"});
  rec.begin_window(0);
  rec.set("pdr", 0.5);
  rec.observe("lat-us", {1.0, 4.0}, 2.0);  // name needs sanitising
  rec.end_window();
  rec.begin_window(1);
  rec.set("pdr", 0.75);
  rec.end_window();

  std::ostringstream out;
  obs::write_series_openmetrics(rec.result(), out);
  const auto text = out.str();
  EXPECT_NE(text.find("# TYPE wsan_pdr gauge"), std::string::npos);
  EXPECT_NE(text.find("wsan_pdr{window=\"0\"} 0.5"), std::string::npos);
  EXPECT_NE(text.find("wsan_pdr{window=\"1\"} 0.75"), std::string::npos);
  // Sanitised histogram name, cumulative buckets, +Inf, count.
  EXPECT_NE(text.find("wsan_lat_us_bucket{le=\"4\",window=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("wsan_lat_us_count{window=\"0\"} 1"),
            std::string::npos);
  // One TYPE line per metric, and the mandatory terminator.
  EXPECT_EQ(text.find("# TYPE wsan_pdr gauge"),
            text.rfind("# TYPE wsan_pdr gauge"));
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(Slo, EvaluatesBoundsSkipsMissingMetricsAndGradesSeverity) {
  obs::slo_policy policy;
  policy.rules.push_back(
      {"pdr", obs::slo_kind::lower_bound, 0.9, obs::severity::error});
  policy.rules.push_back({"rejection_rate", obs::slo_kind::upper_bound,
                          0.5, obs::severity::warning});

  obs::series_recorder rec;
  rec.begin_window(0);
  rec.set("pdr", 0.95);  // fine
  rec.set("rejection_rate", 0.75);  // warning
  rec.end_window();
  rec.begin_window(1);
  rec.set("pdr", 0.5);  // error; no rejection_rate -> rule skipped
  rec.end_window();

  const auto verdict = obs::evaluate_slo(rec.result(), policy);
  EXPECT_FALSE(verdict.healthy);
  EXPECT_EQ(verdict.windows_evaluated, 2);
  EXPECT_EQ(verdict.errors(), 1);
  EXPECT_EQ(verdict.warnings(), 1);
  ASSERT_EQ(verdict.violations.size(), 2u);
  EXPECT_EQ(verdict.violations[0].metric, "rejection_rate");
  EXPECT_EQ(verdict.violations[1].window_index, 1);
  EXPECT_EQ(verdict.violations[1].metric, "pdr");

  // Warnings alone stay healthy.
  obs::series_recorder warn_only;
  warn_only.begin_window(0);
  warn_only.set("pdr", 0.95);
  warn_only.set("rejection_rate", 0.75);
  warn_only.end_window();
  EXPECT_TRUE(obs::evaluate_slo(warn_only.result(), policy).healthy);

  // Boundary values do not violate (bounds are inclusive).
  obs::series_recorder at_bound;
  at_bound.begin_window(0);
  at_bound.set("pdr", 0.9);
  at_bound.set("rejection_rate", 0.5);
  at_bound.end_window();
  const auto ok = obs::evaluate_slo(at_bound.result(), policy);
  EXPECT_TRUE(ok.healthy);
  EXPECT_TRUE(ok.violations.empty());
}

TEST(Slo, HealthSectionRoundTripsThroughJson) {
  obs::slo_policy policy = obs::default_scenario_policy();
  obs::series_recorder rec;
  rec.begin_window(0);
  rec.set("pdr", 0.1);
  rec.end_window();
  const auto verdict = obs::evaluate_slo(rec.result(), policy);
  const auto section = exp::health_section(policy, {{"subject", verdict}});
  const auto reparsed = exp::json::parse(exp::json::to_string(section));
  const auto* subject = reparsed.find("verdicts")->find("subject");
  ASSERT_NE(subject, nullptr);
  EXPECT_FALSE(subject->find("healthy")->as_bool());
  EXPECT_EQ(subject->find("errors")->as_int(), verdict.errors());
  std::ostringstream os;
  EXPECT_FALSE(exp::print_health_block(reparsed, os));
  EXPECT_NE(os.str().find("VIOLATED"), std::string::npos);
}

TEST(FlightRecorder, KeepsBoundedRingsAndDumpsParseablePostMortem) {
  const std::string dump_path =
      ::testing::TempDir() + "wsan_flight_dump_test.json";
  std::remove(dump_path.c_str());

  obs::flight_recorder::config cfg;
  cfg.event_capacity = 4;
  cfg.window_capacity = 2;
  cfg.dump_path = dump_path;
  obs::flight_recorder rec(cfg);

  for (int i = 1; i <= 10; ++i)
    rec.consume(make_event(obs::severity::info, i));
  for (int w = 0; w < 3; ++w) {
    obs::series_window window;
    window.index = w;
    window.values["pdr"] = 0.5 + 0.1 * w;
    rec.record_window(window);
  }
  EXPECT_EQ(rec.dropped_events(), 6u);
  EXPECT_EQ(rec.recent_events().size(), 4u);
  EXPECT_EQ(rec.recent_windows().size(), 2u);

  const auto text = rec.trigger(obs::severity::error, "test",
                                "slo_tripped", {{"metric", "pdr"}});
  EXPECT_EQ(rec.triggers(), 1u);

  const auto doc = exp::json::parse(text);
  EXPECT_EQ(doc.find("schema")->as_string(), "wsan-flight-recorder/1");
  EXPECT_EQ(doc.find("trigger")->find("event")->as_string(),
            "slo_tripped");
  EXPECT_EQ(doc.find("trigger_count")->as_int(), 1);
  EXPECT_EQ(doc.find("dropped_events")->as_int(), 6);
  ASSERT_EQ(doc.find("windows")->as_array().size(), 2u);
  // The surviving windows are the most recent ones.
  EXPECT_EQ(doc.find("windows")->as_array()[0].find("index")->as_int(), 1);
  ASSERT_EQ(doc.find("events")->as_array().size(), 4u);
  EXPECT_EQ(doc.find("events")->as_array()[3].find("seq")->as_int(), 10);

  // The dump file carries the same document.
  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::ostringstream file_text;
  file_text << in.rdbuf();
  EXPECT_EQ(exp::json::to_string(exp::json::parse(file_text.str())),
            exp::json::to_string(doc));
  std::remove(dump_path.c_str());
}

TEST(FlightRecorder, TeeFansOutWithPerChildSeverityFilters) {
  auto ring_all = std::make_shared<obs::ring_sink>(16);
  auto ring_errors = std::make_shared<obs::ring_sink>(16);
  ring_errors->set_min_severity(obs::severity::error);
  obs::tee_sink tee({ring_all, nullptr, ring_errors});

  tee.consume(make_event(obs::severity::info, 1));
  tee.consume(make_event(obs::severity::error, 2));
  EXPECT_EQ(ring_all->events().size(), 2u);
  ASSERT_EQ(ring_errors->events().size(), 1u);
  EXPECT_EQ(ring_errors->events()[0].seq, 2u);
  // Filtered events never count as drops.
  EXPECT_EQ(ring_errors->dropped(), 0u);
}

}  // namespace
}  // namespace wsan
