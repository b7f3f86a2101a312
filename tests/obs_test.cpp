// Observability subsystem tests (src/obs + exp/obs_io):
//
//  * registry merges per-thread shards order-independently — two
//    identical 8-thread runs produce identical snapshots;
//  * registration is idempotent per (name, kind) and loud across kinds;
//  * spans nest, track per-thread depth, and time monotonically
//    (an enclosing span accounts at least its children's time);
//  * events round-trip through the JSONL sink with monotonic sequence
//    numbers; the ring sink keeps the newest window and counts drops;
//  * the science payload of a bench report is bit-identical whether
//    observability ran or not, and schedulable-ratio metrics are
//    bit-identical at --jobs 1, 2 and 8.
//
// Recording tests skip when the library is built with WSAN_OBS=OFF;
// sink/serialisation tests run in both configurations.
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "exp/aggregator.h"
#include "exp/json.h"
#include "exp/obs_io.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wsan {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_event_sink(nullptr);
    obs::reset_metrics();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::set_event_sink(nullptr);
    obs::reset_metrics();
  }
};

#define SKIP_IF_COMPILED_OUT()                                       \
  if (!obs::k_compiled_in)                                           \
  GTEST_SKIP() << "observability compiled out (WSAN_OBS=OFF)"

TEST_F(ObsTest, RecordsCountersGaugesAndHistograms) {
  SKIP_IF_COMPILED_OUT();
  static const obs::counter c = obs::register_counter("test.basic.count");
  c.add();
  c.add(41);
  obs::add_counter("test.basic.cold", 7);
  static const obs::histogram h =
      obs::register_histogram("test.basic.hist", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(2.0);   // bucket 1 (inclusive upper bound)
  h.observe(3.0);   // bucket 2
  h.observe(99.0);  // overflow

  const auto snap = obs::take_snapshot();
  EXPECT_EQ(snap.counters.at("test.basic.count"), 42u);
  EXPECT_EQ(snap.counters.at("test.basic.cold"), 7u);
  const auto& hist = snap.histograms.at("test.basic.hist");
  EXPECT_EQ(hist.upper_bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(hist.counts, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(hist.total(), 4u);
}

TEST_F(ObsTest, DisabledRecordingIsDropped) {
  SKIP_IF_COMPILED_OUT();
  static const obs::counter c =
      obs::register_counter("test.disabled.count");
  obs::set_enabled(false);
  c.add(5);
  const auto snap = obs::take_snapshot();
  const auto it = snap.counters.find("test.disabled.count");
  ASSERT_NE(it, snap.counters.end());  // registered names always appear
  EXPECT_EQ(it->second, 0u);
}

TEST_F(ObsTest, RegistrationIsIdempotentAndKindCollisionsThrow) {
  SKIP_IF_COMPILED_OUT();
  const auto a = obs::register_counter("test.intern.name");
  const auto b = obs::register_counter("test.intern.name");
  a.add();
  b.add();
  EXPECT_EQ(obs::take_snapshot().counters.at("test.intern.name"), 2u);
  EXPECT_THROW(obs::register_histogram("test.intern.name", {1.0}),
               std::exception);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsHandles) {
  SKIP_IF_COMPILED_OUT();
  static const obs::counter c = obs::register_counter("test.reset.count");
  c.add(3);
  obs::reset_metrics();
  EXPECT_EQ(obs::take_snapshot().counters.at("test.reset.count"), 0u);
  c.add(2);  // the pre-reset handle still points at the live slot
  EXPECT_EQ(obs::take_snapshot().counters.at("test.reset.count"), 2u);
}

TEST_F(ObsTest, EightThreadMergeIsOrderIndependent) {
  SKIP_IF_COMPILED_OUT();
  const auto run_once = [] {
    obs::reset_metrics();
    static const obs::counter c =
        obs::register_counter("test.merge.count");
    static const obs::histogram h =
        obs::register_histogram("test.merge.hist", {10.0, 100.0});
    std::vector<std::thread> workers;
    for (int t = 0; t < 8; ++t) {
      workers.emplace_back([t] {
        for (int i = 0; i < 1000; ++i) {
          c.add(static_cast<std::uint64_t>(t + 1));
          h.observe(static_cast<double>(i % 150));
        }
      });
    }
    for (auto& w : workers) w.join();
    return obs::take_snapshot();
  };
  const auto first = run_once();
  const auto second = run_once();
  // 1000 * (1+2+...+8)
  EXPECT_EQ(first.counters.at("test.merge.count"), 36000u);
  EXPECT_EQ(first.counters, second.counters);
  ASSERT_EQ(first.histograms.size(), second.histograms.size());
  for (const auto& [name, hist] : first.histograms) {
    const auto& other = second.histograms.at(name);
    EXPECT_EQ(hist.upper_bounds, other.upper_bounds) << name;
    EXPECT_EQ(hist.counts, other.counts) << name;
  }
}

TEST_F(ObsTest, SpansNestAndTimeMonotonically) {
  SKIP_IF_COMPILED_OUT();
  EXPECT_EQ(obs::span_depth(), 0);
  for (int i = 0; i < 3; ++i) {
    OBS_SPAN("test.span.outer");
    EXPECT_EQ(obs::span_depth(), 1);
    {
      OBS_SPAN("test.span.inner");
      EXPECT_EQ(obs::span_depth(), 2);
      volatile int sink = 0;
      for (int j = 0; j < 10000; ++j) sink = sink + j;
    }
    EXPECT_EQ(obs::span_depth(), 1);
  }
  EXPECT_EQ(obs::span_depth(), 0);

  const auto snap = obs::take_snapshot();
  const auto& outer = snap.spans.at("test.span.outer");
  const auto& inner = snap.spans.at("test.span.inner");
  EXPECT_EQ(outer.count, 3u);
  EXPECT_EQ(inner.count, 3u);
  // The outer scope strictly encloses the inner one, so its steady-clock
  // total can never be smaller.
  EXPECT_GE(outer.total_ns, inner.total_ns);
}

TEST_F(ObsTest, EventsRoundTripThroughJsonl) {
  SKIP_IF_COMPILED_OUT();
  std::ostringstream out;
  obs::set_event_sink(std::make_shared<obs::jsonl_sink>(out));
  ASSERT_TRUE(obs::events_enabled());
  obs::emit(obs::severity::info, "core", "flow_admitted",
            {{"flow", 3}, {"rho", 2}, {"ok", true}});
  obs::emit(obs::severity::warning, "manager", "flow_shed",
            {{"flow", 7}, {"note", "priority"}});
  obs::set_event_sink(nullptr);
  EXPECT_FALSE(obs::events_enabled());

  std::istringstream lines(out.str());
  std::string line;
  std::vector<exp::json::value> parsed;
  while (std::getline(lines, line)) parsed.push_back(exp::json::parse(line));
  ASSERT_EQ(parsed.size(), 2u);
  const auto& first = parsed[0];
  EXPECT_EQ(first.find("severity")->as_string(), "info");
  EXPECT_EQ(first.find("component")->as_string(), "core");
  EXPECT_EQ(first.find("event")->as_string(), "flow_admitted");
  EXPECT_EQ(first.find("fields")->find("flow")->as_int(), 3);
  EXPECT_EQ(first.find("fields")->find("ok")->as_int(), 1);
  const auto& second = parsed[1];
  EXPECT_EQ(second.find("severity")->as_string(), "warning");
  EXPECT_EQ(second.find("fields")->find("note")->as_string(), "priority");
  // Process-wide sequence numbers are strictly monotonic.
  EXPECT_GT(second.find("seq")->as_int(), first.find("seq")->as_int());
}

TEST(ObsSinks, RingKeepsNewestWindowAndCountsDrops) {
  // Direct consume, no global state: runs in WSAN_OBS=OFF builds too.
  obs::ring_sink ring(4);
  for (int i = 1; i <= 10; ++i) {
    obs::event ev;
    ev.sev = obs::severity::info;
    ev.component = "test";
    ev.name = "tick";
    ev.seq = static_cast<std::uint64_t>(i);
    ring.consume(ev);
  }
  EXPECT_EQ(ring.dropped(), 6u);
  const auto kept = ring.events();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().seq, 7u);  // oldest survivor
  EXPECT_EQ(kept.back().seq, 10u);  // newest
}

TEST(ObsSinks, JsonlEscapesStringsSafely) {
  obs::event ev;
  ev.sev = obs::severity::error;
  ev.component = "test";
  ev.name = "escape";
  ev.fields.push_back({"text", "quote\" slash\\ tab\t"});
  // Control characters, and doubles that six fixed decimals would
  // flatten: every field must read back as the value it holds.
  ev.fields.push_back({"controls", "cr\r tab\t soh\x01"});
  ev.fields.push_back({"tiny", 1e-9});
  ev.fields.push_back({"tenth", 0.1});
  ev.seq = 1;
  const auto line = obs::to_jsonl(ev);
  const auto doc = exp::json::parse(line);
  const auto* fields = doc.find("fields");
  EXPECT_EQ(fields->find("text")->as_string(), "quote\" slash\\ tab\t");
  EXPECT_EQ(fields->find("controls")->as_string(), "cr\r tab\t soh\x01");
  EXPECT_EQ(fields->find("tiny")->as_double(), 1e-9);
  EXPECT_EQ(fields->find("tenth")->as_double(), 0.1);
}

TEST(ObsSinks, ExponentialBoundsGenerateGeometricSeries) {
  EXPECT_EQ(obs::exponential_bounds(1.0, 4.0, 4),
            (std::vector<double>{1.0, 4.0, 16.0, 64.0}));
  EXPECT_EQ(obs::exponential_bounds(0.5, 2.0, 3),
            (std::vector<double>{0.5, 1.0, 2.0}));
  EXPECT_EQ(obs::exponential_bounds(1.0, 10.0, 1),
            (std::vector<double>{1.0}));
}

TEST_F(ObsTest, ExponentialHistogramAssignsBoundariesInclusively) {
  SKIP_IF_COMPILED_OUT();
  static const obs::histogram h = obs::register_histogram(
      "test.expo.hist", obs::exponential_bounds(1.0, 4.0, 3));
  h.observe(1.0);   // bucket 0: upper bounds are inclusive
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 1
  h.observe(16.0);  // bucket 2
  h.observe(16.5);  // overflow
  // Hold the snapshot: a reference into the temporary would dangle.
  const auto snap = obs::take_snapshot();
  const auto& hist = snap.histograms.at("test.expo.hist");
  EXPECT_EQ(hist.upper_bounds, (std::vector<double>{1.0, 4.0, 16.0}));
  EXPECT_EQ(hist.counts, (std::vector<std::uint64_t>{1, 2, 1, 1}));
}

TEST(ObsSinks, JsonlSinkThrowsOnUnopenablePath) {
  EXPECT_THROW(obs::jsonl_sink("/nonexistent-dir-wsan/trace.jsonl"),
               std::invalid_argument);
}

TEST(ObsSinks, JsonlSinkCountsWriteErrorsInsteadOfFailingSilently) {
  // /dev/full accepts open() but fails every flushed write with ENOSPC
  // — the exact failure mode the drop counter exists for. Skip where
  // the device is missing or permissive (non-Linux).
  {
    std::ofstream probe("/dev/full");
    if (!probe.is_open()) GTEST_SKIP() << "/dev/full unavailable";
    probe << 'x' << std::flush;
    if (probe.good()) GTEST_SKIP() << "/dev/full does not fail writes";
  }
  obs::jsonl_sink sink("/dev/full");
  obs::event ev;
  ev.sev = obs::severity::error;
  ev.component = "test";
  ev.name = "lost";
  sink.consume(ev);
  sink.consume(ev);
  EXPECT_EQ(sink.write_errors(), 2u);
}

TEST(ObsSinks, MinSeverityFiltersBeforeBufferingOrWriting) {
  // jsonl_sink: filtered events never reach the stream.
  std::ostringstream os;
  obs::jsonl_sink jsonl(os);
  jsonl.set_min_severity(obs::severity::warning);
  obs::event ev;
  ev.component = "test";
  ev.name = "tick";
  ev.sev = obs::severity::info;
  jsonl.consume(ev);
  EXPECT_TRUE(os.str().empty());
  ev.sev = obs::severity::warning;
  jsonl.consume(ev);
  EXPECT_NE(os.str().find("\"tick\""), std::string::npos);
  EXPECT_EQ(jsonl.write_errors(), 0u);

  // ring_sink: filtered events are not buffered and do NOT count as
  // drops — dropped() keeps meaning "history lost to capacity".
  obs::ring_sink ring(2);
  ring.set_min_severity(obs::severity::error);
  ev.sev = obs::severity::info;
  for (int i = 0; i < 10; ++i) ring.consume(ev);
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.dropped(), 0u);
  ev.sev = obs::severity::error;
  ring.consume(ev);
  EXPECT_EQ(ring.events().size(), 1u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST_F(ObsTest, ScheduleMetricsAreBitIdenticalAcrossJobs) {
  SKIP_IF_COMPILED_OUT();
  const auto env = bench::make_env("wustl", 4);
  flow::flow_set_params fsp;
  fsp.type = flow::traffic_type::peer_to_peer;
  fsp.num_flows = 10;
  // A schedulable-ratio point on the sweep path of Figures 1-3.
  const auto run_at = [&](int jobs) {
    obs::reset_metrics();
    exp::trial_runner(jobs).run_point<exp::aggregator>(
        /*experiment_seed=*/7, /*point_index=*/0, /*trials=*/12,
        [&](int, rng& gen, exp::aggregator& local) {
          local.add_count(
              "rc", bench::run_ratio_trial(env, fsp, 2, gen).rc_ok ? 1 : 0);
        });
    return obs::take_snapshot();
  };
  const auto serial = run_at(1);
  EXPECT_FALSE(serial.counters.empty());
  EXPECT_GT(serial.counters.at("core.sched.runs"), 0u);
  for (const int jobs : {2, 8}) {
    const auto parallel = run_at(jobs);
    EXPECT_EQ(serial.counters, parallel.counters) << "jobs=" << jobs;
    ASSERT_EQ(serial.histograms.size(), parallel.histograms.size());
    for (const auto& [name, hist] : serial.histograms)
      EXPECT_EQ(hist.counts, parallel.histograms.at(name).counts)
          << name << " jobs=" << jobs;
    // Span counts are deterministic; span total_ns is a measurement.
    ASSERT_EQ(serial.spans.size(), parallel.spans.size());
    for (const auto& [name, span] : serial.spans)
      EXPECT_EQ(span.count, parallel.spans.at(name).count)
          << name << " jobs=" << jobs;
  }
}

TEST_F(ObsTest, SciencePayloadIsIdenticalWithAndWithoutObservability) {
  SKIP_IF_COMPILED_OUT();
  obs::add_counter("test.payload.count", 3);
  {
    OBS_SPAN("test.payload.span");
  }
  const auto snap = obs::take_snapshot();

  exp::figure_report report;
  report.figure = "fig1";
  report.title = "t";
  report.seed = 1;
  report.jobs = 1;
  report.trials = 1;
  report.wall_seconds = 1.5;
  const std::vector<exp::figure_report> reports{report};
  const auto with_obs =
      exp::to_json(reports, exp::observability_section(snap));
  const auto without_obs = exp::to_json(reports);
  EXPECT_NE(exp::json::to_string(with_obs),
            exp::json::to_string(without_obs));
  EXPECT_EQ(exp::json::to_string(exp::science_payload(with_obs)),
            exp::json::to_string(exp::science_payload(without_obs)));
  // Both full documents remain schema-valid.
  EXPECT_TRUE(exp::validate_reports_json(with_obs).empty());
  EXPECT_TRUE(exp::validate_reports_json(without_obs).empty());
}

TEST_F(ObsTest, SnapshotDocumentPrettyPrintsAndDeclaresSchema) {
  SKIP_IF_COMPILED_OUT();
  obs::add_counter("test.doc.count", 2);
  const auto doc = exp::snapshot_to_json(obs::take_snapshot());
  EXPECT_EQ(doc.find("schema")->as_string(), "wsan-obs-snapshot/1");
  std::ostringstream os;
  EXPECT_TRUE(exp::print_obs_document(doc, os));
  EXPECT_NE(os.str().find("test.doc.count"), std::string::npos);
  // A report container with a null section prints a note, not tables.
  std::ostringstream null_os;
  EXPECT_FALSE(exp::print_obs_document(
      exp::to_json(std::vector<exp::figure_report>{}), null_os));
}

}  // namespace
}  // namespace wsan
