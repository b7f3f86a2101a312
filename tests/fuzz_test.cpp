// Robustness "fuzz" tests: hostile or random inputs must produce clean
// std::invalid_argument / std::logic_error failures (or valid results),
// never crashes, hangs, or silent corruption.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "exp/json.h"
#include "exp/obs_io.h"
#include "flow/flow_io.h"
#include "graph/hop_matrix.h"
#include "sim/faults.h"
#include "sim/simulator.h"
#include "stats/ks_test.h"
#include "stats/mann_whitney.h"
#include "stats/summary.h"
#include "topo/topology_io.h"
#include "tsch/schedule_io.h"
#include "tsch/validate.h"

namespace wsan {
namespace {

/// Random printable garbage, sometimes resembling real records.
std::string random_document(rng& gen) {
  static const char* fragments[] = {
      "schedule", "tx", "flowset", "flow", "accesspoint", "topology",
      "node", "rssi", "params", "-1", "0", "1", "999999999",
      "99999999999999999999", "nan", "inf", "-inf", "1e308", "#",
      "peer-to-peer", "centralized", "bogus", "\t", "  ",
      "faultplan", "crash", "linkfail", "suppress",
  };
  std::ostringstream os;
  const int lines = static_cast<int>(gen.uniform_int(0, 12));
  for (int l = 0; l < lines; ++l) {
    const int tokens = static_cast<int>(gen.uniform_int(0, 10));
    for (int t = 0; t < tokens; ++t) {
      os << fragments[gen.uniform_int(
                0, static_cast<std::int64_t>(std::size(fragments)) - 1)]
         << ' ';
    }
    os << '\n';
  }
  return os.str();
}

template <typename Loader>
void expect_clean_failure_or_success(Loader loader, int seed_base,
                                     int iterations) {
  for (int i = 0; i < iterations; ++i) {
    rng gen(static_cast<std::uint64_t>(seed_base + i));
    std::stringstream in(random_document(gen));
    try {
      loader(in);
    } catch (const std::invalid_argument&) {
      // expected for malformed input
    } catch (const std::logic_error&) {
      // acceptable: internal invariant caught the nonsense
    }
    // Anything else (segfault, uncaught bad_alloc, infinite loop) fails
    // the test by crashing or timing out.
  }
}

TEST(Fuzz, ScheduleLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return tsch::load_schedule(is); }, 1000,
      300);
}

TEST(Fuzz, FlowSetLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return flow::load_flow_set(is); }, 2000,
      300);
}

TEST(Fuzz, TopologyLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return topo::load_topology(is); }, 3000,
      300);
}

TEST(Fuzz, FaultPlanLoaderSurvivesGarbage) {
  expect_clean_failure_or_success(
      [](std::istream& is) { return sim::load_fault_plan(is); }, 4000,
      300);
}

// ------------------------------------- mutated committed documents --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// One to eight random edits of a valid document: flipped bytes, erased
/// or duplicated spans, truncation, inserted fragments aimed at the
/// JSON grammar's edges (unbalanced brackets, surrogate escapes, non-RFC
/// numbers, control characters, deep nesting), and numbers swapped for
/// extreme ones, which keep the document valid.
std::string mutate(std::string doc, rng& gen) {
  static const std::string numbers[] = {
      "1.7e308", "-1.7e308", "4.9e-324", "-0", "0", "1e20",
      "9223372036854775807", "-9223372036854775808"};
  static const std::string fragments[] = {
      "[", "]", "{", "}", "\"", ",", ":", "\\", "\\u", "\\ud800",
      "\\udc00", "\\ud83d\\ude00", "\\ud800\\u0041", "1.", "01", "-",
      "+1", "1e", ".5", "1e999", "-0", "-0.0", "99999999999999999999",
      "null", "true", "\x01", "\x7f", "\xff", std::string(40, '['),
      std::string(600, '['), std::string(600, '{')};
  const int edits = static_cast<int>(gen.uniform_int(1, 8));
  for (int e = 0; e < edits; ++e) {
    const auto pos = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(doc.size())));
    const auto len = static_cast<std::size_t>(gen.uniform_int(1, 16));
    switch (gen.uniform_int(0, 5)) {
      case 0:
        if (pos < doc.size())
          doc[pos] = static_cast<char>(gen.uniform_int(0, 255));
        break;
      case 1:
        doc.erase(pos, len);
        break;
      case 2:
        doc.insert(pos, fragments[gen.uniform_int(
                            0, static_cast<std::int64_t>(
                                   std::size(fragments)) - 1)]);
        break;
      case 3:
        doc.insert(pos, doc.substr(static_cast<std::size_t>(gen.uniform_int(
                                       0, static_cast<std::int64_t>(
                                              doc.size()))),
                                   len));
        break;
      case 4: {
        const auto number = doc.find_first_of("-0123456789", pos);
        if (number == std::string::npos) break;
        const auto end = doc.find_first_not_of("-+.eE0123456789", number);
        doc.replace(number,
                    (end == std::string::npos ? doc.size() : end) - number,
                    numbers[gen.uniform_int(
                        0, static_cast<std::int64_t>(std::size(numbers)) -
                               1)]);
        break;
      }
      default:
        doc.resize(pos);
    }
  }
  return doc;
}

/// Feeds `iterations` mutants of `doc` to `reader`: each must either be
/// read or fail with std::invalid_argument (std::logic_error for a
/// reader invariant). Returns how many were read.
template <typename Reader>
int read_mutants(const std::string& doc, std::uint64_t seed, int iterations,
                 Reader reader) {
  int read = 0;
  for (int i = 0; i < iterations; ++i) {
    rng gen(seed + static_cast<std::uint64_t>(i));
    const std::string mutant = mutate(doc, gen);
    try {
      reader(mutant);
      ++read;
    } catch (const std::invalid_argument&) {
      // expected for malformed input
    } catch (const std::logic_error&) {
      // acceptable: an invariant caught the nonsense
    }
  }
  return read;
}

TEST(Fuzz, JsonParserSurvivesMutatedBaselines) {
  const std::string dir = WSAN_BASELINE_DIR;
  std::uint64_t seed = 6000;
  for (const char* name : {"/fig6_smoke.json", "/fleet_reuse_smoke.json",
                           "/sim_throughput_smoke.json",
                           "/fig8_smoke.json"}) {
    const std::string doc = read_file(dir + name);
    ASSERT_TRUE(exp::json::parse(doc).is_object()) << name;
    // Whatever parses also survives a write/parse round trip unchanged.
    const int read = read_mutants(doc, seed, 700, [](const std::string& m) {
      const std::string text = exp::json::to_string(exp::json::parse(m));
      EXPECT_EQ(exp::json::to_string(exp::json::parse(text)), text);
    });
    EXPECT_GT(read, 0) << name;  // some mutants stay valid JSON
    seed += 1000;
  }
}

TEST(Fuzz, SeriesReaderSurvivesMutatedSeries) {
  const std::string doc =
      read_file(std::string(WSAN_TEST_DATA_DIR) + "/series_fixture.jsonl");
  {
    std::istringstream in(doc);
    ASSERT_EQ(exp::series_from_jsonl(in).windows.size(), 3u);
  }
  read_mutants(doc, 9000, 800, [](const std::string& m) {
    std::istringstream in(m);
    const auto series = exp::series_from_jsonl(in);
    std::ostringstream sink;
    exp::print_series_table(series, sink);
  });
}

TEST(Fuzz, FlightDumpReaderSurvivesMutatedDumps) {
  const std::string doc =
      read_file(std::string(WSAN_TEST_DATA_DIR) + "/flight_fixture.json");
  {
    std::ostringstream sink;
    ASSERT_TRUE(exp::print_flight_dump(exp::json::parse(doc), sink));
  }
  read_mutants(doc, 11000, 800, [](const std::string& m) {
    std::ostringstream sink;
    exp::print_flight_dump(exp::json::parse(m), sink);
  });
}

TEST(Fuzz, FaultPlanRoundTripsRandomValidPlans) {
  for (int trial = 0; trial < 200; ++trial) {
    rng gen(static_cast<std::uint64_t>(5000 + trial));
    sim::fault_plan plan;
    const auto interval = [&](int& start, int& end) {
      start = static_cast<int>(gen.uniform_int(0, 100));
      end = gen.bernoulli(0.3)
                ? -1
                : start + 1 + static_cast<int>(gen.uniform_int(0, 50));
    };
    const int crashes = static_cast<int>(gen.uniform_int(0, 4));
    for (int i = 0; i < crashes; ++i) {
      sim::node_crash c;
      c.node = static_cast<node_id>(gen.uniform_int(0, 60));
      interval(c.start_run, c.restart_run);
      plan.crashes.push_back(c);
    }
    const int fails = static_cast<int>(gen.uniform_int(0, 4));
    for (int i = 0; i < fails; ++i) {
      sim::link_failure l;
      l.sender = static_cast<node_id>(gen.uniform_int(0, 60));
      l.receiver = static_cast<node_id>(gen.uniform_int(0, 60));
      if (l.sender == l.receiver) continue;
      interval(l.start_run, l.end_run);
      plan.link_failures.push_back(l);
    }
    const int mutes = static_cast<int>(gen.uniform_int(0, 4));
    for (int i = 0; i < mutes; ++i) {
      sim::report_suppression s;
      s.node = static_cast<node_id>(gen.uniform_int(0, 60));
      interval(s.start_run, s.end_run);
      plan.suppressions.push_back(s);
    }
    std::stringstream ss;
    sim::save_fault_plan(plan, ss);
    EXPECT_EQ(sim::load_fault_plan(ss), plan);
  }
}

TEST(Fuzz, AllNodesCrashedDeliversNothing) {
  // The harshest plan: every node dead from run 0. No packet is ever
  // delivered and nobody reports anything.
  topo::topology t("pair");
  t.add_node({0.0, 0.0, 0});
  t.add_node({10.0, 0.0, 0});
  const auto channels = phy::channels(4);
  for (channel_t ch : channels) {
    t.set_prr(0, 1, ch, 1.0);
    t.set_prr(1, 0, ch, 1.0);
  }
  flow::flow f;
  f.id = 0;
  f.source = 0;
  f.destination = 1;
  f.period = 10;
  f.deadline = 10;
  f.route = {flow::link{0, 1}};
  f.uplink_links = 1;
  tsch::schedule sched(10, 4);
  tsch::transmission tx;
  tx.flow = 0;
  tx.instance = 0;
  tx.link_index = 0;
  tx.attempt = 0;
  tx.sender = 0;
  tx.receiver = 1;
  sched.add(tx, 0, 0);

  sim::sim_config config;
  config.runs = 20;
  config.faults.crashes.push_back(sim::node_crash{0, 0, -1});
  config.faults.crashes.push_back(sim::node_crash{1, 0, -1});
  const auto result = sim::run_simulation(t, sched, {f}, channels, config);
  EXPECT_EQ(result.instances_delivered, 0);
  EXPECT_DOUBLE_EQ(result.flow_pdr[0], 0.0);
  EXPECT_TRUE(result.links.empty());
}

TEST(Fuzz, ValidatorSurvivesRandomSchedules) {
  // Random transmissions thrown into a schedule: the validator must
  // return violations, never crash.
  rng gen(4);
  graph::graph g(20);
  for (int e = 0; e < 30; ++e) {
    const auto u = static_cast<node_id>(gen.uniform_int(0, 19));
    const auto v = static_cast<node_id>(gen.uniform_int(0, 19));
    if (u != v) g.add_edge(u, v);
  }
  const graph::hop_matrix hops(g);

  flow::flow f;
  f.id = 0;
  f.source = 0;
  f.destination = 1;
  f.period = 50;
  f.deadline = 40;
  f.route = {flow::link{0, 1}};
  f.uplink_links = 1;

  for (int trial = 0; trial < 100; ++trial) {
    tsch::schedule sched(50, 3);
    const int placements = static_cast<int>(gen.uniform_int(0, 30));
    for (int p = 0; p < placements; ++p) {
      tsch::transmission tx;
      tx.flow = static_cast<flow_id>(gen.uniform_int(0, 2));
      tx.instance = static_cast<int>(gen.uniform_int(0, 3));
      tx.link_index = static_cast<int>(gen.uniform_int(0, 4));
      tx.attempt = static_cast<int>(gen.uniform_int(0, 2));
      tx.sender = static_cast<node_id>(gen.uniform_int(0, 19));
      tx.receiver = static_cast<node_id>(gen.uniform_int(0, 19));
      if (tx.sender == tx.receiver) continue;
      sched.add(tx, static_cast<slot_t>(gen.uniform_int(0, 49)),
                static_cast<offset_t>(gen.uniform_int(0, 2)));
    }
    const auto result = tsch::validate_schedule(sched, {f}, hops);
    // A random schedule essentially never satisfies the invariants;
    // what matters is a structured answer.
    EXPECT_EQ(result.ok, result.violations.empty());
  }
}

TEST(Fuzz, StatsSurviveDegenerateSamples) {
  rng gen(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int n1 = static_cast<int>(gen.uniform_int(1, 6));
    const int n2 = static_cast<int>(gen.uniform_int(1, 6));
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < n1; ++i)
      a.push_back(gen.bernoulli(0.5) ? 0.0 : 1.0);  // heavy ties
    for (int i = 0; i < n2; ++i)
      b.push_back(gen.bernoulli(0.5) ? 0.0 : 1.0);
    const auto ks = stats::ks_test(a, b);
    EXPECT_GE(ks.p_value, 0.0);
    EXPECT_LE(ks.p_value, 1.0);
    const auto mw = stats::mann_whitney_test(a, b);
    EXPECT_GE(mw.p_value, 0.0);
    EXPECT_LE(mw.p_value, 1.0);
    const auto box = stats::make_box_stats(a);
    EXPECT_LE(box.min, box.max);
  }
}

}  // namespace
}  // namespace wsan
