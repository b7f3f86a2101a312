#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "flow/flow_generator.h"
#include "flow/flow_io.h"
#include "graph/comm_graph.h"
#include "topo/testbeds.h"
#include "tsch/render.h"

namespace wsan {
namespace {

// ------------------------------------------------------------ flow io --

flow::flow_set sample_set() {
  const auto t = topo::make_wustl();
  const auto comm = graph::build_communication_graph(t, phy::channels(4));
  flow::flow_set_params params;
  params.num_flows = 8;
  params.type = flow::traffic_type::centralized;
  params.period_min_exp = -1;
  params.period_max_exp = 1;
  rng gen(5);
  return flow::generate_flow_set(comm, params, gen);
}

TEST(FlowIo, RoundTripsGeneratedSets) {
  const auto original = sample_set();
  std::stringstream buffer;
  flow::save_flow_set(original, buffer);
  const auto loaded = flow::load_flow_set(buffer);

  ASSERT_EQ(loaded.flows.size(), original.flows.size());
  EXPECT_EQ(loaded.access_points, original.access_points);
  for (std::size_t i = 0; i < original.flows.size(); ++i) {
    const auto& a = original.flows[i];
    const auto& b = loaded.flows[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.destination, b.destination);
    EXPECT_EQ(a.period, b.period);
    EXPECT_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.uplink_links, b.uplink_links);
    EXPECT_EQ(a.route, b.route);
  }
}

TEST(FlowIo, RejectsMalformedInput) {
  std::stringstream no_header("flow 0 1 2 100 80 peer-to-peer 1 1 1 2\n");
  EXPECT_THROW(flow::load_flow_set(no_header), std::invalid_argument);

  std::stringstream bad_type(
      "flowset 1\nflow 0 1 2 100 80 bogus 1 1 1 2\n");
  EXPECT_THROW(flow::load_flow_set(bad_type), std::invalid_argument);

  std::stringstream truncated_route(
      "flowset 1\nflow 0 1 2 100 80 peer-to-peer 1 2 1 2\n");
  EXPECT_THROW(flow::load_flow_set(truncated_route),
               std::invalid_argument);

  std::stringstream trailing_route(
      "flowset 1\nflow 0 1 2 100 80 peer-to-peer 1 1 1 2x\n");
  EXPECT_THROW(flow::load_flow_set(trailing_route), std::invalid_argument);

  std::stringstream count_mismatch("flowset 2\n");
  EXPECT_THROW(flow::load_flow_set(count_mismatch),
               std::invalid_argument);

  // Structural invariants are re-validated on load.
  std::stringstream bad_flow(
      "flowset 1\nflow 0 1 2 100 200 peer-to-peer 1 1 1 2\n");
  EXPECT_THROW(flow::load_flow_set(bad_flow), std::invalid_argument);
}

TEST(FlowIo, FileRoundTrip) {
  const auto original = sample_set();
  const std::string path = "/tmp/wsan_flow_io_test.flows";
  flow::save_flow_set_file(original, path);
  const auto loaded = flow::load_flow_set_file(path);
  EXPECT_EQ(loaded.flows.size(), original.flows.size());
}

// ------------------------------------------------------------- render --

tsch::transmission tx(node_id s, node_id r, int attempt = 0) {
  tsch::transmission t;
  t.flow = 0;
  t.sender = s;
  t.receiver = r;
  t.attempt = attempt;
  return t;
}

TEST(Render, DrawsCellsAndMarksRetries) {
  tsch::schedule sched(10, 2);
  sched.add(tx(1, 2), 0, 0);
  sched.add(tx(1, 2, 1), 1, 0);
  sched.add(tx(5, 6), 0, 1);

  const auto text = tsch::render_schedule(sched);
  EXPECT_NE(text.find("1->2"), std::string::npos);
  EXPECT_NE(text.find("1->2*"), std::string::npos);  // retry marker
  EXPECT_NE(text.find("5->6"), std::string::npos);
  EXPECT_NE(text.find("off 0"), std::string::npos);
  EXPECT_NE(text.find("off 1"), std::string::npos);
}

TEST(Render, ReuseCellsListAllTransmissions) {
  tsch::schedule sched(4, 1);
  sched.add(tx(1, 2), 0, 0);
  sched.add(tx(8, 9), 0, 0);
  const auto text = tsch::render_schedule(sched);
  EXPECT_NE(text.find("1->2|8->9"), std::string::npos);
}

TEST(Render, SkipsEmptySlotsByDefault) {
  tsch::schedule sched(100, 1);
  sched.add(tx(1, 2), 0, 0);
  sched.add(tx(3, 4), 50, 0);
  tsch::render_options opts;
  opts.num_slots = 100;
  const auto text = tsch::render_schedule(sched, opts);
  EXPECT_NE(text.find("50"), std::string::npos);
  // Column for slot 17 (empty) must not exist.
  EXPECT_EQ(text.find("17"), std::string::npos);
}

TEST(Render, EmptyWindowSaysSo) {
  tsch::schedule sched(10, 1);
  const auto text = tsch::render_schedule(sched);
  EXPECT_NE(text.find("no transmissions"), std::string::npos);
}

TEST(Render, RejectsBadOptions) {
  tsch::schedule sched(10, 1);
  tsch::render_options opts;
  opts.first_slot = 99;
  EXPECT_THROW(tsch::render_schedule(sched, opts), std::invalid_argument);
  opts.first_slot = 0;
  opts.num_slots = 0;
  EXPECT_THROW(tsch::render_schedule(sched, opts), std::invalid_argument);
}

}  // namespace
}  // namespace wsan
