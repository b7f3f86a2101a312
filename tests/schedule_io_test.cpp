#include <gtest/gtest.h>

#include <sstream>

#include "tsch/schedule_io.h"

namespace wsan::tsch {
namespace {

transmission make_tx(flow_id f, int instance, int link_index, int attempt,
                     node_id sender, node_id receiver) {
  transmission tx;
  tx.flow = f;
  tx.instance = instance;
  tx.link_index = link_index;
  tx.attempt = attempt;
  tx.sender = sender;
  tx.receiver = receiver;
  return tx;
}

TEST(ScheduleIo, RoundTripsPlacements) {
  schedule original(50, 4);
  original.add(make_tx(0, 0, 0, 0, 1, 2), 0, 0);
  original.add(make_tx(0, 0, 0, 1, 1, 2), 1, 0);
  original.add(make_tx(1, 2, 3, 0, 7, 8), 30, 3);
  original.add(make_tx(2, 0, 0, 0, 4, 5), 30, 3);  // shares a cell

  std::stringstream buffer;
  save_schedule(original, buffer);
  const auto loaded = load_schedule(buffer);

  ASSERT_EQ(loaded.num_slots(), original.num_slots());
  ASSERT_EQ(loaded.num_offsets(), original.num_offsets());
  ASSERT_EQ(loaded.num_transmissions(), original.num_transmissions());
  for (std::size_t i = 0; i < original.placements().size(); ++i) {
    EXPECT_EQ(loaded.placements()[i].tx, original.placements()[i].tx);
    EXPECT_EQ(loaded.placements()[i].slot, original.placements()[i].slot);
    EXPECT_EQ(loaded.placements()[i].offset,
              original.placements()[i].offset);
  }
  EXPECT_EQ(loaded.cell(30, 3).size(), 2u);
}

TEST(ScheduleIo, EmptyScheduleRoundTrips) {
  schedule original(10, 2);
  std::stringstream buffer;
  save_schedule(original, buffer);
  const auto loaded = load_schedule(buffer);
  EXPECT_EQ(loaded.num_slots(), 10);
  EXPECT_EQ(loaded.num_offsets(), 2);
  EXPECT_EQ(loaded.num_transmissions(), 0u);
}

TEST(ScheduleIo, CommentsAndBlankLinesAreIgnored) {
  std::stringstream in(
      "# generated by the network manager\n"
      "\n"
      "schedule 20 2\n"
      "# flow 0\n"
      "tx 0 0 0 0 1 2 5 1\n");
  const auto loaded = load_schedule(in);
  EXPECT_EQ(loaded.cell(5, 1).size(), 1u);
}

TEST(ScheduleIo, RejectsMalformedInput) {
  std::stringstream no_header("tx 0 0 0 0 1 2 5 1\n");
  EXPECT_THROW(load_schedule(no_header), std::invalid_argument);

  std::stringstream bad_record("schedule 10 2\ntx 0 0 0\n");
  EXPECT_THROW(load_schedule(bad_record), std::invalid_argument);

  std::stringstream trailing_header("schedule 4 2 9\n");
  EXPECT_THROW(load_schedule(trailing_header), std::invalid_argument);

  std::stringstream trailing_field("schedule 10 2\ntx 0 0 0 0 1 2 3 1x\n");
  EXPECT_THROW(load_schedule(trailing_field), std::invalid_argument);

  std::stringstream bad_kind("schedule 10 2\nbogus 1 2 3\n");
  EXPECT_THROW(load_schedule(bad_kind), std::invalid_argument);

  std::stringstream empty("");
  EXPECT_THROW(load_schedule(empty), std::invalid_argument);

  std::stringstream double_header("schedule 10 2\nschedule 10 2\n");
  EXPECT_THROW(load_schedule(double_header), std::invalid_argument);

  // Out-of-range placement is rejected by the schedule itself.
  std::stringstream oob("schedule 10 2\ntx 0 0 0 0 1 2 99 0\n");
  EXPECT_THROW(load_schedule(oob), std::invalid_argument);
}

TEST(ScheduleIo, FileRoundTrip) {
  schedule original(10, 2);
  original.add(make_tx(0, 0, 0, 0, 1, 2), 3, 1);
  const std::string path = "/tmp/wsan_schedule_io_test.sched";
  save_schedule_file(original, path);
  const auto loaded = load_schedule_file(path);
  EXPECT_EQ(loaded.cell(3, 1).size(), 1u);
  EXPECT_THROW(load_schedule_file("/nonexistent/dir/x.sched"),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsan::tsch
