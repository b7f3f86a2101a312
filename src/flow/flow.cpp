#include "flow/flow.h"

#include <numeric>

#include "common/error.h"

namespace wsan::flow {

std::string to_string(traffic_type type) {
  switch (type) {
    case traffic_type::centralized:
      return "centralized";
    case traffic_type::peer_to_peer:
      return "peer-to-peer";
  }
  WSAN_CHECK(false, "unknown traffic type");
}

int flow::instances_in(slot_t hp) const {
  WSAN_REQUIRE(period > 0, "flow period must be positive");
  WSAN_REQUIRE(hp % period == 0, "hyperperiod must be a period multiple");
  return hp / period;
}

slot_t hyperperiod(const std::vector<flow>& flows) {
  WSAN_REQUIRE(!flows.empty(), "hyperperiod of an empty flow set");
  slot_t hp = 1;
  for (const auto& f : flows) {
    WSAN_REQUIRE(f.period > 0, "flow period must be positive");
    hp = std::lcm(hp, f.period);
  }
  return hp;
}

void validate_flow(const flow& f) {
  WSAN_REQUIRE(f.period > 0, "flow period must be positive");
  WSAN_REQUIRE(f.deadline > 0 && f.deadline <= f.period,
               "deadline must satisfy 0 < D <= P");
  WSAN_REQUIRE(!f.route.empty(), "flow route must be non-empty");
  WSAN_REQUIRE(f.route.front().sender == f.source,
               "route must start at the source");
  WSAN_REQUIRE(f.route.back().receiver == f.destination,
               "route must end at the destination");
  WSAN_REQUIRE(f.uplink_links >= 0 &&
                   f.uplink_links <= static_cast<int>(f.route.size()),
               "uplink segment length out of range");
  for (std::size_t i = 0; i < f.route.size(); ++i) {
    WSAN_REQUIRE(f.route[i].sender != f.route[i].receiver,
                 "route link endpoints must differ");
    // Continuity within a segment; the uplink/downlink boundary of a
    // centralized flow is bridged by the wired gateway, so continuity is
    // not required across it.
    if (i + 1 < f.route.size() &&
        static_cast<int>(i + 1) != f.uplink_links) {
      WSAN_REQUIRE(f.route[i].receiver == f.route[i + 1].sender,
                   "route links must be contiguous");
    }
  }
}

}  // namespace wsan::flow
