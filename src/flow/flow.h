// End-to-end flow model (Section IV-A).
//
// A flow F_i = <S_i, Y_i, D_i, P_i, phi_i>: the source releases a packet
// every P_i slots which must reach the destination within D_i slots over
// the route phi_i. Periods are harmonic powers of two (in seconds) as is
// common in process industries; with 10 ms TSCH slots, 2^j seconds is
// 100 * 2^j slots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"

namespace wsan::flow {

/// TSCH slots per second (10 ms slots).
inline constexpr int k_slots_per_second = 100;

/// Traffic patterns of Section VII: centralized routes through an access
/// point and the wired gateway; peer-to-peer goes directly between field
/// devices.
enum class traffic_type { centralized, peer_to_peer };

std::string to_string(traffic_type type);

/// One wireless hop of a route.
struct link {
  node_id sender = k_invalid_node;
  node_id receiver = k_invalid_node;

  friend bool operator==(const link&, const link&) = default;
};

struct flow {
  flow_id id = k_invalid_flow;          ///< dense; doubles as priority rank
  node_id source = k_invalid_node;      ///< S_i
  node_id destination = k_invalid_node; ///< Y_i
  slot_t period = 0;                    ///< P_i in slots
  slot_t deadline = 0;                  ///< D_i in slots, D_i <= P_i
  std::vector<link> route;              ///< phi_i, in transmission order
  traffic_type type = traffic_type::peer_to_peer;
  /// For centralized flows: number of links in the uplink segment
  /// (source -> access point); the remainder is the downlink segment
  /// (access point -> destination) that runs after the wired gateway hop.
  /// Equal to route.size() for peer-to-peer flows.
  int uplink_links = 0;

  /// Number of packet releases within the given hyperperiod.
  int instances_in(slot_t hyperperiod) const;

  /// Release slot of instance r (0-based).
  slot_t release_slot(int instance) const { return instance * period; }

  /// Absolute deadline slot of instance r: last slot usable by it.
  slot_t deadline_slot(int instance) const {
    return instance * period + deadline - 1;
  }
};

/// Least common multiple of all flow periods; the schedule length.
slot_t hyperperiod(const std::vector<flow>& flows);

/// Validates structural flow invariants (route continuity, deadline
/// bounds, positive period); throws std::invalid_argument on violation.
void validate_flow(const flow& f);

}  // namespace wsan::flow
