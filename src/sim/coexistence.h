// Two WirelessHART networks in one RF space (paper, Section III): their
// gateways cannot coordinate, so a cell both use (both hop one channel
// list from ASN 0 over one hyperperiod) is a same-channel collision. The
// study merges them onto the topo::merge_topologies topology and runs the
// one simulator, drift, intermittence, fading, probes and interferers off.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flow/flow.h"
#include "topo/merge.h"
#include "tsch/schedule.h"

namespace wsan::sim {

/// One gateway's network, in its own deployment's node and flow ids.
struct coexisting_network {
  const tsch::schedule& sched;
  const std::vector<flow::flow>& flows;
};

/// Two networks as one: a's flows and placements first, then b's with
/// node ids shifted by the node offset and flow ids by a's flow count.
/// The schedules must have the same hyperperiod and offset count.
struct merged_networks {
  tsch::schedule sched;
  std::vector<flow::flow> flows;
};

merged_networks merge_networks(const coexisting_network& a,
                               const coexisting_network& b,
                               node_id node_offset);

struct coexistence_network_result {
  double network_pdr = 1.0;  ///< delivered / released instances
  double worst_flow_pdr = 1.0;
  long long instances_delivered = 0;
};

/// Simulates merge_networks(a, b, world.node_offset) on world.merged for
/// `runs` hyperperiods and splits the result per network.
std::array<coexistence_network_result, 2> run_coexistence(
    const topo::merge_result& world, const coexisting_network& a,
    const coexisting_network& b, int runs, std::uint64_t seed);

}  // namespace wsan::sim
