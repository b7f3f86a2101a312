#include "sim/coexistence.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "phy/channel.h"
#include "sim/simulator.h"

namespace wsan::sim {

merged_networks merge_networks(const coexisting_network& a,
                               const coexisting_network& b,
                               node_id node_offset) {
  WSAN_REQUIRE(a.sched.num_slots() == b.sched.num_slots() &&
                   a.sched.num_offsets() == b.sched.num_offsets(),
               "coexisting schedules must share hyperperiod and offsets");
  const auto flow_offset = static_cast<flow_id>(a.flows.size());
  merged_networks out{a.sched, a.flows};
  for (flow::flow f : b.flows) {
    f.id += flow_offset;
    f.source += node_offset;
    f.destination += node_offset;
    for (auto& l : f.route)
      l = {l.sender + node_offset, l.receiver + node_offset};
    out.flows.push_back(std::move(f));
  }
  for (auto p : b.sched.placements()) {
    p.tx.flow += flow_offset;
    p.tx.sender += node_offset;
    p.tx.receiver += node_offset;
    out.sched.add(p.tx, p.slot, p.offset);
  }
  return out;
}

std::array<coexistence_network_result, 2> run_coexistence(
    const topo::merge_result& world, const coexisting_network& a,
    const coexisting_network& b, int runs, std::uint64_t seed) {
  const auto net = merge_networks(a, b, world.node_offset);
  sim_config face_value;
  face_value.runs = runs;
  face_value.seed = seed;
  face_value.calibration_drift_sigma_db = 0.0;
  face_value.maintained_drift_sigma_db = 0.0;
  face_value.intermittent_fraction = 0.0;
  face_value.temporal_fading_sigma_db = 0.0;
  face_value.probes_per_run = 0;
  const auto channels = phy::channels(net.sched.num_offsets());
  const auto result = run_simulation(world.merged, net.sched, net.flows,
                                     channels, face_value);
  // A network's slice; a flow releases instances_in(hyperperiod) a run.
  const auto slice = [&](std::size_t first, std::size_t last) {
    coexistence_network_result r;
    long long released = 0;
    for (std::size_t fi = first; fi < last; ++fi) {
      const long long n = static_cast<long long>(runs) *
                          net.flows[fi].instances_in(net.sched.num_slots());
      released += n;
      r.instances_delivered +=
          std::llround(result.flow_pdr[fi] * static_cast<double>(n));
      r.worst_flow_pdr = std::min(r.worst_flow_pdr, result.flow_pdr[fi]);
    }
    if (released > 0)
      r.network_pdr = static_cast<double>(r.instances_delivered) /
                      static_cast<double>(released);
    return r;
  };
  return {slice(0, a.flows.size()), slice(a.flows.size(), net.flows.size())};
}

}  // namespace wsan::sim
