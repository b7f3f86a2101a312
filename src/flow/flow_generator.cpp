#include "flow/flow_generator.h"

#include <algorithm>
#include <stdexcept>

#include "common/error.h"
#include "flow/router.h"

namespace wsan::flow {

slot_t period_slots_for_exp(int exp) {
  WSAN_REQUIRE(exp >= -2 && exp <= 10,
               "period exponent must be in [-2, 10] for whole 10 ms slots");
  if (exp >= 0) return k_slots_per_second << exp;
  return k_slots_per_second >> (-exp);
}

std::vector<node_id> pick_access_points(const graph::graph& comm,
                                        int count) {
  WSAN_REQUIRE(count >= 1 && count <= comm.num_nodes(),
               "access point count out of range");
  // Degree descending, then id ascending, is a total order, so sorting
  // only the first `count` nodes picks the same ones in the same order.
  const auto n = static_cast<std::size_t>(comm.num_nodes());
  std::vector<int> degree(n);
  std::vector<node_id> ids(n);
  for (node_id i = 0; i < comm.num_nodes(); ++i) {
    degree[static_cast<std::size_t>(i)] = comm.degree(i);
    ids[static_cast<std::size_t>(i)] = i;
  }
  const auto top = ids.begin() + count;
  std::partial_sort(ids.begin(), top, ids.end(), [&](node_id a, node_id b) {
    const int da = degree[static_cast<std::size_t>(a)];
    const int db = degree[static_cast<std::size_t>(b)];
    return da != db ? da > db : a < b;
  });
  ids.erase(top, ids.end());
  return ids;
}

flow_set generate_flow_set(const graph::graph& comm,
                           const flow_set_params& params, rng& gen,
                           const etx_weights* weights) {
  WSAN_REQUIRE(params.num_flows >= 1, "flow count must be positive");
  WSAN_REQUIRE(params.period_min_exp <= params.period_max_exp,
               "period exponent range is inverted");
  WSAN_REQUIRE(params.metric == route_metric::hop_count ||
                   weights != nullptr,
               "ETX routing requires etx_weights");
  WSAN_REQUIRE(comm.num_nodes() >= params.num_access_points + 2,
               "graph too small for access points plus field devices");

  flow_set result;
  result.access_points =
      pick_access_points(comm, params.num_access_points);

  std::vector<node_id> field_devices;
  for (node_id id = 0; id < comm.num_nodes(); ++id) {
    if (std::find(result.access_points.begin(), result.access_points.end(),
                  id) == result.access_points.end())
      field_devices.push_back(id);
  }

  const long long max_attempts =
      200LL * static_cast<long long>(params.num_flows) + 1000;
  long long attempts = 0;
  while (static_cast<int>(result.flows.size()) < params.num_flows) {
    if (++attempts > max_attempts)
      throw std::runtime_error(
          "flow generation failed: could not find routable "
          "source/destination pairs — is the communication graph "
          "connected?");
    const node_id src = gen.pick(field_devices);
    const node_id dst = gen.pick(field_devices);
    if (src == dst) continue;

    std::optional<route_result> route;
    if (params.type == traffic_type::peer_to_peer) {
      route = params.metric == route_metric::hop_count
                  ? route_peer_to_peer(comm, src, dst)
                  : route_peer_to_peer_etx(comm, *weights, src, dst);
    } else {
      route = params.metric == route_metric::hop_count
                  ? route_centralized(comm, src, dst,
                                      result.access_points)
                  : route_centralized_etx(comm, *weights, src, dst,
                                          result.access_points);
    }
    if (!route || route->links.empty()) continue;

    flow f;
    f.id = static_cast<flow_id>(result.flows.size());
    f.source = src;
    f.destination = dst;
    f.type = params.type;
    f.route = std::move(route->links);
    f.uplink_links = route->uplink_links;
    const int exp = static_cast<int>(gen.uniform_int(
        params.period_min_exp, params.period_max_exp));
    f.period = period_slots_for_exp(exp);
    // Deadline uniform in [2^(j-1), 2^j] seconds = [P/2, P] slots.
    f.deadline =
        static_cast<slot_t>(gen.uniform_int(f.period / 2, f.period));
    validate_flow(f);
    result.flows.push_back(std::move(f));
  }

  assign_priorities(result.flows, params.priority);
  return result;
}

}  // namespace wsan::flow
