#include "topo/testbeds.h"

#include <cmath>
#include <limits>
#include <queue>

#include "common/error.h"
#include "common/rng.h"
#include "phy/dbm.h"

namespace wsan::topo {

namespace {

/// Places `count` nodes on one floor in a jittered grid covering the
/// floor area. A grid with jitter mimics the corridor/office deployments
/// of Indriya and WUSTL: roughly uniform coverage, no large holes.
void place_floor(topology& topo, const testbed_params& params, int floor,
                 int count, rng& gen) {
  if (count <= 0) return;
  const double aspect = params.floor_width_m / params.floor_depth_m;
  int cols = static_cast<int>(std::ceil(std::sqrt(count * aspect)));
  cols = std::max(cols, 1);
  const int rows = (count + cols - 1) / cols;
  const double dx = params.floor_width_m / (cols + 1);
  const double dy = params.floor_depth_m / (rows + 1);
  int placed = 0;
  for (int r = 0; r < rows && placed < count; ++r) {
    for (int c = 0; c < cols && placed < count; ++c) {
      phy::position pos;
      pos.x = dx * (c + 1) +
              gen.uniform_real(-params.placement_jitter_m,
                               params.placement_jitter_m);
      pos.y = dy * (r + 1) +
              gen.uniform_real(-params.placement_jitter_m,
                               params.placement_jitter_m);
      pos.floor = floor;
      topo.add_node(pos);
      ++placed;
    }
  }
}

/// Component labels of the PRR>=0.9-on-all-channels graph, computed
/// locally to keep topo independent of the graph module.
std::vector<int> comm_components(const topology& topo,
                                 const std::vector<channel_t>& channels) {
  const int n = topo.num_nodes();
  const auto linked = [&](node_id u, node_id v) {
    return topo.min_prr(u, v, channels) >= 0.9 &&
           topo.min_prr(v, u, channels) >= 0.9;
  };
  std::vector<int> label(static_cast<std::size_t>(n), -1);
  int next = 0;
  for (node_id start = 0; start < n; ++start) {
    if (label[static_cast<std::size_t>(start)] != -1) continue;
    std::queue<node_id> queue;
    label[static_cast<std::size_t>(start)] = next;
    queue.push(start);
    while (!queue.empty()) {
      const node_id u = queue.front();
      queue.pop();
      for (node_id v = 0; v < n; ++v) {
        if (v == u || label[static_cast<std::size_t>(v)] != -1) continue;
        if (!linked(u, v)) continue;
        label[static_cast<std::size_t>(v)] = next;
        queue.push(v);
      }
    }
    ++next;
  }
  return label;
}

}  // namespace

topology make_testbed(const testbed_params& params, std::uint64_t seed) {
  WSAN_REQUIRE(params.num_nodes >= 2, "a testbed needs at least two nodes");
  WSAN_REQUIRE(params.num_floors >= 1, "a testbed needs at least one floor");

  topology topo(params.name);
  topo.set_path_loss(params.path_loss);
  topo.set_link_model(params.link_model);
  topo.set_tx_power_dbm(params.tx_power_dbm);

  rng gen(seed);

  // Distribute nodes across floors as evenly as possible.
  const int base = params.num_nodes / params.num_floors;
  int remainder = params.num_nodes % params.num_floors;
  for (int f = 0; f < params.num_floors; ++f) {
    const int count = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    place_floor(topo, params, f, count, gen);
  }
  WSAN_CHECK(topo.num_nodes() == params.num_nodes,
             "floor placement lost nodes");

  // Radio state per unordered pair: a shared shadowing term (large-scale
  // fading is reciprocal), a per-channel frequency-selective term, and a
  // small directional asymmetry.
  for (node_id u = 0; u < topo.num_nodes(); ++u) {
    for (node_id v = u + 1; v < topo.num_nodes(); ++v) {
      const double mean_loss = phy::mean_path_loss_db(
          params.path_loss, topo.position_of(u), topo.position_of(v));
      const double shadow =
          gen.normal(0.0, params.path_loss.shadow_sigma_db);
      for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
           ++ch) {
        const double fade =
            gen.normal(0.0, params.path_loss.channel_fading_sigma_db);
        const double asym_uv = gen.normal(0.0, params.asymmetry_sigma_db);
        const double asym_vu = gen.normal(0.0, params.asymmetry_sigma_db);
        const double base_rssi =
            params.tx_power_dbm - mean_loss - shadow - fade;
        topo.set_rssi_dbm(u, v, ch, base_rssi - asym_uv);
        topo.set_rssi_dbm(v, u, ch, base_rssi - asym_vu);
      }
    }
  }
  // Connectivity repair: a real deployment is installed until the
  // network is usable — operators reposition nodes or add relays when a
  // wing ends up cut off. We model that by strengthening the shortest
  // bridging link between components until the communication graph
  // (PRR >= 0.9 on the first eight channels, which implies connectivity
  // for any smaller channel count) is connected. Unaffected deployments
  // pass through untouched.
  const auto repair_channels = phy::channels(8);
  for (int guard = 0; guard < params.num_nodes; ++guard) {
    const auto component = comm_components(topo, repair_channels);
    bool connected = true;
    for (int label : component) connected = connected && label == 0;
    if (connected) break;

    // The closest cross-component pair gets a deterministic strong link
    // (a relocated node with clear line of sight).
    node_id best_u = k_invalid_node;
    node_id best_v = k_invalid_node;
    double best_distance = std::numeric_limits<double>::max();
    for (node_id u = 0; u < topo.num_nodes(); ++u) {
      for (node_id v = u + 1; v < topo.num_nodes(); ++v) {
        if (component[static_cast<std::size_t>(u)] ==
            component[static_cast<std::size_t>(v)])
          continue;
        const double d = phy::distance_m(topo.position_of(u),
                                         topo.position_of(v));
        if (d < best_distance) {
          best_distance = d;
          best_u = u;
          best_v = v;
        }
      }
    }
    WSAN_CHECK(best_u != k_invalid_node, "no cross-component pair found");
    const double line_of_sight = params.tx_power_dbm -
                                 phy::mean_path_loss_db(
                                     params.path_loss, best_distance, 0);
    const double strong = std::max(line_of_sight, -80.0);
    for (channel_t ch = phy::k_first_channel; ch <= phy::k_last_channel;
         ++ch) {
      topo.set_rssi_dbm(best_u, best_v, ch, strong);
      topo.set_rssi_dbm(best_v, best_u, ch, strong);
    }
  }

  return topo;
}

topology make_indriya(std::uint64_t seed) {
  testbed_params params;
  params.name = "indriya";
  params.num_nodes = 80;
  params.num_floors = 3;
  params.floor_width_m = 95.0;
  params.floor_depth_m = 40.0;
  params.placement_jitter_m = 2.5;
  return make_testbed(params, seed);
}

topology make_wustl(std::uint64_t seed) {
  testbed_params params;
  params.name = "wustl";
  params.num_nodes = 60;
  params.num_floors = 3;
  params.floor_width_m = 75.0;
  params.floor_depth_m = 35.0;
  params.placement_jitter_m = 2.0;
  return make_testbed(params, seed);
}

topology make_named_testbed(const std::string& name,
                            std::optional<std::uint64_t> seed) {
  if (name == "indriya") return seed ? make_indriya(*seed) : make_indriya();
  if (name == "wustl") return seed ? make_wustl(*seed) : make_wustl();
  throw std::invalid_argument("unknown testbed '" + name +
                              "' (expected indriya or wustl)");
}

}  // namespace wsan::topo
