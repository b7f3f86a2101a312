#include "topo/topology.h"

#include <algorithm>

#include "common/error.h"

namespace wsan::topo {

node_id topology::add_node(const phy::position& pos) {
  const node_id id = static_cast<node_id>(positions_.size());
  positions_.push_back(pos);
  // Grow the dense RSSI matrix: rebuild with the new size, preserving
  // existing entries. Nodes are almost always added up-front, so the
  // quadratic rebuild cost is irrelevant in practice.
  const int n = num_nodes();
  std::vector<double> grown(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
          phy::k_max_channels,
      k_no_signal_dbm);
  const int old_n = n - 1;
  for (node_id u = 0; u < old_n; ++u) {
    for (node_id v = 0; v < old_n; ++v) {
      for (int c = 0; c < phy::k_max_channels; ++c) {
        const auto old_idx =
            (static_cast<std::size_t>(u) * static_cast<std::size_t>(old_n) +
             static_cast<std::size_t>(v)) *
                phy::k_max_channels +
            static_cast<std::size_t>(c);
        const auto new_idx =
            (static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(v)) *
                phy::k_max_channels +
            static_cast<std::size_t>(c);
        grown[new_idx] = rssi_[old_idx];
      }
    }
  }
  rssi_ = std::move(grown);
  return id;
}

const phy::position& topology::position_of(node_id id) const {
  WSAN_REQUIRE(id >= 0 && id < num_nodes(), "node id out of range");
  return positions_[static_cast<std::size_t>(id)];
}

std::size_t topology::link_index(node_id u, node_id v, channel_t ch) const {
  WSAN_REQUIRE(u >= 0 && u < num_nodes(), "sender id out of range");
  WSAN_REQUIRE(v >= 0 && v < num_nodes(), "receiver id out of range");
  const int c = phy::channel_index(ch);
  return (static_cast<std::size_t>(u) *
              static_cast<std::size_t>(num_nodes()) +
          static_cast<std::size_t>(v)) *
             phy::k_max_channels +
         static_cast<std::size_t>(c);
}

double topology::rssi_dbm(node_id u, node_id v, channel_t ch) const {
  if (u == v) return k_no_signal_dbm;
  return rssi_[link_index(u, v, ch)];
}

void topology::set_rssi_dbm(node_id u, node_id v, channel_t ch, double rssi) {
  WSAN_REQUIRE(u != v, "self links are not allowed");
  rssi_[link_index(u, v, ch)] = rssi;
}

double topology::prr(node_id u, node_id v, channel_t ch) const {
  return phy::prr_from_rssi(link_model_, rssi_dbm(u, v, ch));
}

void topology::set_prr(node_id u, node_id v, channel_t ch, double prr) {
  WSAN_REQUIRE(prr >= 0.0 && prr <= 1.0, "PRR must be in [0, 1]");
  set_rssi_dbm(u, v, ch, phy::rssi_from_prr(link_model_, prr));
}

double topology::min_prr(node_id u, node_id v,
                         const std::vector<channel_t>& channels) const {
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  double best = 1.0;
  for (channel_t ch : channels) best = std::min(best, prr(u, v, ch));
  return best;
}

double topology::max_prr(node_id u, node_id v,
                         const std::vector<channel_t>& channels) const {
  WSAN_REQUIRE(!channels.empty(), "channel set must be non-empty");
  double best = 0.0;
  for (channel_t ch : channels) best = std::max(best, prr(u, v, ch));
  return best;
}

}  // namespace wsan::topo
