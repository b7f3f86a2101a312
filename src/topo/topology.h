// Network topology: node positions plus per-directed-link, per-channel
// radio state.
//
// The ground truth of a deployment is the received signal strength of
// every directed link on every channel; the PRR the network manager sees
// (and that graph construction consumes, Section IV-B) is derived from it
// through the link model. Storing RSSI rather than PRR lets the network
// simulator compute SINR for concurrent transmissions consistently with
// the standalone link qualities.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "phy/channel.h"
#include "phy/link_model.h"
#include "phy/path_loss.h"
#include "phy/position.h"

namespace wsan::topo {

class topology {
 public:
  topology() = default;
  explicit topology(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a node at the given position; returns its id (dense, 0-based).
  node_id add_node(const phy::position& pos);

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  const phy::position& position_of(node_id id) const;

  /// Received signal strength (dBm) on the directed link u->v for the
  /// given channel. Defaults to -infinity-ish (no connectivity).
  double rssi_dbm(node_id u, node_id v, channel_t ch) const;
  void set_rssi_dbm(node_id u, node_id v, channel_t ch, double rssi);

  /// Packet reception ratio of the directed link u->v on a channel, as
  /// derived from the stored RSSI through the link model. This is the
  /// quantity the WirelessHART network manager collects.
  double prr(node_id u, node_id v, channel_t ch) const;

  /// Convenience: sets the RSSI so the link's PRR equals `prr` exactly.
  void set_prr(node_id u, node_id v, channel_t ch, double prr);

  /// Minimum PRR of u->v across the given channel set.
  double min_prr(node_id u, node_id v,
                 const std::vector<channel_t>& channels) const;

  /// Maximum PRR of u->v across the given channel set.
  double max_prr(node_id u, node_id v,
                 const std::vector<channel_t>& channels) const;

  const phy::path_loss_params& path_loss() const { return path_loss_; }
  void set_path_loss(const phy::path_loss_params& p) { path_loss_ = p; }

  const phy::link_model_params& link_model() const { return link_model_; }
  void set_link_model(const phy::link_model_params& p) { link_model_ = p; }

  double tx_power_dbm() const { return tx_power_dbm_; }
  void set_tx_power_dbm(double p) { tx_power_dbm_ = p; }

 private:
  std::size_t link_index(node_id u, node_id v, channel_t ch) const;

  std::string name_;
  std::vector<phy::position> positions_;
  /// Dense n*n*16 matrix of directed-link RSSI values.
  std::vector<double> rssi_;
  phy::path_loss_params path_loss_;
  phy::link_model_params link_model_;
  double tx_power_dbm_ = 0.0;
};

/// Sentinel RSSI for "no signal"; PRR at this level is exactly 0.
inline constexpr double k_no_signal_dbm = -200.0;

}  // namespace wsan::topo
