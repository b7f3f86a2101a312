// External (non-network) interference sources.
//
// The paper injects WiFi interference with Raspberry Pi pairs sending
// 1 Mbps UDP on WiFi channel 1, which overlaps 802.15.4 channels 11-14
// (Section VII-E). We model an interferer as a duty-cycled wideband
// transmitter at a fixed position: in any slot it is active with
// probability duty_cycle, and when active it raises the interference
// floor on every overlapping 802.15.4 channel at every receiver,
// attenuated by path loss and by the bandwidth mismatch (only ~2 MHz of
// the ~22 MHz WiFi emission lands in a Zigbee channel).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "phy/path_loss.h"
#include "phy/position.h"
#include "topo/topology.h"

namespace wsan::sim {

struct external_interferer {
  phy::position pos;
  double tx_power_dbm = 10.0;  ///< modest WiFi client EIRP
  double duty_cycle = 0.25;    ///< fraction of slots with traffic
  int wifi_channel = 1;        ///< overlaps 802.15.4 channels 11-14
};

/// Precomputed interference field: the power each interferer delivers at
/// each node, with static per-(interferer, node) shadowing so the field
/// is deterministic given a seed.
class interference_field {
 public:
  interference_field(const topo::topology& topo,
                     std::vector<external_interferer> interferers,
                     std::uint64_t seed);

  int num_interferers() const {
    return static_cast<int>(interferers_.size());
  }

  const external_interferer& interferer(int i) const;

  /// Power (dBm) interferer i delivers into a 2 MHz 802.15.4 channel at
  /// node `receiver`, if the 802.15.4 channel overlaps its WiFi channel;
  /// returns nullopt otherwise.
  std::optional<double> power_at(int i, node_id receiver,
                                 channel_t ieee_channel) const;

  /// Received power (dBm) of interferer i at `receiver`, ignoring
  /// channel overlap — the raw per-(interferer, node) field value. The
  /// simulator's fast path pairs this with a precomputed overlap table
  /// so the hot loop is two array reads instead of a power_at call.
  double received_dbm(int i, node_id receiver) const;

  /// Samples which interferers are active this slot.
  std::vector<bool> sample_active(rng& gen) const;

 private:
  std::vector<external_interferer> interferers_;
  std::vector<double> received_dbm_;  // interferer-major, node-minor
  int num_nodes_ = 0;
};

/// dB lost because only a 2 MHz slice of the ~22 MHz WiFi emission falls
/// into one 802.15.4 channel: 10*log10(22/2).
inline constexpr double k_wifi_bandwidth_factor_db = 10.4;

/// Places one interferer per floor, off-center (a Pi pair near one wing
/// of the building) — the paper's setup of one Raspberry Pi pair per
/// floor, with a footprint that covers part of the floor.
std::vector<external_interferer> one_interferer_per_floor(
    const topo::topology& topo, double duty_cycle = 0.25,
    double tx_power_dbm = 10.0, int wifi_channel = 1);

}  // namespace wsan::sim
