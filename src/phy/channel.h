// IEEE 802.15.4 channel bookkeeping on the 2.4 GHz ISM band.
//
// TSCH can use up to 16 channels (11..26). The reliability experiments in
// the paper use channels 11-14, which overlap WiFi channel 1 — we model
// that overlap so external WiFi interference hits the right channels.
#pragma once

#include <vector>

#include "common/ids.h"

namespace wsan::phy {

inline constexpr channel_t k_first_channel = 11;
inline constexpr channel_t k_last_channel = 26;
inline constexpr int k_max_channels = 16;

/// True iff ch is a valid IEEE 802.15.4 2.4 GHz channel number.
bool is_valid_channel(channel_t ch);

/// Center frequency in MHz: 2405 + 5 * (ch - 11).
double center_frequency_mhz(channel_t ch);

/// Index of a channel within the full 16-channel band: ch - 11.
int channel_index(channel_t ch);

/// The first `count` channels starting at 11 — e.g. channels(4) = {11..14},
/// the set used in the paper's reliability experiments.
std::vector<channel_t> channels(int count);

/// True iff the given 802.15.4 channel overlaps the 22 MHz-wide WiFi
/// (802.11b/g) channel. WiFi channel 1 (2412 MHz center) overlaps
/// 802.15.4 channels 11-14; WiFi 6 overlaps 16-19; WiFi 11 overlaps 21-24.
bool wifi_overlaps(int wifi_channel, channel_t ieee_channel);

/// WiFi channel center frequency in MHz: 2407 + 5 * wifi_channel (1..13).
double wifi_center_frequency_mhz(int wifi_channel);

}  // namespace wsan::phy
