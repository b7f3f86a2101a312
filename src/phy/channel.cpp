#include "phy/channel.h"

#include <cmath>

#include "common/error.h"

namespace wsan::phy {

bool is_valid_channel(channel_t ch) {
  return ch >= k_first_channel && ch <= k_last_channel;
}

double center_frequency_mhz(channel_t ch) {
  WSAN_REQUIRE(is_valid_channel(ch), "invalid 802.15.4 channel");
  return 2405.0 + 5.0 * (ch - k_first_channel);
}

int channel_index(channel_t ch) {
  WSAN_REQUIRE(is_valid_channel(ch), "invalid 802.15.4 channel");
  return ch - k_first_channel;
}

std::vector<channel_t> channels(int count) {
  WSAN_REQUIRE(count >= 1 && count <= k_max_channels,
               "channel count must be in [1, 16]");
  std::vector<channel_t> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(k_first_channel + i);
  return out;
}

double wifi_center_frequency_mhz(int wifi_channel) {
  WSAN_REQUIRE(wifi_channel >= 1 && wifi_channel <= 13,
               "WiFi channel must be in [1, 13]");
  return 2407.0 + 5.0 * wifi_channel;
}

bool wifi_overlaps(int wifi_channel, channel_t ieee_channel) {
  // An 802.11b/g channel is 22 MHz wide; an 802.15.4 channel is 2 MHz wide.
  // They overlap if the center distance is under (22 + 2) / 2 = 12 MHz.
  const double wifi_center = wifi_center_frequency_mhz(wifi_channel);
  const double ieee_center = center_frequency_mhz(ieee_channel);
  return std::abs(wifi_center - ieee_center) < 12.0;
}

}  // namespace wsan::phy
