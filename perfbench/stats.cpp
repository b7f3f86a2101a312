#include "stats.h"

#include <algorithm>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, int permille) {
  const auto p = static_cast<std::size_t>(permille);
  return (p * n + 999) / 1000;  // ceil(p * n / 1000)
}

}  // namespace

std::size_t samples_beyond(std::size_t n, int permille) {
  return n - nearest_rank(n, permille);
}

int highest_tail_permille(std::size_t n) {
  int best = 0;
  for (const int permille : k_ladder_permille)
    if (samples_beyond(n, permille) >= 10) best = permille;
  return best;
}

double percentile(std::vector<double> values, int permille) {
  if (values.empty()) return 0.0;
  const std::size_t rank =
      std::max<std::size_t>(nearest_rank(values.size(), permille), 1);
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

}  // namespace perfbench
