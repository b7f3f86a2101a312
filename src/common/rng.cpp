#include "common/rng.h"

namespace wsan {

std::uint64_t derive_seed(std::uint64_t experiment_seed,
                          std::uint64_t point_index,
                          std::uint64_t trial_index) {
  // Chain each coordinate through the splitmix64 finalizer, feeding the
  // previous output into the next state. Within one coordinate the map
  // is injective; across coordinates the mixed 64-bit output makes a
  // collision with another (point, trial) pair require two finalizer
  // outputs to agree except in their low bits.
  std::uint64_t state = experiment_seed;
  std::uint64_t h = splitmix64(state);
  state = h ^ point_index;
  h = splitmix64(state);
  state = h ^ trial_index;
  return splitmix64(state);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  WSAN_REQUIRE(lo <= hi, "uniform_int requires lo <= hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire-style rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - range) % range;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % range);
  }
}

double rng::uniform_real(double lo, double hi) {
  WSAN_REQUIRE(lo <= hi, "uniform_real requires lo <= hi");
  return lo + (hi - lo) * uniform01();
}

double rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  // Box-Muller transform; both halves re-derive radius and angle from
  // the shared header kernels (bit-identical to sharing intermediates,
  // see box_muller_first's documentation).
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform01();
  const double u2 = uniform01();
  spare_normal_ = box_muller_second(u1, u2);
  has_spare_normal_ = true;
  return box_muller_first(u1, u2);
}

double rng::normal(double mean, double stddev) {
  WSAN_REQUIRE(stddev >= 0.0, "normal requires stddev >= 0");
  return mean + stddev * normal();
}

}  // namespace wsan
