// Deterministic, seedable random number generation.
//
// Experiments must be reproducible bit-for-bit across platforms, so we do
// not use std::mt19937 with std:: distributions (distribution algorithms are
// implementation-defined). Instead we ship a xoshiro256** generator seeded
// via splitmix64 plus our own distribution helpers.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "common/error.h"

namespace wsan {

/// The splitmix64 output function: mixes an already-advanced state word
/// into a finalized output. Exposed separately from splitmix64() so
/// counter-based consumers (batch_rng) can evaluate the k-th output of a
/// chain as finalize(seed + k * increment) without carrying the mutable
/// state — the two formulations produce identical streams.
inline std::uint64_t splitmix64_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: used to expand a single 64-bit seed into generator state.
/// Inline because simulation seed chains call it several times per fade
/// coordinate; the golden-ratio increment is the canonical constant.
inline constexpr std::uint64_t k_splitmix64_increment =
    0x9e3779b97f4a7c15ULL;

inline std::uint64_t splitmix64(std::uint64_t& state) {
  return splitmix64_finalize(state += k_splitmix64_increment);
}

/// The two halves of the Box-Muller transform for uniforms u1 in (0, 1]
/// and u2 in [0, 1): rng::normal() returns the first and keeps the
/// second as its spare. Each half re-derives radius and angle from the
/// same inputs; the libm calls are deterministic functions of their
/// argument bits, so this yields the same values as sharing the
/// intermediates.
inline double box_muller_first(double u1, double u2) {
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

inline double box_muller_second(double u1, double u2) {
  return std::sqrt(-2.0 * std::log(u1)) *
         std::sin(2.0 * std::numbers::pi * u2);
}

/// Counter-style seed derivation for experiment trials.
///
/// Maps (experiment_seed, point_index, trial_index) to a 64-bit stream
/// seed by chaining the splitmix64 output of each coordinate into the
/// state of the next, so the result depends on all three coordinates and
/// on their order. Trial streams are derived this way, never drawn from
/// a shared sequential generator, for two reasons:
///
///  1. Parallel determinism. A stream taken from a shared parent depends
///    on how many draws happened before it — both a data race and an
///    ordering hazard under a thread pool. derive_seed is a pure
///    function of the trial's coordinates: any thread can (re)compute
///    trial t's stream without touching shared state, which is what
///    makes a parallel experiment run bit-identical to a serial one at
///    any thread count.
///  2. Replayability. A single trial can be re-run in isolation
///    (--replay point:trial) without replaying the generator history
///    that preceded it.
///
/// Distinct coordinate triples map to distinct xoshiro states: the rng
/// seed constructor's splitmix64 expansion is injective in the seed (the
/// first state word alone is a bijection of it), and within one
/// experiment the chained finalizers make coordinate collisions
/// vanishingly unlikely (see the stream-derivation property test).
std::uint64_t derive_seed(std::uint64_t experiment_seed,
                          std::uint64_t point_index,
                          std::uint64_t trial_index);

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG (public-domain
/// algorithm by Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class rng {
 public:
  using result_type = std::uint64_t;

  // Inline for the same reason as operator(): the fast simulation path
  // constructs a fresh generator per fade coordinate, and an out-of-line
  // constructor would dominate the four-word state expansion.
  explicit rng(std::uint64_t seed = 0) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  // The raw generator step and the distributions layered directly on a
  // single output are defined inline: simulation hot loops draw millions
  // of times and the call itself would otherwise dominate the draw.
  result_type operator()() {
    const std::uint64_t result = rotl_(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl_(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01() {
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform_real(double lo, double hi);

  /// Standard normal deviate (Box-Muller, deterministic).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    WSAN_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli requires p in [0, 1]");
    return uniform01() < p;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element. Requires a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    WSAN_REQUIRE(!v.empty(), "cannot pick from an empty vector");
    return v[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

 private:
  static constexpr std::uint64_t rotl_(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace wsan
