// Batched, counter-based RNG and transcendental kernels for the
// simulator's fast engine (DESIGN.md §10).
//
// The naive engine draws each derived-RNG value through a full xoshiro
// construction plus libm Box-Muller — correct, bit-stable, and serial:
// every value costs a data-dependent rejection loop and two libm calls
// that the compiler cannot vectorize. This header provides the batched
// alternative: pure functions from a 64-bit seed to a value, built from
//
//   * counter-based splitmix64 (the k-th output is
//     splitmix64_finalize(seed + k * increment) — no mutable state, so
//     a whole array of seeds expands in parallel), and
//   * polynomial log / cos(2*pi*x) / exp kernels written as branch-free
//     straight-line code so that -O3 can auto-vectorize the array
//     loops in batch_rng.cpp (no target-specific intrinsics).
//
// Vectorizability rules the implementation obeys (GCC refuses loops
// that break them on baseline x86-64):
//   * no branches — only ternaries on doubles, which if-convert;
//   * no libm calls except sqrt (hardware instruction under
//     -fno-math-errno); floor/round are done with the 2^52 magic-add;
//   * no int<->double value conversions (cvtqq2pd needs AVX-512):
//     small integers go through exponent-bit construction
//     (u64_to_double / int-in-mantissa tricks), reinterpreting casts
//     (std::bit_cast) are free.
//
// The batched transforms are NOT bit-identical to the naive engine's
// (the polynomials agree with libm only to ~1e-12 relative, and u1 is
// mapped to (0, 1] instead of rejection-sampled); they are
// *statistically* equivalent, which is the fast engine's contract —
// enforced by the K-S equivalence gate in src/stats/equivalence.h +
// tests/fade_equivalence_test.cpp.
//
// Every batch function is elementwise-pure: batch_normals(seeds, n, out)
// computes out[i] = batch_normal(seeds[i]) for the scalar function
// defined here, bit for bit: the build turns off FMA contraction
// (-ffp-contract=off), so the vectorized clones round every operation
// exactly as the scalar code does. Lazy single-coordinate fills and
// bulk fills therefore draw from one definition on every host.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/rng.h"

namespace wsan {

// The element kernels must disappear into their callers: out-of-line
// calls in the simulator's slot loop cost more than the polynomial
// bodies themselves (GCC's inliner gives up inside large functions).
// Semantics are unchanged — this only pins the inlining decision.
#if defined(__GNUC__)
#define WSAN_BATCH_FORCE_INLINE inline __attribute__((always_inline))
#else
#define WSAN_BATCH_FORCE_INLINE inline
#endif

namespace batch_detail {

// ln(2) split for argument reduction plus the polynomial evaluation
// cores. Everything here is branch-free (ternaries compile to selects)
// and operates on one double so the array loops in batch_rng.cpp reduce
// to a vectorizable elementwise map after inlining.
inline constexpr double k_ln2_hi = 0x1.62e42fee00000p-1;
inline constexpr double k_ln2_lo = 0x1.a39ef35793c76p-33;
inline constexpr double k_ln2 = 0x1.62e42fefa39efp-1;
inline constexpr double k_inv_ln2 = 0x1.71547652b82fep+0;
inline constexpr double k_two_pi = 6.283185307179586476925286766559;
/// 2^52 + 2^51: adding then subtracting rounds a double in
/// (-2^51, 2^51) to the nearest integer without a cvt instruction, and
/// the sum's low mantissa bits hold that integer plus 2^51.
inline constexpr double k_round_magic = 0x1.8p52;

/// Exact double value of a 52-bit unsigned integer without an
/// int->float conversion instruction: plant the value in the mantissa
/// of 2^52 and subtract the implicit bit.
WSAN_BATCH_FORCE_INLINE double u52_to_double(std::uint64_t v) {
  return std::bit_cast<double>(v | 0x4330000000000000ULL) - 0x1.0p52;
}

/// Natural log for finite normal x > 0 (subnormals and specials are out
/// of scope: callers feed uniforms in (0, 1]). Decomposes x = m * 2^k
/// with m in [sqrt(1/2), sqrt(2)) via exponent-bit surgery, then sums
/// the atanh series of t = (m-1)/(m+1). Max observed error vs std::log
/// is below 1e-13 relative over the caller's input range.
WSAN_BATCH_FORCE_INLINE double poly_log(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  // Decompose x = m * 2^e with m in [sqrt(1/2), sqrt(2)) without a
  // comparison: adding (2^52 - mantissa_bits(sqrt(2))) bumps the
  // exponent field exactly when x's mantissa is >= sqrt(2)'s, so the
  // bumped exponent is e and subtracting it from the bit pattern
  // rescales the mantissa into the centered interval.
  const std::uint64_t adj = bits + 0x00095f619980c433ULL;
  const std::uint64_t e_biased = (adj >> 52) & 0x7ff;
  const double e = u52_to_double(e_biased) - 1023.0;
  const double m = std::bit_cast<double>(
      bits - ((e_biased - 1023) << 52));
  const double t = (m - 1.0) / (m + 1.0);
  const double z = t * t;
  // log(m) = 2 t (1 + z/3 + z^2/5 + ...); z <= 0.0295 so nine terms
  // leave a truncation error around z^9/19 ~ 8e-15.
  double p = 1.0 / 19.0;
  p = p * z + 1.0 / 17.0;
  p = p * z + 1.0 / 15.0;
  p = p * z + 1.0 / 13.0;
  p = p * z + 1.0 / 11.0;
  p = p * z + 1.0 / 9.0;
  p = p * z + 1.0 / 7.0;
  p = p * z + 1.0 / 5.0;
  p = p * z + 1.0 / 3.0;
  p = p * z + 1.0;
  return e * k_ln2 + 2.0 * t * p;
}

/// cos(2*pi*u) for u in [0, 1). Folds u into r in [-1/4, 1/4] with a
/// quadrant sign (cos(2*pi*(r + q/2)) = (-1)^q cos(2*pi*r) for integer
/// q), then evaluates the cosine Taylor series at x = 2*pi*r, |x| <=
/// pi/2. Both folds use the round-magic trick instead of comparisons
/// so the whole body is branch- and select-free.
WSAN_BATCH_FORCE_INLINE double poly_cos2pi(double u) {
  const double w =
      u - ((u + k_round_magic) - k_round_magic);  // [-1/2, 1/2]
  const double q =
      (2.0 * w + k_round_magic) - k_round_magic;  // {-1, 0, 1}
  const double r = w - 0.5 * q;                   // [-1/4, 1/4]
  const double sign = 1.0 - 2.0 * (q * q);        // (-1)^q
  const double x = k_two_pi * r;
  const double z = x * x;  // <= (pi/2)^2 ~ 2.47
  // cos(x) = sum (-1)^k x^(2k) / (2k)!; ten terms bound the truncation
  // error near pi/2 by (pi/2)^22 / 22! ~ 1.8e-17.
  double p = -1.0 / 2432902008176640000.0;      // -1/20!
  p = p * z + 1.0 / 6402373705728000.0;         //  1/18!
  p = p * z - 1.0 / 20922789888000.0;           // -1/16!
  p = p * z + 1.0 / 87178291200.0;              //  1/14!
  p = p * z - 1.0 / 479001600.0;                // -1/12!
  p = p * z + 1.0 / 3628800.0;                  //  1/10!
  p = p * z - 1.0 / 40320.0;                    // -1/8!
  p = p * z + 1.0 / 720.0;                      //  1/6!
  p = p * z - 1.0 / 24.0;                       // -1/4!
  p = p * z + 1.0 / 2.0;                        //  1/2!
  p = 1.0 - p * z;
  return sign * p;
}

/// exp(x) for |x| <= ~40 (callers clamp well inside that). Reduces
/// x = n*ln2 + r with |r| <= ln2/2 (+ half an ulp at ties), evaluates
/// the Taylor series at r, and rescales by 2^n through exponent-bit
/// construction. n is recovered via the round-magic trick — the
/// double (fn + magic) carries n + 2^51 in its mantissa — so there is
/// no floor() call and no double->int conversion instruction.
WSAN_BATCH_FORCE_INLINE double poly_exp(double x) {
  const double biased = x * k_inv_ln2 + k_round_magic;
  const double fn = biased - k_round_magic;  // round-to-nearest n
  const double r = (x - fn * k_ln2_hi) - fn * k_ln2_lo;
  // exp(r), |r| <= 0.3466: twelve terms leave ~r^13/13! ~ 1.6e-18.
  double p = 1.0 / 479001600.0;  // 1/12!
  p = p * r + 1.0 / 39916800.0;
  p = p * r + 1.0 / 3628800.0;
  p = p * r + 1.0 / 362880.0;
  p = p * r + 1.0 / 40320.0;
  p = p * r + 1.0 / 5040.0;
  p = p * r + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 1.0 / 2.0;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // Mantissa of `biased` = n + 2^51; turn n + 1023 into an exponent.
  const std::uint64_t n_plus =
      std::bit_cast<std::uint64_t>(biased) & 0x000fffffffffffffULL;
  const double scale = std::bit_cast<double>(
      (n_plus + (1023 - (1ULL << 51))) << 52);
  return p * scale;
}

}  // namespace batch_detail

/// The top 53 bits of a splitmix64 word as a double in [0, 1),
/// conversion-instruction-free: the two 32-bit halves go through the
/// mantissa trick and recombine exactly (hi * 2^32 + lo < 2^53).
WSAN_BATCH_FORCE_INLINE double u64_to_unit_double(std::uint64_t z) {
  const std::uint64_t v = z >> 11;
  const double hi = batch_detail::u52_to_double(v >> 32);
  const double lo =
      batch_detail::u52_to_double(v & 0xffffffffULL);
  return (hi * 4294967296.0 + lo) * 0x1.0p-53;
}

/// Standard normal deviate as a pure function of a 64-bit seed.
///
/// Takes the first two counter-based splitmix64 outputs of the seed —
/// the same two words a sequential splitmix64 chain would produce — and
/// applies the cosine Box-Muller half. u1 is mapped to (0, 1] by the
/// "+1 before scaling" trick instead of rng's rejection loop, so
/// the function is loop-free; the 2^-53 shift in u1's distribution is
/// far below the statistical-equivalence gate's resolution.
WSAN_BATCH_FORCE_INLINE double batch_normal(std::uint64_t seed) {
  const std::uint64_t z1 =
      splitmix64_finalize(seed + 1 * k_splitmix64_increment);
  const std::uint64_t z2 =
      splitmix64_finalize(seed + 2 * k_splitmix64_increment);
  const double u1 = u64_to_unit_double(z1) + 0x1.0p-53;  // (0, 1]
  const double u2 = u64_to_unit_double(z2);
  return std::sqrt(-2.0 * batch_detail::poly_log(u1)) *
         batch_detail::poly_cos2pi(u2);
}

/// Standard normal for a fade coordinate: the tail of the simulator's
/// fade seed chain fused with batch_normal. `pre` is the run prefix
/// xor-combined with the pair key (everything before the channel
/// enters the chain) and `ch` the channel number; the two remaining
/// splitmix64 steps plus the Box-Muller transform then run as one
/// branch-free body, so the bulk form keeps the whole chain — four
/// counter-based finalizes and the polynomial kernels — inside a
/// single vectorized loop instead of a scalar seed pass feeding a
/// batch. Matches fade_seed (simulator.cpp) + batch_normal exactly.
WSAN_BATCH_FORCE_INLINE double batch_fade_normal(std::uint64_t pre, std::uint64_t ch) {
  std::uint64_t s = pre + k_splitmix64_increment;
  s ^= splitmix64_finalize(s) + ch;
  return batch_normal(splitmix64_finalize(s + k_splitmix64_increment));
}

/// Uniform in [0, 1) as a pure function of a 64-bit seed: the first
/// counter-based splitmix64 output, scaled like rng::uniform01().
WSAN_BATCH_FORCE_INLINE double batch_uniform01(std::uint64_t seed) {
  const std::uint64_t z =
      splitmix64_finalize(seed + k_splitmix64_increment);
  return u64_to_unit_double(z);
}

/// Logistic sigmoid 1 / (1 + e^-x) with phy::clamped_sigmoid's rails:
/// exactly 1 above +8 and exactly 0 below -8, so strong links are
/// loss-free and dead links silent, as in the naive engine. The clamp
/// keeps poly_exp's argument in range (fmin/fmax are single
/// instructions) and the snap is a select after it, so the body stays
/// branch-free and vectorizes (compare and blend).
WSAN_BATCH_FORCE_INLINE double batch_sigmoid(double x) {
  const double c = std::fmax(-8.0, std::fmin(8.0, x));
  const double s = 1.0 / (1.0 + batch_detail::poly_exp(-c));
  return x > 8.0 ? 1.0 : (x < -8.0 ? 0.0 : s);
}

/// out[i] = batch_normal(seeds[i]). Compiled with -O3 -fno-math-errno
/// so the loop body (branch-free after inlining) auto-vectorizes.
void batch_normals(const std::uint64_t* seeds, std::size_t n,
                   double* out);

/// out[i] = batch_fade_normal(pre[i], ch[i]) — the fade-chain tail and
/// the normal transform fused into one vectorized pass.
void batch_fade_normals(const std::uint64_t* pre, const std::uint64_t* ch,
                        std::size_t n, double* out);

/// Fused whole-table coordinate fill for the simulator's fast engine:
/// the per-coordinate pre-key is folded inside the loop from the
/// run prefix (state, z) and the setup-time pair keys, so one run's
/// refill is a single call over run-invariant arrays covering the
/// whole fade -> signal -> clean-PRR chain:
///   pre    = state ^ (z + pk[i])
///   sig[i] = base[i] + sigma * batch_fade_normal(pre, ch[i])
///   p0[i]  = batch_sigmoid((sig[i] - sens) / scale)
/// Same expressions, same order as the element transforms, so
/// per-coordinate values are unchanged by batching.
void batch_fade_fill(std::uint64_t state, std::uint64_t z,
                     const std::uint64_t* pk, const std::uint64_t* ch,
                     const double* base, std::size_t n, double sigma,
                     double sens, double scale, double* sig, double* p0);

/// out[i] = i-th output of the splitmix64 chain rooted at seed, scaled
/// to [0, 1) — identical to draining a sequential splitmix64 n times,
/// but computed counter-style so the loop vectorizes.
void batch_uniform01s(std::uint64_t seed, std::size_t n, double* out);

/// out[i] = batch_sigmoid(x[i]); in-place (out == x) is allowed.
void batch_sigmoids(const double* x, std::size_t n, double* out);

}  // namespace wsan
