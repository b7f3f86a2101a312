// Array forms of the batched kernels. Each loop is an elementwise map
// over the pure scalar functions from batch_rng.h; this translation
// unit is compiled -O3 -fno-math-errno -ffinite-math-only (see
// CMakeLists.txt) so the inlined branch-free bodies — including the
// hardware sqrt and the minpd/maxpd clamp — vectorize.
//
// WSAN_BATCH_CLONES adds GCC function multi-versioning on x86-64
// Linux: the same source compiles for baseline x86-64 (SSE2, 2-wide
// doubles), x86-64-v3 (AVX2, 4-wide), and x86-64-v4 (AVX-512, 8-wide),
// with the loader's ifunc resolver picking the widest supported clone
// at startup. No intrinsics, no build-flag requirements, graceful
// fallback everywhere else. The clones are kept for their vector
// width only: the top-level build turns FMA contraction off, so every
// clone computes the scalar definitions bit for bit and the CPU's
// choice of clone cannot change a result.
//
// ThreadSanitizer builds take the default clone only: GCC instruments
// the ifunc resolvers with __tsan_func_entry, and the loader runs them
// (IRELATIVE relocations) before __tsan_init, so every binary linking
// these kernels would crash before main. The clones differ in vector
// width only, so the kernels and their results stay the same.
#include "common/batch_rng.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__gnu_linux__) && !defined(__SANITIZE_THREAD__)
#define WSAN_BATCH_CLONES \
  __attribute__(( \
      target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define WSAN_BATCH_CLONES
#endif

namespace wsan {

WSAN_BATCH_CLONES
void batch_normals(const std::uint64_t* seeds, std::size_t n,
                   double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = batch_normal(seeds[i]);
}

WSAN_BATCH_CLONES
void batch_fade_normals(const std::uint64_t* pre, const std::uint64_t* ch,
                        std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = batch_fade_normal(pre[i], ch[i]);
}

WSAN_BATCH_CLONES
void batch_fade_fill(std::uint64_t state, std::uint64_t z,
                     const std::uint64_t* pk, const std::uint64_t* ch,
                     const double* base, std::size_t n, double sigma,
                     double sens, double scale, double* sig, double* p0) {
  for (std::size_t i = 0; i < n; ++i) {
    const double s =
        base[i] +
        sigma * batch_fade_normal(state ^ (z + pk[i]), ch[i]);
    sig[i] = s;
    p0[i] = batch_sigmoid((s - sens) / scale);
  }
}

WSAN_BATCH_CLONES
void batch_uniform01s(std::uint64_t seed, std::size_t n, double* out) {
  // Blocked two-pass shape: one pure-integer loop expanding the
  // counter chain, one int-to-double loop. A single fused loop trips
  // the vectorizer's one-vector-mode analysis (the double store finds
  // no vectype once the loop is classified V2DI), while each pass
  // alone vectorizes.
  constexpr std::size_t k_block = 256;
  std::uint64_t z[k_block];
  for (std::size_t base = 0; base < n; base += k_block) {
    const std::size_t m = n - base < k_block ? n - base : k_block;
    for (std::size_t i = 0; i < m; ++i) {
      z[i] = splitmix64_finalize(
          seed + (static_cast<std::uint64_t>(base + i) + 1) *
                     k_splitmix64_increment);
    }
    for (std::size_t i = 0; i < m; ++i)
      out[base + i] = u64_to_unit_double(z[i]);
  }
}

WSAN_BATCH_CLONES
void batch_sigmoids(const double* x, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = batch_sigmoid(x[i]);
}

}  // namespace wsan
