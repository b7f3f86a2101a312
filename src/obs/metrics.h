// Observability metrics registry (DESIGN.md §9).
//
// Named counters and fixed-bucket histograms with a hot path
// that is lock-free and contention-free: every recording thread owns a
// thread-local shard of atomic slots, increments go to the owning
// thread's shard with relaxed atomics, and take_snapshot() merges the
// shards (plus the totals of already-exited threads) under the registry
// mutex. Because every slot is merged by integer addition — a
// commutative, associative operator — the snapshot is independent of
// which worker recorded what, so `exp::trial_runner` workloads produce
// bit-identical metrics at any --jobs value.
//
// Registration (interning a name into slot indices) is the cold path
// and takes a mutex; the returned handles are cheap values meant to be
// cached in function-local statics next to the hot code:
//
//   static const obs::counter c = obs::register_counter("core.x");
//   c.add();
//
// Recording is dropped unless obs::set_enabled(true) was called (one
// relaxed atomic load per record). When the library is compiled with
// WSAN_OBS=OFF (-DWSAN_OBS_ENABLED=0) every recording call compiles to
// an empty inline body; registration and snapshots still exist so that
// cold tooling code builds unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#ifndef WSAN_OBS_ENABLED
#define WSAN_OBS_ENABLED 1
#endif

namespace wsan::obs {

/// True when the library was built with observability support.
inline constexpr bool k_compiled_in = WSAN_OBS_ENABLED != 0;

/// Slot index into the per-thread shard arena.
using slot_t = std::uint32_t;
inline constexpr slot_t k_invalid_slot = 0xffffffffu;

namespace detail {
#if WSAN_OBS_ENABLED
/// Relaxed atomic add on the current thread's shard (created lazily).
void shard_add(slot_t slot, std::uint64_t delta);
bool enabled_impl();
/// Interns a span name; returns the first of its two slots (count,
/// total_ns). Used by trace.h.
slot_t register_span_slots(std::string_view name);
#endif
}  // namespace detail

/// Global runtime switch. Off by default: with no consumer attached the
/// instrumented hot paths pay one relaxed load and branch per record.
#if WSAN_OBS_ENABLED
inline bool enabled() { return detail::enabled_impl(); }
void set_enabled(bool on);
#else
inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#endif

/// A monotonically increasing named count.
class counter {
 public:
  counter() = default;

  void add(std::uint64_t delta = 1) const {
#if WSAN_OBS_ENABLED
    if (!enabled() || slot_ == k_invalid_slot) return;
    detail::shard_add(slot_, delta);
#else
    (void)delta;
#endif
  }

 private:
  friend counter register_counter(std::string_view name);
  slot_t slot_ = k_invalid_slot;
};

/// A fixed-bucket histogram: a value lands in the first bucket whose
/// upper bound is >= value; values above every bound land in the
/// overflow bucket. Bucket counts are plain counters, so histograms
/// merge as order-independently as everything else.
class histogram {
 public:
  histogram() = default;

  void observe(double value) const {
#if WSAN_OBS_ENABLED
    if (!enabled() || first_slot_ == k_invalid_slot) return;
    slot_t bucket = num_bounds_;  // overflow
    for (slot_t b = 0; b < num_bounds_; ++b) {
      if (value <= bounds_[b]) {
        bucket = b;
        break;
      }
    }
    detail::shard_add(first_slot_ + bucket, 1);
#else
    (void)value;
#endif
  }

 private:
  friend histogram register_histogram(std::string_view name,
                                      std::vector<double> upper_bounds);
  slot_t first_slot_ = k_invalid_slot;
  slot_t num_bounds_ = 0;
  const double* bounds_ = nullptr;  // interned, immutable
};

/// Strictly increasing exponential histogram bounds: start,
/// start*factor, ..., start*factor^(count-1). The natural bucket
/// layout for latency-style metrics whose tail spans decades. Requires
/// start > 0, factor > 1, count >= 1.
inline std::vector<double> exponential_bounds(double start, double factor,
                                              int count) {
  std::vector<double> bounds;
  bounds.reserve(count > 0 ? static_cast<std::size_t>(count) : 0);
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

/// Interns a counter. Registering the same name twice returns the same
/// handle; re-registering a name as a different metric kind throws.
#if WSAN_OBS_ENABLED
counter register_counter(std::string_view name);
histogram register_histogram(std::string_view name,
                             std::vector<double> upper_bounds);
/// Cold-path convenience: intern + add in one call (takes the registry
/// mutex — use for end-of-run flushes, not per-record hot paths).
void add_counter(std::string_view name, std::uint64_t delta = 1);
#else
inline counter register_counter(std::string_view) { return {}; }
inline histogram register_histogram(std::string_view,
                                    std::vector<double>) {
  return {};
}
inline void add_counter(std::string_view, std::uint64_t = 1) {}
#endif

// ------------------------------------------------------- snapshots --

struct histogram_snapshot {
  std::vector<double> upper_bounds;
  /// Bucket counts; one longer than upper_bounds (overflow last).
  std::vector<std::uint64_t> counts;

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto c : counts) sum += c;
    return sum;
  }
};

/// Aggregated timings of one span name (see trace.h).
struct span_snapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// A merged view of every registered metric. Counter, histogram, and
/// span-count values are deterministic for deterministic workloads;
/// span total_ns values are wall-clock measurements.
struct snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, histogram_snapshot> histograms;
  std::map<std::string, span_snapshot> spans;
};

#if WSAN_OBS_ENABLED
/// Merges all live thread shards with the retired totals. Values still
/// being recorded concurrently may or may not be included; call after
/// workers joined for a complete, deterministic view.
snapshot take_snapshot();
/// Zeroes every recorded value (registered names and handles stay
/// valid). For tests and per-run sessions.
void reset_metrics();
#else
inline snapshot take_snapshot() { return {}; }
inline void reset_metrics() {}
#endif

}  // namespace wsan::obs
