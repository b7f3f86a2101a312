// Scoped tracing spans (DESIGN.md §9).
//
// OBS_SPAN("core.schedule_flows"); opens an RAII span that, when
// observability is enabled at runtime, records one steady-clock
// duration into the metrics registry's per-thread shard (two counter
// slots: invocation count and total nanoseconds). Spans nest freely —
// each level accounts its own wall time, and the per-thread nesting
// depth is exposed for tests and tooling. Aggregation shares the
// registry's merge machinery, so span *counts* are deterministic for
// deterministic workloads while total_ns is a measurement and lives in
// the clearly non-deterministic "timings" section of reports.
//
// Spans sit at layer granularity: around a public call of a pipeline
// layer (a schedule_flows run, a delta admit or evict, a simulation, a
// manager step), never around per-transmission work. A sub-microsecond
// span costs about as much as the two clock reads that time it, so it
// distorts what it measures; count such work with a counter instead
// (core.sched.find_slot_calls, core.probes.*).
//
// When the library is compiled with WSAN_OBS=OFF the macro expands to
// nothing and the span class is an empty shell, so instrumented hot
// paths carry zero code.
#pragma once

#include <chrono>
#include <string_view>

#include "obs/metrics.h"

namespace wsan::obs {

/// Interned per-name span aggregate; cache in a static next to the
/// instrumented code (OBS_SPAN does exactly that).
class span_stat {
 public:
  span_stat() = default;

 private:
  friend class span;
  friend span_stat register_span(std::string_view name);
  slot_t first_slot_ = k_invalid_slot;
};

#if WSAN_OBS_ENABLED
span_stat register_span(std::string_view name);
/// Number of spans currently open on this thread (0 outside any span).
int span_depth();
namespace detail {
void enter_span();
void leave_span();
}  // namespace detail
#else
inline span_stat register_span(std::string_view) { return {}; }
inline constexpr int span_depth() { return 0; }
#endif

/// One timed scope. Reads the clock only when observability is enabled
/// at construction time; a span that started enabled records even if
/// observability is switched off mid-scope (the cheap flag is checked
/// once, on entry).
class span {
 public:
  explicit span(const span_stat& stat) {
#if WSAN_OBS_ENABLED
    if (!enabled() || stat.first_slot_ == k_invalid_slot) return;
    first_slot_ = stat.first_slot_;
    detail::enter_span();
    start_ = std::chrono::steady_clock::now();
#else
    (void)stat;
#endif
  }

  ~span() {
#if WSAN_OBS_ENABLED
    if (first_slot_ == k_invalid_slot) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count();
    obs::detail::shard_add(first_slot_, 1);
    obs::detail::shard_add(first_slot_ + 1,
                           static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    detail::leave_span();
#endif
  }

  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
#if WSAN_OBS_ENABLED
  slot_t first_slot_ = k_invalid_slot;
  std::chrono::steady_clock::time_point start_{};
#endif
};

}  // namespace wsan::obs

#define WSAN_OBS_CONCAT_IMPL(a, b) a##b
#define WSAN_OBS_CONCAT(a, b) WSAN_OBS_CONCAT_IMPL(a, b)

#if WSAN_OBS_ENABLED
#define WSAN_OBS_SPAN_IMPL(name, id)                         \
  static const ::wsan::obs::span_stat WSAN_OBS_CONCAT(       \
      wsan_obs_stat_, id) = ::wsan::obs::register_span(name); \
  const ::wsan::obs::span WSAN_OBS_CONCAT(wsan_obs_span_,    \
                                          id)(               \
      WSAN_OBS_CONCAT(wsan_obs_stat_, id))
/// Times the rest of the enclosing scope under `name`. Registration
/// happens once (thread-safe static); recording costs one enabled()
/// check when off and two clock reads when on.
#define OBS_SPAN(name) WSAN_OBS_SPAN_IMPL(name, __COUNTER__)
#else
#define OBS_SPAN(name) ((void)0)
#endif
