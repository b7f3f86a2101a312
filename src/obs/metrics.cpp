#include "obs/metrics.h"

#if WSAN_OBS_ENABLED

#include <array>
#include <atomic>
#include <deque>
#include <mutex>

#include "common/error.h"

namespace wsan::obs {

namespace {

/// Total slots available to counters, histogram buckets, and span
/// aggregates. 4096 x 8 bytes = 32 KiB per recording thread.
constexpr std::size_t k_max_slots = 4096;

enum class metric_kind : std::uint8_t { counter, histogram, span };

struct metric_meta {
  std::string name;
  metric_kind kind = metric_kind::counter;
  slot_t first_slot = k_invalid_slot;
  slot_t num_slots = 0;
  std::vector<double> bounds;  // histograms only; address-stable
};

struct shard {
  std::array<std::atomic<std::uint64_t>, k_max_slots> slots{};
};

struct registry_state {
  std::mutex mu;
  // Metadata lives in a deque so element addresses (notably the interned
  // histogram bounds) stay stable across registrations.
  std::deque<metric_meta> metrics;
  std::map<std::string, std::size_t, std::less<>> by_name;
  slot_t next_slot = 0;
  std::vector<shard*> live;
  std::array<std::uint64_t, k_max_slots> retired{};
};

registry_state& registry() {
  static registry_state* state = new registry_state();  // never destroyed
  return *state;
}

std::atomic<bool> g_enabled{false};

/// Registers the calling thread's shard on construction and folds its
/// values into the retired totals when the thread exits, so snapshots
/// taken after a worker joined still see everything it recorded.
struct tls_shard {
  shard s;

  tls_shard() {
    auto& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.push_back(&s);
  }

  ~tls_shard() {
    auto& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mu);
    for (std::size_t i = 0; i < k_max_slots; ++i)
      reg.retired[i] += s.slots[i].load(std::memory_order_relaxed);
    for (auto it = reg.live.begin(); it != reg.live.end(); ++it) {
      if (*it == &s) {
        reg.live.erase(it);
        break;
      }
    }
  }
};

/// Interns `name` as a metric of `kind` occupying `num_slots` slots.
/// Idempotent for an equal (name, kind) pair.
const metric_meta& intern(std::string_view name, metric_kind kind,
                          slot_t num_slots,
                          std::vector<double> bounds = {}) {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  if (const auto it = reg.by_name.find(name); it != reg.by_name.end()) {
    const auto& existing = reg.metrics[it->second];
    WSAN_REQUIRE(existing.kind == kind,
                 "metric registered twice with different kinds: " +
                     std::string(name));
    if (kind == metric_kind::histogram)
      WSAN_REQUIRE(existing.bounds == bounds,
                   "histogram registered twice with different buckets: " +
                       std::string(name));
    return existing;
  }
  WSAN_REQUIRE(reg.next_slot + num_slots <= k_max_slots,
               "observability slot arena exhausted");
  metric_meta meta;
  meta.name = std::string(name);
  meta.kind = kind;
  meta.first_slot = reg.next_slot;
  meta.num_slots = num_slots;
  meta.bounds = std::move(bounds);
  reg.next_slot += num_slots;
  reg.metrics.push_back(std::move(meta));
  reg.by_name.emplace(reg.metrics.back().name, reg.metrics.size() - 1);
  return reg.metrics.back();
}

}  // namespace

namespace detail {

void shard_add(slot_t slot, std::uint64_t delta) {
  thread_local tls_shard tls;
  tls.s.slots[slot].fetch_add(delta, std::memory_order_relaxed);
}

bool enabled_impl() { return g_enabled.load(std::memory_order_relaxed); }

slot_t register_span_slots(std::string_view name) {
  return intern(name, metric_kind::span, 2).first_slot;
}

}  // namespace detail

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

counter register_counter(std::string_view name) {
  counter c;
  c.slot_ = intern(name, metric_kind::counter, 1).first_slot;
  return c;
}

histogram register_histogram(std::string_view name,
                             std::vector<double> upper_bounds) {
  for (std::size_t i = 1; i < upper_bounds.size(); ++i)
    WSAN_REQUIRE(upper_bounds[i - 1] < upper_bounds[i],
                 "histogram bounds must be strictly increasing");
  // Take the size before the move: argument evaluation order is
  // unspecified, so computing it inline could read a moved-from vector.
  const auto num_slots = static_cast<slot_t>(upper_bounds.size() + 1);
  const auto& meta = intern(name, metric_kind::histogram, num_slots,
                            std::move(upper_bounds));
  histogram h;
  h.first_slot_ = meta.first_slot;
  h.num_bounds_ = static_cast<slot_t>(meta.bounds.size());
  h.bounds_ = meta.bounds.data();
  return h;
}

void add_counter(std::string_view name, std::uint64_t delta) {
  register_counter(name).add(delta);
}

snapshot take_snapshot() {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  std::array<std::uint64_t, k_max_slots> totals = reg.retired;
  for (const shard* s : reg.live)
    for (slot_t i = 0; i < reg.next_slot; ++i)
      totals[i] += s->slots[i].load(std::memory_order_relaxed);

  snapshot snap;
  for (const auto& meta : reg.metrics) {
    switch (meta.kind) {
      case metric_kind::counter:
        snap.counters[meta.name] = totals[meta.first_slot];
        break;
      case metric_kind::histogram: {
        histogram_snapshot h;
        h.upper_bounds = meta.bounds;
        h.counts.assign(totals.begin() + meta.first_slot,
                        totals.begin() + meta.first_slot + meta.num_slots);
        snap.histograms.emplace(meta.name, std::move(h));
        break;
      }
      case metric_kind::span: {
        span_snapshot s;
        s.count = totals[meta.first_slot];
        s.total_ns = totals[meta.first_slot + 1];
        snap.spans.emplace(meta.name, s);
        break;
      }
    }
  }
  return snap;
}

void reset_metrics() {
  auto& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  reg.retired.fill(0);
  for (shard* s : reg.live)
    for (auto& slot : s->slots) slot.store(0, std::memory_order_relaxed);
}

}  // namespace wsan::obs

#endif  // WSAN_OBS_ENABLED
