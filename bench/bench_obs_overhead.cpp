// Observability micro-overhead guard.
//
// The claim under test (DESIGN.md §9): with instrumentation compiled in
// but runtime-disabled — the shipping default outside --metrics/--trace
// runs — the RC scheduler on an Indriya peer-to-peer workload (default
// 80 flows, the fig6 midpoint) regresses by less than --threshold
// (default 3%) relative to a build without instrumentation.
//
// A single binary cannot time the compiled-out scheduler directly, so
// the bound is computed from first principles: the disabled path costs
// exactly one relaxed atomic load + branch per instrumentation site.
// The bench (a) calibrates that per-site cost with a tight loop of
// disabled spans, (b) counts the sites one schedule actually executes
// from an enabled metrics snapshot (span entries, histogram
// observations, end-of-run counter flush), and (c) expresses
// sites × cost as a fraction of the measured disabled schedule time.
//
// The enabled/disabled wall-time ratio is also printed: that is the
// cost of *tracing* (two clock reads per span) which users opt into
// with --metrics/--trace, and is informational, not asserted.
//
// Usage: --flows N --workloads N --reps N --threshold X --seed N
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "flow/flow_generator.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace {

using namespace wsan;

double best_of(int reps, const std::vector<flow::flow>& flows,
               const bench::experiment_env& env,
               const core::scheduler_config& config) {
  double best = bench::time_schedule_ms(flows, env.reuse_hops, config);
  for (int rep = 1; rep < reps; ++rep)
    best = std::min(best,
                    bench::time_schedule_ms(flows, env.reuse_hops, config));
  return best;
}

/// Nanoseconds per disabled instrumentation site: one OBS_SPAN whose
/// enabled() check fails. Calibrated over enough iterations that the
/// clock reads bracketing the loop are noise.
double disabled_site_cost_ns() {
  constexpr int k_iters = 2'000'000;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < k_iters; ++i) {
    OBS_SPAN("bench.obs_overhead.calibration");
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::nano>(elapsed).count() /
         k_iters;
}

/// Microseconds to record one closed series window (two scalars). The
/// temporal layer (obs/timeseries.h) ships in the same library as the
/// hot-path metrics; recording a window here proves it is compiled
/// into this binary while staying entirely off the scheduler hot path
/// — its cost is per-epoch, so it must never enter the per-placement
/// overhead asserted below.
double window_record_cost_us() {
  constexpr int k_windows = 10'000;
  obs::series_recorder rec({.name = "calibration", .index_unit = "epoch"});
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < k_windows; ++i) {
    rec.begin_window(i);
    rec.set("pdr", 0.5);
    rec.set("rejection_rate", 0.25);
    rec.end_window();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(elapsed).count() /
         k_windows;
}

/// Instrumentation sites executed by one schedule, from an enabled-run
/// snapshot: every span entry, every histogram observation, plus one
/// flush call per counter at the end of the run. The scheduler's
/// counters, relaxation rounds included, accumulate in
/// core::scheduler_stats and reach the registry only in that flush.
std::uint64_t count_sites(const obs::snapshot& snap) {
  std::uint64_t sites = 0;
  for (const auto& [name, s] : snap.spans) sites += s.count;
  for (const auto& [name, h] : snap.histograms) sites += h.total();
  sites += snap.counters.size();
  return sites;
}

/// RC relaxation rounds recorded in an enabled-run snapshot.
std::uint64_t relaxation_rounds(const obs::snapshot& snap) {
  const auto rounds = snap.counters.find("core.sched.relaxation_rounds");
  return rounds == snap.counters.end() ? 0 : rounds->second;
}

}  // namespace

int main(int argc, char** argv) {
  const cli_args args(argc, argv);
  const int flows = static_cast<int>(args.get_int("flows", 80));
  const int workloads = static_cast<int>(args.get_int("workloads", 5));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const double threshold = args.get_double("threshold", 1.03);
  const std::uint64_t seed = args.get_uint64("seed", 60);

  bench::print_banner("obs-overhead",
                      "observability cost on the RC scheduler hot path");
  if (!obs::k_compiled_in) {
    std::cout << "observability compiled out (WSAN_OBS=OFF): "
                 "nothing to measure\n";
    return 0;
  }

  const auto env = bench::make_env("indriya", 5);
  flow::flow_set_params fsp;
  fsp.type = flow::traffic_type::peer_to_peer;
  fsp.num_flows = flows;
  fsp.period_min_exp = 0;
  fsp.period_max_exp = 2;
  const auto config = core::make_config(core::algorithm::rc, 5);

  double disabled_ms = 0.0;
  double enabled_ms = 0.0;
  std::uint64_t sites = 0;
  std::uint64_t rounds = 0;
  int measured = 0;
  for (int w = 0; w < workloads; ++w) {
    rng gen(derive_seed(seed, 0, static_cast<std::uint64_t>(w)));
    flow::flow_set set;
    try {
      set = flow::generate_flow_set(env.comm, fsp, gen);
    } catch (const std::runtime_error&) {
      continue;  // unroutable draw; the next seed differs
    }
    // Interleave the two configurations per workload so slow drift on a
    // loaded machine penalizes both sides equally.
    obs::set_enabled(false);
    disabled_ms += best_of(reps, set.flows, env, config);
    obs::reset_metrics();
    obs::set_enabled(true);
    enabled_ms += best_of(reps, set.flows, env, config);
    obs::set_enabled(false);
    // The enabled reps left reps× counts in the registry; scale down to
    // the per-schedule site count.
    const auto snap = obs::take_snapshot();
    sites += count_sites(snap) / static_cast<std::uint64_t>(reps);
    rounds += relaxation_rounds(snap) / static_cast<std::uint64_t>(reps);
    ++measured;
  }
  obs::reset_metrics();
  if (measured == 0) {
    std::cerr << "error: no routable workload generated\n";
    return 1;
  }

  const double site_ns = disabled_site_cost_ns();
  const double disabled_overhead_ms =
      static_cast<double>(sites) * site_ns / 1e6;
  const double disabled_ratio =
      (disabled_ms + disabled_overhead_ms) / disabled_ms;
  const double disabled_pct = (disabled_ratio - 1.0) * 100.0;
  const double tracing_ratio = enabled_ms / disabled_ms;

  std::cout << "workloads measured    : " << measured << " (" << flows
            << " flows, best-of-" << reps << ")\n"
            << "schedule, obs disabled: " << disabled_ms << " ms total\n"
            << "schedule, obs enabled : " << enabled_ms << " ms total ("
            << (tracing_ratio - 1.0) * 100.0
            << "% tracing cost, informational)\n"
            << "instrumentation sites : " << sites << " @ " << site_ns
            << " ns/site disabled\n"
            << "relaxation rounds     : " << rounds
            << " (counted in scheduler_stats, flushed once per run)\n"
            << "series window record  : " << window_record_cost_us()
            << " us/window (time-series layer compiled in; per-epoch, "
               "off the hot path)\n"
            << "disabled-mode overhead: " << disabled_pct
            << "% of schedule time (threshold "
            << (threshold - 1.0) * 100.0 << "%)\n";
  if (disabled_ratio > threshold) {
    std::cerr << "FAIL: disabled observability overhead " << disabled_pct
              << "% exceeds threshold\n";
    return 1;
  }
  std::cout << "OK: disabled observability overhead within threshold\n";
  return 0;
}
