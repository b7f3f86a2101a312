// perfbench — the repository benchmark's workload runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Both modes first set the workload up repeatedly, pinned to each
// allowed CPU in turn (k_setup_repeats times per CPU and for
// k_setup_min_ms at least; setup_s is the median set-up on the fastest
// CPU), then warm up. Ops come in units (workloads.h): a unit is the
// block every timing is taken over.
//
// Untraced (--trace 0) runs the closed loop over whole units until S
// seconds of timed wall time are spent, moving to the next CPU after
// each unit. Each end-to-end timing is the best over units of that
// unit's value (fastest p50, p90 and throughput), which keeps
// interference from other processes on the host out of the figure.
// Every unit holds at least 100 ops, so its p90 has ten samples beyond
// it.
//
// Traced (--trace 1) alternates an untraced and a traced pass over the
// first unit until S seconds are spent. The traced pass records the
// benchmark's own spans around each public call and turns on the
// library's obs counters and spans. It reports the per-layer ledger,
// the counts of the unit, and trace_overhead (traced over untraced wall,
// minus 1).
//
// Every op's outputs are checked outside the timed region. The run
// writes to DIR: result.json (read by run.py), a wsan-bench-report/1
// container (report.json, or trace_report.json with the obs snapshot
// as its observability section), and in the traced run ledger.txt and
// obs_snapshot.json. Exit status: 0 when every check passed and the
// workload took its path, 1 otherwise, 2 on bad usage.
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "exp/json.h"
#include "exp/obs_io.h"
#include "exp/report.h"
#include "obs/metrics.h"
#include "stats.h"
#include "stats/summary.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace json = wsan::exp::json;

/// Set-up runs at least this often per CPU and for at least this long
/// in all: a single set-up takes 10-30 ms, too short to read steadily
/// on a host whose speed drifts, so setup_s is a median of many.
constexpr std::size_t k_setup_repeats = 9;
constexpr double k_setup_min_ms = 1000.0;
constexpr double k_warmup_ms = 1000.0;
/// The timed loop stops here whatever --seconds asks, so a slow host
/// still ends within the benchmark's time limit.
constexpr double k_max_timed_ms = 120e3;
constexpr std::size_t k_max_failures = 100;

struct metric {
  double value;
  const char* unit;
};

/// The ops of one unit, handed to the loop's unit callback.
struct unit_record {
  std::vector<double> op_ms;
  std::vector<op_kind> kinds;
  double wall_ms = 0.0;  ///< timed wall of the unit, checks excluded
};

struct loop_result {
  std::size_t ops = 0;
  bool at_boundary = false;  ///< the last op completed a unit
  double wall_ms = 0.0;      ///< timed wall, checks excluded
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Pins the process to each CPU it may use, in turn. On a shared host a
/// few CPUs at a time run slow while other tenants load them, and which
/// ones changes from minute to minute; measured on one CPU, set-up time
/// moved by 60% between runs. Rotating makes every run sample all the
/// CPUs, so its fastest CPU and best unit do not depend on where the
/// scheduler happened to put the process.
class cpu_rotation {
 public:
  cpu_rotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~cpu_rotation() { release(); }
  cpu_rotation(const cpu_rotation&) = delete;
  cpu_rotation& operator=(const cpu_rotation&) = delete;

  std::size_t size() const { return std::max<std::size_t>(cpus_.size(), 1); }

  /// Pins to the next CPU and returns its place in the rotation. Best
  /// effort: where pinning is not allowed the process stays unpinned.
  std::size_t next() {
    if (cpus_.size() < 2) return 0;
    const std::size_t i = next_++ % cpus_.size();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    return i;
  }

  /// Lets the process run on every CPU it could at the start.
  void release() {
    if (cpus_.size() >= 2)
      (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Turns the library's obs recording off for its lifetime, so that the
/// library calls the benchmark's own checks make stay out of the
/// in-program snapshot.
class obs_paused {
 public:
  obs_paused() : was_on_(wsan::obs::enabled()) {
    wsan::obs::set_enabled(false);
  }
  ~obs_paused() { wsan::obs::set_enabled(was_on_); }
  obs_paused(const obs_paused&) = delete;
  obs_paused& operator=(const obs_paused&) = delete;

 private:
  bool was_on_;
};

/// One closed loop: runs ops until `done` says stop and hands each
/// completed unit to `on_unit`. Checks and the callback run outside the
/// timed wall and with obs off; only the current unit's latencies are
/// kept, so memory does not grow with the run.
template <typename Done, typename OnUnit>
loop_result run_loop(workload& w, span_ledger& spans, tally& counts,
                     std::vector<std::string>& failures, Done done,
                     OnUnit on_unit) {
  loop_result r;
  unit_record unit;
  double untimed_ms = 0.0;
  double unit_start_ms = 0.0;
  const auto start = steady::now();
  while (!done(r) && failures.size() < k_max_failures) {
    r.at_boundary = false;
    try {
      w.between_ops(spans);
      const auto t0 = steady::now();
      const auto kind = w.run_op(spans);
      const auto t1 = steady::now();
      unit.op_ms.push_back(ms_between(t0, t1));
      unit.kinds.push_back(kind);
      ++r.ops;
      ++r.attempted;
      const auto op_failures = [&] {
        const obs_paused paused;
        return w.check_op(counts);
      }();
      if (!op_failures.empty()) {
        ++r.failed;
        failures.insert(failures.end(), op_failures.begin(),
                        op_failures.end());
      }
      untimed_ms += ms_between(t1, steady::now());
    } catch (const std::exception& e) {
      ++r.attempted;
      ++r.failed;
      failures.push_back(std::string("op threw: ") + e.what());
    }
    r.wall_ms = ms_between(start, steady::now()) - untimed_ms;
    if (w.unit_complete()) {
      const obs_paused paused;
      const auto t0 = steady::now();
      unit.wall_ms = r.wall_ms - unit_start_ms;
      on_unit(unit);
      unit.op_ms.clear();
      unit.kinds.clear();
      unit_start_ms = r.wall_ms;
      r.at_boundary = true;
      untimed_ms += ms_between(t0, steady::now());
    }
  }
  return r;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Peak resident memory of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives exec and can report the parent's peak.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void write_json(const std::filesystem::path& path, const json::value& v) {
  std::ofstream os(path);
  json::write(v, os);
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

/// result.json, the file run.py reads.
void write_result(const std::filesystem::path& out_dir, bool correct,
                  std::int64_t attempted, std::int64_t failed,
                  const std::vector<std::string>& failures,
                  const std::map<std::string, metric>& metrics) {
  json::array failure_list;
  json::object metric_list;
  for (const auto& f : failures) failure_list.emplace_back(f);
  for (const auto& [key, m] : metrics)
    metric_list[key] = json::object{{"value", m.value}, {"unit", m.unit}};
  write_json(out_dir / "result.json",
             json::object{{"correct", correct},
                          {"attempted", attempted},
                          {"failed", failed},
                          {"failures", failure_list},
                          {"metrics", metric_list}});
}

/// The traced run: the ledger file, the per-layer metrics and the report
/// panels of the first unit.
void traced_run(workload& w, const std::string& name, std::uint64_t seed,
                double seconds, const std::filesystem::path& out_dir,
                tally& counts, std::vector<std::string>& failures,
                std::int64_t& attempted, std::int64_t& failed,
                std::map<std::string, metric>& metrics,
                wsan::exp::figure_report& report, json::value& observability) {
  span_ledger spans(true);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> op_ms;
  std::vector<double> admit_ms;
  std::vector<double> evict_ms;
  std::size_t unit_ops = 0;
  const auto at_boundary = [](const loop_result& r) { return r.at_boundary; };
  // Latencies come from the untraced passes, so tracing cannot move them.
  const auto keep_latencies = [&](const unit_record& u) {
    for (std::size_t i = 0; i < u.op_ms.size(); ++i) {
      op_ms.push_back(u.op_ms[i]);
      if (u.kinds[i] == op_kind::admit) admit_ms.push_back(u.op_ms[i]);
      if (u.kinds[i] == op_kind::evict) evict_ms.push_back(u.op_ms[i]);
    }
  };
  const auto count_ops = [&](const unit_record& u) {
    unit_ops = u.op_ms.size();
  };
  wsan::obs::reset_metrics();
  const auto start = steady::now();
  do {
    // Counts and checks come from the traced passes, one unit each.
    tally ignored;
    span_ledger off(false);
    w.rewind();
    const auto plain =
        run_loop(w, off, ignored, failures, at_boundary, keep_latencies);
    untraced_ms.push_back(plain.wall_ms);
    attempted += plain.attempted;
    failed += plain.failed;

    tally pass_counts;
    w.rewind();
    wsan::obs::set_enabled(true);
    const auto pass =
        run_loop(w, spans, pass_counts, failures, at_boundary, count_ops);
    wsan::obs::set_enabled(false);
    traced_ms.push_back(pass.wall_ms);
    attempted += pass.attempted;
    failed += pass.failed;
    counts = pass_counts;  // the same on every pass
  } while (ms_between(start, steady::now()) < seconds * 1e3 &&
           failures.empty());

  const double passes = static_cast<double>(traced_ms.size());
  double untraced_total = 0.0;
  double traced_total = 0.0;
  for (const double ms : untraced_ms) untraced_total += ms;
  for (const double ms : traced_ms) traced_total += ms;
  const double unit_wall = traced_total / passes;
  const double overhead = traced_total / untraced_total - 1.0;
  const auto busy = [&](const std::string& layer) {
    const auto it = spans.busy_ms().find(layer);
    return it == spans.busy_ms().end() ? 0.0 : it->second / passes;
  };

  // The ledger: each layer's busy time per unit, its self time (the
  // benchmark's spans are leaves, so self equals busy), its share of
  // the unit's wall time, and the unattributed rest, so the rows sum to
  // the wall time.
  std::ofstream ledger(out_dir / "ledger.txt");
  const auto row = [&](const std::string& layer, double ms) {
    ledger << std::left << std::setw(26) << layer << std::right << std::fixed
           << std::setprecision(3) << std::setw(12) << ms << std::setw(12)
           << ms << std::setw(8) << 100.0 * ms / unit_wall << "%\n";
  };
  ledger << "workload " << name << " seed " << seed << ": " << unit_ops
         << " ops per unit, " << traced_ms.size()
         << " traced passes; times per unit\n\n"
         << std::left << std::setw(26) << "layer" << std::right
         << std::setw(12) << "busy_ms" << std::setw(12) << "self_ms"
         << std::setw(9) << "share" << "\n";
  double attributed = 0.0;
  wsan::exp::report_panel ledger_panel{"ledger", "run", {{}}};
  for (const auto& entry : spans.busy_ms()) {
    const std::string& layer = entry.first;
    const double ms = busy(layer);
    attributed += ms;
    row(layer, ms);
    ledger_panel.points[0].values[layer + ".busy_ms"] = ms;
    report.measurement_keys.push_back(layer + ".busy_ms");
  }
  const double unattributed = unit_wall - attributed;
  row("unattributed", unattributed);
  row("op wall (total)", unit_wall);
  ledger << "\ntrace_overhead " << overhead
         << " (traced wall / untraced wall - 1 over " << traced_ms.size()
         << " pass pairs)\n"
         << "in-program obs counters and spans: obs_snapshot.json\n";

  const auto count = [&](const std::string& key) {
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  };
  const double calls = count("core.schedule_flows.calls");
  for (const char* algo : {"nr", "ra", "rc"})
    metrics[std::string("core.schedulable_share.") + algo] = {
        calls == 0.0
            ? 0.0
            : count(std::string("core.schedulable.") + algo) / (calls / 3.0),
        "ratio"};
  for (const char* key :
       {"core.schedule_flows.calls", "core.reuse_placements",
        "core.reuse_activations", "core.laxity_evaluations",
        "core.find_slot_calls", "core.probes.cells_probed", "fleet.admissions",
        "fleet.rejections", "fleet.evictions", "core.delta.full_reschedules",
        "core.delta.rescheduled_flows", "core.delta.placed",
        "core.delta.freed", "sim.calls", "sim.slots",
        "detect.links_classified", "detect.degraded_by_reuse",
        "scenario.epochs", "scenario.arrivals_offered", "scenario.rejected",
        "scenario.recovery_retries", "scenario.frame_slots"})
    metrics[key] = {count(key), "count"};
  for (const char* layer :
       {"core.schedule_flows", "fleet.admit", "fleet.evict",
        "sim.run_simulation", "detect.classify_links", "scenario.step",
        "scenario.construct"})
    metrics[std::string(layer) + ".busy_ms"] = {busy(layer), "ms"};
  // p99 where a unit's ops make it admissible (fleet, scenario), else 0.
  metrics["op_ms_p99"] = {
      highest_tail_permille(unit_ops) >= 990 ? percentile(op_ms, 990) : 0.0,
      "ms"};
  metrics["fleet.admit_us_p50"] = {percentile(admit_ms, 500) * 1e3, "us"};
  metrics["fleet.admit_us_p99"] = {percentile(admit_ms, 990) * 1e3, "us"};
  metrics["fleet.evict_us_p50"] = {percentile(evict_ms, 500) * 1e3, "us"};
  metrics["fleet.evict_us_p99"] = {percentile(evict_ms, 990) * 1e3, "us"};
  const auto evidence = w.evidence(counts);
  metrics["tsch.shared_placement_share"] = {evidence.shared_placement_share,
                                            "ratio"};
  metrics["tsch.swaps_applied_share"] = {
      ratio(counts, "tsch.swaps_applied", "tsch.swaps_attempted"), "ratio"};
  const double sim_ms = busy("sim.run_simulation");
  metrics["sim.slots_per_s"] = {
      sim_ms == 0.0 ? 0.0 : count("sim.slots") / (sim_ms / 1e3), "1/s"};
  metrics["sim.reuse_attempt_share"] = {evidence.reuse_attempt_share,
                                        "ratio"};
  metrics["ledger.unit_ops"] = {static_cast<double>(unit_ops), "count"};
  metrics["ledger.op_wall_ms"] = {unit_wall, "ms"};
  metrics["unattributed_ms"] = {unattributed, "ms"};
  metrics["unattributed_share"] = {unattributed / unit_wall, "ratio"};
  metrics["trace_overhead"] = {overhead, "ratio"};

  for (const char* key : {"ledger.op_wall_ms", "unattributed_ms",
                          "unattributed_share", "trace_overhead"}) {
    ledger_panel.points[0].values[key] = metrics[key].value;
    report.measurement_keys.push_back(key);
  }
  wsan::exp::report_panel counts_panel{"counts", "run", {{}}};
  for (const auto& [key, value] : counts)
    counts_panel.points[0].values[key] = value;
  report.panels = {counts_panel, ledger_panel};
  report.trials = static_cast<int>(unit_ops);
  report.wall_seconds = traced_total / 1e3;

  const auto snap = wsan::obs::take_snapshot();
  ledger << "\nin-program spans (the library's own obs spans, nested, over "
         << traced_ms.size() << " traced passes):\n";
  wsan::exp::print_span_table(snap, ledger);
  write_json(out_dir / "obs_snapshot.json", wsan::exp::snapshot_to_json(snap));
  observability = wsan::exp::observability_section(snap);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  std::filesystem::path out_dir;
  try {
    const wsan::cli_args args(argc, argv);
    name = args.get("workload", "");
    seed = args.get_uint64("seed", 1);
    seconds = args.get_double("seconds", 10.0);
    traced = args.get_int("trace", 0) != 0;
    out_dir = args.get("out", ".bench_out");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (make_workload(name, seed) == nullptr || !(seconds > 0.0)) {
    std::cerr << "usage: perfbench --workload reliability-reuse|fleet-reuse|"
                 "scenario-epochs --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n";
    return 2;
  }
  std::filesystem::create_directories(out_dir);

  // ---- set-up, repeated; the last instance runs ----------------------
  std::unique_ptr<workload> w;
  cpu_rotation cpus;
  std::vector<std::vector<double>> setup_s_by_cpu(cpus.size());
  std::vector<double> topo_ms;
  std::vector<double> graph_ms;
  std::vector<double> flow_ms;
  try {
    const auto setup_start = steady::now();
    while (flow_ms.size() < k_setup_repeats * cpus.size() ||
           ms_between(setup_start, steady::now()) < k_setup_min_ms) {
      const std::size_t cpu = cpus.next();
      w.reset();
      const auto t0 = steady::now();
      w = make_workload(name, seed);
      const auto split = w->setup();
      setup_s_by_cpu[cpu].push_back(ms_between(t0, steady::now()) / 1e3);
      const auto t1 = steady::now();
      w->build_topology();
      topo_ms.push_back(ms_between(t1, steady::now()));
      graph_ms.push_back(std::max(0.0, split.env_ms - topo_ms.back()));
      flow_ms.push_back(split.flow_ms);
    }
  } catch (const std::exception& e) {
    const std::string failure = std::string("set-up threw: ") + e.what();
    std::cerr << "FAILED: " << failure << "\n";
    write_result(out_dir, false, 1, 1, {failure}, {});
    return 1;
  }

  tally counts;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, metric> metrics;
  wsan::exp::figure_report report;
  report.figure = "perfbench." + name;
  report.title = "perfbench " + name + (traced ? " (traced)" : "");
  report.seed = seed;
  report.jobs = 1;
  report.parameters = {{"workload", name},
                       {"mode", traced ? "traced" : "untraced"},
                       {"seconds", std::to_string(seconds)}};
  json::value observability = nullptr;

  // The traced run compares passes with each other, so it runs wherever
  // the scheduler puts it; the untraced run's first unit runs on the CPU
  // it warms up on.
  if (traced)
    cpus.release();
  else
    cpus.next();
  span_ledger off(false);
  {
    // Warm-up: let caches and lazy allocations settle, then start over.
    tally ignored;
    const auto warm = run_loop(
        *w, off, ignored, failures,
        [](const loop_result& r) {
          return r.wall_ms >= k_warmup_ms || r.at_boundary;
        },
        [](const unit_record&) {});
    attempted += warm.attempted;
    failed += warm.failed;
    w->rewind();
  }

  if (traced) {
    traced_run(*w, name, seed, seconds, out_dir, counts, failures, attempted,
               failed, metrics, report, observability);
    metrics["topo.build_ms"] = {wsan::stats::quantile(topo_ms, 0.5), "ms"};
    metrics["graph.build_ms"] = {wsan::stats::quantile(graph_ms, 0.5), "ms"};
    metrics["flow.generate_ms"] = {wsan::stats::quantile(flow_ms, 0.5), "ms"};
  } else {
    std::vector<double> ops_per_s;
    std::vector<double> p50;
    std::vector<double> p90;
    const double budget_ms = std::min(seconds * 1e3, k_max_timed_ms);
    const auto r = run_loop(
        *w, off, counts, failures,
        [&](const loop_result& s) {
          return (s.wall_ms >= budget_ms && s.at_boundary) ||
                 s.wall_ms >= k_max_timed_ms;
        },
        [&](const unit_record& u) {
          if (highest_tail_permille(u.op_ms.size()) < 900) {
            ++failed;
            failures.push_back("a unit of " + std::to_string(u.op_ms.size()) +
                               " ops is too small for a p90");
          }
          ops_per_s.push_back(static_cast<double>(u.op_ms.size()) /
                              (u.wall_ms / 1e3));
          p50.push_back(percentile(u.op_ms, 500));
          p90.push_back(percentile(u.op_ms, 900));
          cpus.next();
        });
    attempted += r.attempted;
    failed += r.failed;
    if (ops_per_s.empty()) {
      ++failed;
      failures.push_back("the run completed no unit");
    }
    // The least-disturbed CPU and unit: interference from other
    // processes only ever adds time, so the best is the steadiest
    // estimate.
    double setup = std::numeric_limits<double>::infinity();
    for (const auto& on_cpu : setup_s_by_cpu)
      if (!on_cpu.empty())
        setup = std::min(setup, wsan::stats::quantile(on_cpu, 0.5));
    metrics["setup_s"] = {setup, "s"};
    metrics["ops_per_s"] = {max_of(ops_per_s), "1/s"};
    metrics["op_ms_p50"] = {min_of(p50), "ms"};
    metrics["op_ms_p90"] = {min_of(p90), "ms"};
    report.trials = static_cast<int>(r.ops);
    report.wall_seconds = r.wall_ms / 1e3;
    report.parameters["units"] = std::to_string(ops_per_s.size());
  }

  // ---- end-of-run checks and the path guard -------------------------
  const auto final_failures = w->finish(counts);
  if (!final_failures.empty()) {
    ++failed;
    failures.insert(failures.end(), final_failures.begin(),
                    final_failures.end());
  }
  const auto missed = path_guard(w->evidence(counts));
  for (const auto& why : missed) failures.push_back("path guard: " + why);
  const bool correct = failures.empty();

  if (!traced) {
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    wsan::exp::report_panel timings{"timings", "run", {{}}};
    for (const auto& [key, m] : metrics) {
      timings.points[0].values[key] = m.value;
      report.measurement_keys.push_back(key);
    }
    // Deterministic outcome of the run: every check and the path guard.
    wsan::exp::report_panel outcome{"outcome", "run", {{}}};
    outcome.points[0].values = {
        {"checks_failed", static_cast<double>(failed)},
        {"path_missed", static_cast<double>(missed.size())}};
    report.panels = {outcome, timings};
  }
  wsan::exp::write_reports_file(
      {report}, observability,
      (out_dir / (traced ? "trace_report.json" : "report.json")).string());

  write_result(out_dir, correct, attempted, failed, failures, metrics);

  for (const auto& f : failures) std::cerr << "FAILED: " << f << "\n";
  std::cout << "perfbench " << name << " seed " << seed << " ("
            << (traced ? "traced" : "untraced") << "): " << attempted
            << " ops, " << failed << " failed\n";
  for (const auto& [key, m] : metrics)
    std::cout << "  " << std::left << std::setw(32) << key << std::right
              << std::setprecision(6) << std::defaultfloat << m.value << " "
              << m.unit << "\n";
  return correct ? 0 : 1;
}
