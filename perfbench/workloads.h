// The benchmark's workloads. Each drives the library from outside,
// through its public calls, as a closed loop with one worker: the
// driver (main.cpp) times run_op() and starts the next op when it
// returns. Inputs are a pure function of the workload seed and are
// built in setup(), before timing starts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

using steady = std::chrono::steady_clock;

inline double ms_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Busy time per layer from the benchmark's own spans around public
/// calls. Off in the untimed-overhead (untraced) run, where time() is a
/// plain call.
class span_ledger {
 public:
  explicit span_ledger(bool on) : on_(on) {}

  bool on() const { return on_; }

  template <typename F>
  decltype(auto) time(const char* layer, F&& f) {
    const stopwatch watch(on_ ? &busy_ms_[layer] : nullptr);
    return f();
  }

  void add(const char* layer, double ms) {
    if (on_) busy_ms_[layer] += ms;
  }

  const std::map<std::string, double>& busy_ms() const { return busy_ms_; }

 private:
  struct stopwatch {
    explicit stopwatch(double* sink) : sink(sink) {
      if (sink != nullptr) start = steady::now();
    }
    ~stopwatch() {
      if (sink != nullptr) *sink += ms_between(start, steady::now());
    }
    stopwatch(const stopwatch&) = delete;
    stopwatch& operator=(const stopwatch&) = delete;
    double* sink;
    steady::time_point start{};
  };

  bool on_;
  std::map<std::string, double> busy_ms_;
};

/// Deterministic counts a workload reads from returned values, keyed by
/// the per-layer metric they feed.
using tally = std::map<std::string, double>;

/// counts[part] / counts[whole]; 0 when the whole is 0 or absent.
double ratio(const tally& counts, const std::string& part,
             const std::string& whole);

enum class op_kind { plain, admit, evict };

/// Wall time of the set-up steps, in ms.
struct setup_split {
  double env_ms = 0.0;  ///< topology, graphs and hop matrix
  double flow_ms = 0.0;
};

class workload {
 public:
  virtual ~workload() = default;

  /// Builds the environment and every input of the run.
  virtual setup_split setup() = 0;
  /// Builds the workload's topology alone and drops it. setup() builds
  /// it inside env_ms; the driver times this call apart, outside
  /// setup_s, to split topology from graph time.
  virtual void build_topology() const = 0;
  /// Returns to the first op with fresh state, so the traced run
  /// replays exactly the ops of its untraced pass.
  virtual void rewind() = 0;
  /// Work between ops that is not itself an op (a new trial's engine);
  /// part of the loop's wall time, outside every op's latency.
  virtual void between_ops(span_ledger& spans) { (void)spans; }
  /// The next op. The caller times it.
  virtual op_kind run_op(span_ledger& spans) = 0;
  /// Checks the op just run and adds its counts; outside the timed
  /// region. Returns the failures (empty when correct).
  virtual std::vector<std::string> check_op(tally& counts) = 0;
  /// End-of-run checks (reference digests, replays, PDR bands).
  virtual std::vector<std::string> finish(tally& counts) = 0;
  /// True when the ops run since the last rewind() end exactly on a
  /// unit boundary. A unit is the block the metrics are taken over (a
  /// pass over the flow-set pool, a fleet round, a batch of scenario
  /// trials); the traced run replays the first one.
  virtual bool unit_complete() const = 0;
  virtual path_evidence evidence(const tally& counts) const = 0;
};

/// "reliability-reuse", "fleet-reuse" or "scenario-epochs"; nullptr for
/// an unknown name.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
