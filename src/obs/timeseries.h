// Temporal observability: windowed metric series (DESIGN.md §15).
//
// A `series` is an ordered list of windows keyed by a deterministic
// index — an epoch or operation count, never wall-clock — so two runs
// of the same workload produce bit-identical series at any --jobs
// value. Each window holds named scalar values plus optional
// fixed-bucket histograms (admission latency, PDR, ...) that merge
// exactly like the registry histograms in metrics.h.
//
// `series_recorder` is the builder: engines call begin_window(index),
// set()/add()/observe() deterministic per-window facts, and
// end_window().
//
// Exporters: write_series_jsonl() emits a self-describing JSONL file
// (header line `{"schema":"wsan-series/1",...}` then one line per
// window) and write_series_openmetrics() emits OpenMetrics-style text
// exposition with a `window` label per sample. Serialisation is
// hand-rolled like events.cpp — obs stays dependency-free; parsing
// lives in exp::obs_io on top of exp::json.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace wsan::obs {

/// One window of a series: the metric values at (or over) the window
/// with deterministic index `index`.
struct series_window {
  std::int64_t index = 0;
  std::map<std::string, double> values;
  std::map<std::string, histogram_snapshot> histograms;
};

/// An ordered run of windows. `index_unit` documents what the index
/// counts ("epoch", "op", ...).
struct series {
  std::string name;
  std::string index_unit = "epoch";
  std::vector<series_window> windows;
};

/// Incremental series builder; not thread-safe (one engine, one
/// recorder — parallel trial workers aggregate first, then record).
class series_recorder {
 public:
  struct options {
    std::string name = "series";
    std::string index_unit = "epoch";
  };

  series_recorder() : series_recorder(options{}) {}
  explicit series_recorder(options opts);

  /// Opens a window; indices must be strictly increasing.
  void begin_window(std::int64_t index);
  /// Sets (overwrites) a scalar value in the open window.
  void set(std::string_view name, double value);
  /// Accumulates into a scalar value in the open window.
  void add(std::string_view name, double delta);
  /// Observes one value into a per-window histogram with the given
  /// inclusive upper bounds (overflow bucket appended, as in
  /// metrics.h). Bounds must be identical across calls for one name.
  void observe(std::string_view name, const std::vector<double>& bounds,
               double value);
  /// Merges a whole histogram snapshot into the open window.
  void merge_histogram(std::string_view name, const histogram_snapshot& h);
  /// Closes the window and returns it (valid until the next begin).
  const series_window& end_window();

  /// The finished series; requires no open window.
  const series& result() const;

 private:
  options opts_;
  series series_;
  series_window current_;
  bool open_ = false;
};

/// Serialises one window as a single JSON line (no trailing newline):
///   {"index":4,"values":{"pdr":0.97},"histograms":{...}}
std::string window_to_jsonl(const series_window& w);

/// JSONL file: header line with schema/name/index_unit, then one line
/// per window.
void write_series_jsonl(const series& s, std::ostream& os);

/// OpenMetrics-style text exposition: every scalar as a gauge sample
/// with a `window` label, histograms as `_bucket`/`_count` samples,
/// terminated by `# EOF`. Names are sanitised to [a-z0-9_] and
/// prefixed "wsan_".
void write_series_openmetrics(const series& s, std::ostream& os);

}  // namespace wsan::obs
