// Bridges the observability subsystem (src/obs) into the experiment
// harness: JSON conversion of metrics snapshots, the report
// container's "observability" section, per-run obs sessions driven by
// run_options, and the text rendering behind `wsanctl obs`.
//
// A standalone metrics file (--metrics FILE) is the versioned document
//
//   { "schema": "wsan-obs-snapshot/1",
//     "metrics": { "counters": {..}, "histograms": {..} },
//     "timings": { "spans": { "<name>": { "count": N, "total_ns": N } } } }
//
// Everything under "metrics" (and span counts) is deterministic for a
// deterministic workload; "timings" holds wall-clock measurements and
// is the clearly non-deterministic side section. The report
// container's "observability" value is the same document minus its
// "schema" key.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/json.h"
#include "exp/options.h"
#include "obs/events.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace wsan::exp {

/// The standalone snapshot document (with "schema").
json::value snapshot_to_json(const obs::snapshot& snap);

/// The report container's "observability" section (without "schema").
json::value observability_section(const obs::snapshot& snap);

/// Renders a snapshot document, a report observability section, or a
/// whole report container (its observability section is extracted) as
/// aligned text tables. Returns false — printing a note instead — when
/// the document's observability section is null.
bool print_obs_document(const json::value& doc, std::ostream& os);

/// Prints the span table of a snapshot (name, count, total ms, mean
/// us) — the per-phase breakdown benches show when obs is enabled.
void print_span_table(const obs::snapshot& snap, std::ostream& os);

// --------------------------------------------- temporal telemetry --
// obs writes series and dumps with hand-rolled serialisation; the exp
// layer owns parsing (exp::json) and rendering, keeping src/obs free
// of upward dependencies.

/// Parses a wsan-series/1 JSONL stream (obs::write_series_jsonl).
obs::series series_from_jsonl(std::istream& is);
obs::series series_from_jsonl_file(const std::string& path);

/// The per-figure "health" block stored under the report container's
/// optional "health" key: the policy that was evaluated plus one
/// verdict per subject (bench point name, tenant, ...).
json::value health_section(
    const obs::slo_policy& policy,
    const std::vector<std::pair<std::string, obs::health_verdict>>&
        verdicts);

/// Renders one figure's health block as tables. Returns true iff every
/// verdict in it is healthy.
bool print_health_block(const json::value& health, std::ostream& os);

/// Renders a series as one row per metric — min / mean / max / last
/// plus a unicode sparkline over the windows (the `wsanctl top` view).
void print_series_table(const obs::series& s, std::ostream& os);

/// Renders a wsan-flight-recorder/1 post-mortem dump
/// (obs::flight_recorder): the trigger, the drop counters, the retained
/// windows as a series table, and the retained event tail (the
/// `wsanctl flight` view). Returns false, printing nothing, when the
/// document is not such a dump.
bool print_flight_dump(const json::value& doc, std::ostream& os);

/// Per-run observability session. When the options request any
/// observability output, the constructor resets the metrics registry,
/// enables recording, and — for --trace — installs a JSONL event sink.
/// finish() takes the snapshot, writes the --metrics file if
/// requested, uninstalls the sink, and disables recording; the
/// destructor does the same bookkeeping (without file writes beyond
/// the trace already streamed) if finish() was never reached.
class obs_session {
 public:
  explicit obs_session(const run_options& options);
  /// Same, with an additional event sink (e.g. a flight recorder) that
  /// is tee'd with the --trace sink. A non-null extra sink activates
  /// the session even when the options request no other output.
  obs_session(const run_options& options,
              std::shared_ptr<obs::event_sink> extra_sink);
  ~obs_session();

  obs_session(const obs_session&) = delete;
  obs_session& operator=(const obs_session&) = delete;

  /// True when this session turned observability on.
  bool active() const { return active_; }

  /// Ends collection and returns the merged snapshot (empty when the
  /// session was inactive). Idempotent.
  const obs::snapshot& finish();

  /// After finish(), when the session was active: the per-phase span
  /// table, then where the metrics snapshot and the event trace went.
  /// The observability epilogue of every command that runs a session.
  void print_summary(std::ostream& os) const;

 private:
  bool active_ = false;
  bool finished_ = false;
  std::string metrics_path_;
  std::string trace_path_;
  obs::snapshot snap_;
};

}  // namespace wsan::exp
