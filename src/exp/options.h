// Shared command-line surface of the experiment harness.
//
// Every migrated bench binary (and `wsanctl bench`) accepts the same
// harness flags on top of its figure-specific ones:
//
//   --jobs N            worker threads (0 = all hardware threads)
//   --trials N          Monte-Carlo trials / flow sets per data point
//   --seed N            experiment seed (figure default when omitted)
//   --json FILE         also write the machine-readable report
//   --replay POINT:TRIAL  re-run one trial in isolation and print it
//   --metrics FILE      write an observability metrics snapshot
//   --trace FILE        stream structured events as JSON lines
//   --series FILE       write per-epoch series files (wsan-series/1
//                       JSONL); figures that have no epoch dimension
//                       ignore it
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.h"

namespace wsan::exp {

struct replay_target {
  int point = -1;
  int trial = -1;
  bool requested() const { return point >= 0; }
};

struct run_options {
  int jobs = 1;
  int trials = -1;  ///< -1: use the figure's default
  std::uint64_t seed = 0;
  bool seed_overridden = false;  ///< --seed was given explicitly
  std::string json_path;         ///< empty: no JSON output
  replay_target replay;
  std::string metrics_path;  ///< empty: no metrics snapshot file
  std::string trace_path;    ///< empty: no event trace file
  /// Base path for per-epoch series files ("" = none). A figure that
  /// emits several series inserts its id before the extension. Series
  /// are built from deterministic aggregates, so this does not enable
  /// the obs runtime.
  std::string series_path;

  /// True when any observability output was asked for; the harness
  /// enables the obs runtime for the run exactly in this case.
  bool obs_requested() const {
    return !metrics_path.empty() || !trace_path.empty();
  }

  /// The series file a figure should write: the --series path with the
  /// figure id inserted before the extension ("s.jsonl" ->
  /// "s.churn.jsonl"), so --all runs never clobber one another. Empty
  /// when --series was not given.
  std::string series_file_for(const std::string& figure) const;

  /// The figure-specific trial count: the --trials value when given,
  /// otherwise the figure's default.
  int trials_or(int fallback) const {
    return trials >= 0 ? trials : fallback;
  }
  std::uint64_t seed_or(std::uint64_t fallback) const {
    return seed_overridden ? seed : fallback;
  }
};

/// Parses the harness flags out of an already-constructed cli_args.
/// Figure-specific flags stay readable from the same cli_args.
/// Throws std::invalid_argument on a malformed --replay target.
run_options parse_run_options(const cli_args& args);

/// Parses "POINT:TRIAL" (both non-negative integers).
replay_target parse_replay_target(const std::string& spec);

}  // namespace wsan::exp
