// Registry of the bench experiments: every paper figure and extension
// is a named entry that `wsanctl bench --figure ID | --all` runs. An
// experiment prints its text tables to the given stream AND fills an
// exp::figure_report for --json output, both from the same aggregates.
//
// All experiments honor the harness flags (--jobs/--trials/--seed/
// --json/--replay, see exp/options.h) plus their figure-specific ones
// (e.g. --flows, --runs), read from the same cli_args. A failed check
// (e.g. an unsound analysis) throws, so the run exits non-zero.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/cli.h"
#include "exp/options.h"
#include "exp/report.h"

namespace wsan::bench {

struct figure_def {
  std::string id;       ///< stable id: "fig1", "detector", ...
  std::string summary;  ///< one-liner for `wsanctl bench --list`

  /// Runs the full figure; prints the text tables to `out`.
  exp::figure_report (*run)(const exp::run_options&, const cli_args&,
                            std::ostream& out);
  /// Replays options.replay (point:trial) in isolation and prints the
  /// trial's outcome. Returns false when the target is out of range.
  /// Null for the experiments that have no trials (fig7, obsoverhead).
  bool (*replay)(const exp::run_options&, const cli_args&,
                 std::ostream& out);
};

/// Every experiment: the paper's figures in figure order, then the
/// extensions.
const std::vector<figure_def>& figures();

/// nullptr when no figure has that id.
const figure_def* find_figure(const std::string& id);

// The registry's parts, one per source file.
std::vector<figure_def> harness_figures();  // experiments.cpp
std::vector<figure_def> sweep_figures();    // sweeps.cpp
std::vector<figure_def> one_off_figures();  // one_offs.cpp

}  // namespace wsan::bench
