// Reference-vs-candidate comparison of simulator observation streams.
//
// Bridges the simulator's per-link PRR sample streams into the generic
// K-S equivalence gate (stats/equivalence.h): every link contributes
// one group per observation kind ("s->r/reuse", "s->r/cf"), with the
// per-run PRR sample values pooled across all supplied results (one
// sim_result per seed). This is the harness the fast simulator engine
// is gated on against the naive one — see DESIGN.md §10 and
// tests/fade_equivalence_test.cpp.
#pragma once

#include <vector>

#include "sim/simulator.h"
#include "stats/equivalence.h"

namespace wsan::detect {

/// Builds the per-link PRR sample groups from matched result vectors
/// (same scenarios, same seeds, different engines) and runs the gate.
/// Links are grouped by identity, so both sides must come from the
/// same schedule; a link present on one side only still forms a group
/// (it will be skipped or rejected depending on sample counts, which
/// is the behavior we want — a kernel that changes *which* links
/// observe traffic is not equivalent).
stats::ks_gate_result compare_prr_streams(
    const std::vector<sim::sim_result>& reference_runs,
    const std::vector<sim::sim_result>& candidate_runs,
    const stats::ks_gate_config& config = {});

}  // namespace wsan::detect
