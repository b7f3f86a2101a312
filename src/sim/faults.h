// Fault injection for the slot-level simulator (DESIGN.md §7).
//
// A fault_plan scripts the failures a deployment suffers, at run (schedule
// execution) granularity: node crashes (permanent, or transient with a
// restart run), directed link failures (a radio front-end or antenna fault
// that kills one direction of a pair while the node itself stays up), and
// suppressed health reports (the node works but its statistics never reach
// the manager — a congested or lossy management route). The simulator
// executes the plan: a crashed node never transmits, receives, or relays,
// and the observations it would report stop flowing, which is exactly the
// silence the network manager's watchdog must interpret.
//
// Reporting convention: a link's observation stream is reported by its
// *sender* (the sender counts attempts and ACK-confirmed successes, as a
// WirelessHART device does). A crashed or suppressed node therefore
// withholds the streams of its outgoing links; a crashed *receiver* leaves
// the stream flowing — the sender faithfully reports a PRR collapse.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/ids.h"

namespace wsan::sim {

/// A node crash. The node is down for runs in [start_run, restart_run);
/// restart_run == -1 means it never comes back (battery death).
struct node_crash {
  node_id node = k_invalid_node;
  int start_run = 0;
  int restart_run = -1;

  friend bool operator==(const node_crash&, const node_crash&) = default;
};

/// A directed link failure for runs in [start_run, end_run); end_run == -1
/// is permanent. Transmissions and probes on the link fail; the sender
/// keeps transmitting (and reporting), so the manager sees PRR 0.
struct link_failure {
  node_id sender = k_invalid_node;
  node_id receiver = k_invalid_node;
  int start_run = 0;
  int end_run = -1;

  friend bool operator==(const link_failure&, const link_failure&) = default;
};

/// Suppressed health reports for runs in [start_run, end_run); end_run ==
/// -1 is permanent. The node's traffic is unaffected — only the
/// observations it reports as a sender are withheld, making it
/// indistinguishable from a crashed node to the manager's watchdog.
struct report_suppression {
  node_id node = k_invalid_node;
  int start_run = 0;
  int end_run = -1;

  friend bool operator==(const report_suppression&,
                         const report_suppression&) = default;
};

/// A jammed slot for runs in [start_run, end_run); end_run == -1 is
/// permanent. Every transmission scheduled in slot `slot` of the TSCH
/// frame fails at the receiver while the jam is active — the model of a
/// wideband timing-predicting jammer that blankets one slot across all
/// channels. Senders keep transmitting and reporting (they observe the
/// losses), so the manager sees the PRR collapse on the jammed slot's
/// links.
struct jammed_slot {
  slot_t slot = 0;
  int start_run = 0;
  int end_run = -1;

  friend bool operator==(const jammed_slot&, const jammed_slot&) = default;
};

/// The full fault script of one experiment. An empty plan is a strict
/// no-op: the simulator's output (including its RNG consumption) is
/// bit-identical to a run without fault support.
struct fault_plan {
  std::vector<node_crash> crashes;
  std::vector<link_failure> link_failures;
  std::vector<report_suppression> suppressions;
  std::vector<jammed_slot> jams;

  bool empty() const {
    return crashes.empty() && link_failures.empty() &&
           suppressions.empty() && jams.empty();
  }

  friend bool operator==(const fault_plan&, const fault_plan&) = default;
};

/// Validates structural invariants (non-negative runs, sender != receiver,
/// end after start) and, when num_nodes >= 0, that every node id is in
/// [0, num_nodes). Throws std::invalid_argument on violation.
void validate_fault_plan(const fault_plan& plan, int num_nodes = -1);

/// Restricts the plan to the run window [first_run, first_run + num_runs)
/// and re-expresses it in window-local run indices — how an epoch-driven
/// caller feeds one global plan to per-epoch run_simulation calls. Faults
/// that do not intersect the window are dropped; an interval starting
/// exactly at the window's end (or ending exactly at its start) is
/// outside the half-open window and is dropped, so adjacent epoch slices
/// partition the plan without overlap. The input plan is validated
/// (malformed intervals — e.g. end before start — are rejected rather
/// than sliced silently). num_runs == 0 is an empty window and yields an
/// empty plan, preserving the empty-plan bit-identity guarantee for
/// degenerate epochs.
fault_plan slice_fault_plan(const fault_plan& plan, int first_run,
                            int num_runs);

// ------------------------------------------------------- text format --
//
//   faultplan 4
//   crash 5 10 -1
//   linkfail 3 7 0 20
//   suppress 2 5 10
//   jam 14 0 -1
//
// One record per line: `crash NODE START RESTART`, `linkfail SENDER
// RECEIVER START END`, `suppress NODE START END`, `jam SLOT START END`;
// -1 means "forever". The header count must match the number of records.

void save_fault_plan(const fault_plan& plan, std::ostream& os);
fault_plan load_fault_plan(std::istream& is);
fault_plan load_fault_plan_file(const std::string& path);

/// Per-run fault snapshot with O(1) queries for the simulator hot path.
/// begin_run(r) refreshes the snapshot; queries then answer for run r.
class fault_state {
 public:
  /// Validates the plan against the node count.
  fault_state(const fault_plan& plan, int num_nodes);

  /// True iff the plan contains any fault — the hot path's fast-out.
  bool any() const { return any_; }

  void begin_run(int run);

  /// True iff the node is crashed in the current run.
  bool node_down(node_id node) const {
    return any_ && node_down_[static_cast<std::size_t>(node)];
  }

  /// True iff the directed link has failed in the current run (the
  /// endpoints themselves may be up).
  bool link_down(node_id sender, node_id receiver) const;

  /// True iff the statistics this node reports as a sender are withheld
  /// in the current run (crashed or suppressed).
  bool reports_withheld(node_id node) const {
    return any_ && withheld_[static_cast<std::size_t>(node)];
  }

  /// True iff the given TSCH slot is jammed in the current run.
  bool slot_jammed(slot_t slot) const {
    return any_ && static_cast<std::size_t>(slot) < jammed_.size() &&
           jammed_[static_cast<std::size_t>(slot)];
  }

 private:
  fault_plan plan_;
  bool any_ = false;
  std::vector<char> node_down_;  // per node, current run
  std::vector<char> withheld_;   // per node, current run
  std::vector<char> jammed_;     // per slot, current run
  std::vector<std::pair<node_id, node_id>> links_down_;  // current run
};

}  // namespace wsan::sim
