#include "sim/faults.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/record.h"
#include "obs/events.h"

namespace wsan::sim {

namespace {

void check_interval(int start, int end, const std::string& what) {
  WSAN_REQUIRE(start >= 0, what + ": start run must be non-negative");
  WSAN_REQUIRE(end == -1 || end > start,
               what + ": end run must be -1 or after the start run");
}

void check_node(node_id node, int num_nodes, const std::string& what) {
  WSAN_REQUIRE(node >= 0, what + ": node id must be non-negative");
  if (num_nodes >= 0)
    WSAN_REQUIRE(node < num_nodes, what + ": node id out of range");
}

/// True iff [start, end) (end == -1 meaning infinity) contains run.
bool interval_contains(int start, int end, int run) {
  return run >= start && (end == -1 || run < end);
}

/// Intersects [start, end) with the window [first, first + count) and
/// shifts into window-local indices. Returns false when disjoint.
bool shift_interval(int& start, int& end, int first, int count) {
  if (end != -1 && end <= first) return false;
  if (start >= first + count) return false;
  start = std::max(start - first, 0);
  if (end != -1) end = std::min(end - first, count);
  return true;
}

}  // namespace

void validate_fault_plan(const fault_plan& plan, int num_nodes) {
  for (const auto& c : plan.crashes) {
    check_node(c.node, num_nodes, "node crash");
    check_interval(c.start_run, c.restart_run, "node crash");
  }
  for (const auto& l : plan.link_failures) {
    check_node(l.sender, num_nodes, "link failure");
    check_node(l.receiver, num_nodes, "link failure");
    WSAN_REQUIRE(l.sender != l.receiver,
                 "link failure: sender and receiver must differ");
    check_interval(l.start_run, l.end_run, "link failure");
  }
  for (const auto& s : plan.suppressions) {
    check_node(s.node, num_nodes, "report suppression");
    check_interval(s.start_run, s.end_run, "report suppression");
  }
  for (const auto& j : plan.jams) {
    WSAN_REQUIRE(j.slot >= 0, "jammed slot: slot must be non-negative");
    check_interval(j.start_run, j.end_run, "jammed slot");
  }
}

fault_plan slice_fault_plan(const fault_plan& plan, int first_run,
                            int num_runs) {
  WSAN_REQUIRE(first_run >= 0, "window start must be non-negative");
  WSAN_REQUIRE(num_runs >= 0, "window length must be non-negative");
  // Reject malformed plans up front: slicing an interval whose end
  // precedes its start would silently produce a plausible-looking but
  // meaningless sub-plan.
  validate_fault_plan(plan);
  fault_plan out;
  if (num_runs == 0) return out;
  for (auto c : plan.crashes) {
    if (shift_interval(c.start_run, c.restart_run, first_run, num_runs))
      out.crashes.push_back(c);
  }
  for (auto l : plan.link_failures) {
    if (shift_interval(l.start_run, l.end_run, first_run, num_runs))
      out.link_failures.push_back(l);
  }
  for (auto s : plan.suppressions) {
    if (shift_interval(s.start_run, s.end_run, first_run, num_runs))
      out.suppressions.push_back(s);
  }
  for (auto j : plan.jams) {
    if (shift_interval(j.start_run, j.end_run, first_run, num_runs))
      out.jams.push_back(j);
  }
  return out;
}

void save_fault_plan(const fault_plan& plan, std::ostream& os) {
  os << "faultplan "
     << plan.crashes.size() + plan.link_failures.size() +
            plan.suppressions.size() + plan.jams.size()
     << "\n";
  for (const auto& c : plan.crashes)
    os << "crash " << c.node << ' ' << c.start_run << ' ' << c.restart_run
       << "\n";
  for (const auto& l : plan.link_failures)
    os << "linkfail " << l.sender << ' ' << l.receiver << ' ' << l.start_run
       << ' ' << l.end_run << "\n";
  for (const auto& s : plan.suppressions)
    os << "suppress " << s.node << ' ' << s.start_run << ' ' << s.end_run
       << "\n";
  for (const auto& j : plan.jams)
    os << "jam " << j.slot << ' ' << j.start_run << ' ' << j.end_run
       << "\n";
}

fault_plan load_fault_plan(std::istream& is) {
  fault_plan plan;
  bool have_header = false;
  std::size_t declared = 0;
  std::string line;
  int line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    const std::string where = " at line " + std::to_string(line_no);
    if (kind == "faultplan") {
      WSAN_REQUIRE(!have_header, "duplicate faultplan header" + where);
      ls >> declared;
      require_record_end(ls, "malformed header" + where);
      have_header = true;
    } else if (kind == "crash") {
      WSAN_REQUIRE(have_header, "crash record before header" + where);
      node_crash c;
      ls >> c.node >> c.start_run >> c.restart_run;
      require_record_end(ls, "malformed crash record" + where);
      plan.crashes.push_back(c);
    } else if (kind == "linkfail") {
      WSAN_REQUIRE(have_header, "linkfail record before header" + where);
      link_failure l;
      ls >> l.sender >> l.receiver >> l.start_run >> l.end_run;
      require_record_end(ls, "malformed linkfail record" + where);
      plan.link_failures.push_back(l);
    } else if (kind == "suppress") {
      WSAN_REQUIRE(have_header, "suppress record before header" + where);
      report_suppression s;
      ls >> s.node >> s.start_run >> s.end_run;
      require_record_end(ls, "malformed suppress record" + where);
      plan.suppressions.push_back(s);
    } else if (kind == "jam") {
      WSAN_REQUIRE(have_header, "jam record before header" + where);
      jammed_slot j;
      ls >> j.slot >> j.start_run >> j.end_run;
      require_record_end(ls, "malformed jam record" + where);
      plan.jams.push_back(j);
    } else {
      WSAN_REQUIRE(false, "unknown record kind '" + kind + "'" + where);
    }
  }
  WSAN_REQUIRE(have_header, "stream contained no faultplan header");
  WSAN_REQUIRE(plan.crashes.size() + plan.link_failures.size() +
                       plan.suppressions.size() + plan.jams.size() ==
                   declared,
               "fault record count does not match the header");
  validate_fault_plan(plan);
  return plan;
}

void save_fault_plan_file(const fault_plan& plan, const std::string& path) {
  std::ofstream os(path);
  WSAN_REQUIRE(os.good(), "cannot open file for writing: " + path);
  save_fault_plan(plan, os);
}

fault_plan load_fault_plan_file(const std::string& path) {
  std::ifstream is(path);
  WSAN_REQUIRE(is.good(), "cannot open file for reading: " + path);
  return load_fault_plan(is);
}

fault_state::fault_state(const fault_plan& plan, int num_nodes)
    : plan_(plan), any_(!plan.empty()) {
  WSAN_REQUIRE(num_nodes >= 0, "node count must be non-negative");
  validate_fault_plan(plan_, num_nodes);
  node_down_.assign(static_cast<std::size_t>(num_nodes), 0);
  withheld_.assign(static_cast<std::size_t>(num_nodes), 0);
  slot_t max_slot = -1;
  for (const auto& j : plan_.jams) max_slot = std::max(max_slot, j.slot);
  jammed_.assign(static_cast<std::size_t>(max_slot + 1), 0);
}

void fault_state::begin_run(int run) {
  if (!any_) return;
  std::fill(node_down_.begin(), node_down_.end(), 0);
  std::fill(withheld_.begin(), withheld_.end(), 0);
  std::fill(jammed_.begin(), jammed_.end(), 0);
  links_down_.clear();
  // Fault-plan executions are logged once, at the run where each fault
  // switches on — not on every run it stays active.
  for (const auto& c : plan_.crashes) {
    if (interval_contains(c.start_run, c.restart_run, run)) {
      node_down_[static_cast<std::size_t>(c.node)] = 1;
      withheld_[static_cast<std::size_t>(c.node)] = 1;
      if (run == c.start_run && obs::events_enabled())
        obs::emit(obs::severity::warning, "sim", "fault_node_crash",
                  {{"node", c.node},
                   {"run", run},
                   {"restart_run", c.restart_run}});
    }
  }
  for (const auto& s : plan_.suppressions) {
    if (interval_contains(s.start_run, s.end_run, run)) {
      withheld_[static_cast<std::size_t>(s.node)] = 1;
      if (run == s.start_run && obs::events_enabled())
        obs::emit(obs::severity::warning, "sim",
                  "fault_report_suppression",
                  {{"node", s.node}, {"run", run}, {"end_run", s.end_run}});
    }
  }
  for (const auto& l : plan_.link_failures) {
    if (interval_contains(l.start_run, l.end_run, run)) {
      links_down_.emplace_back(l.sender, l.receiver);
      if (run == l.start_run && obs::events_enabled())
        obs::emit(obs::severity::warning, "sim", "fault_link_failure",
                  {{"sender", l.sender},
                   {"receiver", l.receiver},
                   {"run", run},
                   {"end_run", l.end_run}});
    }
  }
  for (const auto& j : plan_.jams) {
    if (interval_contains(j.start_run, j.end_run, run)) {
      jammed_[static_cast<std::size_t>(j.slot)] = 1;
      if (run == j.start_run && obs::events_enabled())
        obs::emit(obs::severity::warning, "sim", "fault_jammed_slot",
                  {{"slot", j.slot},
                   {"run", run},
                   {"end_run", j.end_run}});
    }
  }
}

bool fault_state::link_down(node_id sender, node_id receiver) const {
  if (links_down_.empty()) return false;
  for (const auto& [s, r] : links_down_)
    if (s == sender && r == receiver) return true;
  return false;
}

}  // namespace wsan::sim
