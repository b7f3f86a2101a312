// bench_diff — compares two wsan-bench-report/1 containers.
//
//   bench_diff BASELINE.json CANDIDATE.json [--rel-tol R] [--abs-tol A]
//              [--science-tol S] [--out FILE]
//
// The comparison is split along the repo's determinism contract:
//
//   * science values — everything that survives exp::science_payload()
//     — must match BIT-EXACTLY by default; any difference is a
//     "science change" (the workload, seed, or algorithm changed, or
//     determinism broke). --science-tol S relaxes this to a relative
//     band, which is the right oracle across simulator engines
//     (DESIGN.md §10): the fast engine's contract with the naive one
//     is statistical equivalence, so panel deltas between them are
//     gated on |rel change| <= S instead of bit-exactness. S = 0 (the
//     default) keeps the strict contract.
//   * measurement values — wall_seconds and every panel series listed
//     in a report's measurement_keys — are wall-clock noise; they are
//     compared with a relative tolerance (--rel-tol, default 0.10)
//     plus an absolute slack in the key's own units (--abs-tol,
//     default 0 — smoke-sized runs want e.g. 1.0 so sub-second wall
//     jitter, which is all noise, cannot out-shout the relative band)
//     and a direction per key: throughput-shaped keys (…per_s) regress
//     downward, latency-shaped keys (…_us/_ns/_ms, wall…, …latency…)
//     regress upward, anything else only drifts (never fails).
//
// Exit status: 0 when the candidate has no science changes and no
// measurement regressions; 1 otherwise; 2 on usage/parse errors.
// --out writes a machine-readable wsan-bench-diff/1 summary.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"
#include "exp/json.h"
#include "exp/report.h"

namespace {

using namespace wsan;

enum class direction { higher_is_worse, lower_is_worse, undirected };

direction key_direction(const std::string& key) {
  const auto contains = [&key](const char* needle) {
    return key.find(needle) != std::string::npos;
  };
  if (contains("per_s")) return direction::lower_is_worse;
  if (contains("wall") || contains("latency") || contains("_us") ||
      contains("_ns") || contains("_ms"))
    return direction::higher_is_worse;
  return direction::undirected;
}

/// One compared value: where it lives and what both sides said.
struct delta {
  std::string figure;
  std::string location;  ///< "panel/x/key" or a report-level key
  double baseline = 0.0;
  double candidate = 0.0;

  double rel_change() const {
    if (baseline == candidate) return 0.0;
    const double denom = std::max(std::abs(baseline), 1e-12);
    return (candidate - baseline) / denom;
  }
};

struct diff_result {
  std::vector<delta> science_changes;  ///< exact-compare mismatches
  std::vector<delta> regressions;      ///< beyond tolerance, worse
  std::vector<delta> improvements;     ///< beyond tolerance, better
  std::vector<delta> drift;            ///< beyond tolerance, undirected
  std::vector<std::string> structure;  ///< missing figures/panels/points

  bool failed() const {
    return !science_changes.empty() || !regressions.empty() ||
           !structure.empty();
  }
};

bool is_measurement_key(const exp::figure_report& report,
                        const std::string& key) {
  for (const auto& mk : report.measurement_keys)
    if (mk == key) return true;
  return false;
}

/// Noise tolerances for measurement values: a delta is noise when it is
/// within the relative band OR within the absolute slack (in the key's
/// own units), so tiny runs with huge relative jitter still diff clean.
struct tolerances {
  double rel = 0.10;
  double abs = 0.0;
  /// Relative band for science keys; 0 = bit-exact (the default
  /// contract). Non-zero only makes sense when comparing across
  /// kernels whose contract is statistical, not bitwise.
  double science = 0.0;
};

void compare_measurement(const std::string& figure,
                         const std::string& location, double base,
                         double cand, const tolerances& tol,
                         diff_result& out) {
  delta d{figure, location, base, cand};
  if (std::abs(cand - base) <= tol.abs) return;
  if (std::abs(d.rel_change()) <= tol.rel) return;
  switch (key_direction(location)) {
    case direction::higher_is_worse:
      (cand > base ? out.regressions : out.improvements).push_back(d);
      break;
    case direction::lower_is_worse:
      (cand < base ? out.regressions : out.improvements).push_back(d);
      break;
    case direction::undirected:
      out.drift.push_back(d);
      break;
  }
}

const exp::report_panel* find_panel(const exp::figure_report& report,
                                    const std::string& name) {
  for (const auto& panel : report.panels)
    if (panel.name == name) return &panel;
  return nullptr;
}

diff_result diff_containers(const std::vector<exp::figure_report>& base,
                            const std::vector<exp::figure_report>& cand,
                            const tolerances& tol) {
  diff_result out;
  for (const auto& b : base) {
    const exp::figure_report* c = nullptr;
    for (const auto& r : cand)
      if (r.figure == b.figure) c = &r;
    if (c == nullptr) {
      out.structure.push_back("figure " + b.figure +
                              " missing from candidate");
      continue;
    }
    compare_measurement(b.figure, "wall_seconds", b.wall_seconds,
                        c->wall_seconds, tol, out);
    for (const auto& bp : b.panels) {
      const auto* cp = find_panel(*c, bp.name);
      if (cp == nullptr) {
        out.structure.push_back("figure " + b.figure + ": panel \"" +
                                bp.name + "\" missing from candidate");
        continue;
      }
      if (cp->points.size() != bp.points.size()) {
        out.structure.push_back(
            "figure " + b.figure + ": panel \"" + bp.name + "\" has " +
            std::to_string(cp->points.size()) + " point(s), baseline " +
            std::to_string(bp.points.size()));
        continue;
      }
      for (std::size_t i = 0; i < bp.points.size(); ++i) {
        const auto& bpt = bp.points[i];
        const auto& cpt = cp->points[i];
        const std::string at =
            bp.name + "/x=" + cell(bpt.x, bpt.x == static_cast<int>(bpt.x)
                                              ? 0
                                              : 3);
        if (bpt.x != cpt.x) {
          out.structure.push_back("figure " + b.figure + ": " + at +
                                  " x mismatch");
          continue;
        }
        for (const auto& [key, bval] : bpt.values) {
          const auto it = cpt.values.find(key);
          if (it == cpt.values.end()) {
            out.structure.push_back("figure " + b.figure + ": " + at +
                                    " missing series " + key);
            continue;
          }
          const std::string location = at + "/" + key;
          if (is_measurement_key(b, key)) {
            compare_measurement(b.figure, location, bval, it->second,
                                tol, out);
          } else if (bval != it->second) {
            delta d{b.figure, location, bval, it->second};
            if (std::abs(d.rel_change()) > tol.science)
              out.science_changes.push_back(d);
          }
        }
      }
    }
  }
  for (const auto& c : cand) {
    bool found = false;
    for (const auto& b : base) found = found || b.figure == c.figure;
    if (!found)
      out.structure.push_back("figure " + c.figure +
                              " missing from baseline");
  }
  return out;
}

exp::json::array deltas_to_json(const std::vector<delta>& deltas) {
  exp::json::array arr;
  for (const auto& d : deltas) {
    exp::json::object obj;
    obj["figure"] = d.figure;
    obj["location"] = d.location;
    obj["baseline"] = d.baseline;
    obj["candidate"] = d.candidate;
    obj["rel_change"] = d.rel_change();
    arr.emplace_back(std::move(obj));
  }
  return arr;
}

void print_deltas(const char* heading, const std::vector<delta>& deltas) {
  if (deltas.empty()) return;
  std::cout << heading << "\n";
  table t({"figure", "location", "baseline", "candidate", "change"});
  for (const auto& d : deltas)
    t.add_row({d.figure, d.location, cell(d.baseline, 4),
               cell(d.candidate, 4),
               cell(100.0 * d.rel_change(), 1) + "%"});
  t.print(std::cout);
}

std::vector<exp::figure_report> load_container(const std::string& path) {
  std::ifstream in(path);
  WSAN_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const auto doc = exp::json::parse(text.str());
  const auto violations = exp::validate_reports_json(doc);
  WSAN_REQUIRE(violations.empty(),
               path + " is not schema-valid: " + violations.front());
  return exp::reports_from_json(doc);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string base_path, cand_path;
    std::vector<const char*> rest;
    bool prev_was_flag = false;  // next arg is that flag's value
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i > 0 && !prev_was_flag && arg.rfind("--", 0) != 0) {
        if (base_path.empty()) base_path = arg;
        else if (cand_path.empty()) cand_path = arg;
        else throw std::invalid_argument("unexpected argument: " + arg);
        continue;
      }
      prev_was_flag = i > 0 && arg.rfind("--", 0) == 0;
      rest.push_back(argv[i]);
    }
    const cli_args args(static_cast<int>(rest.size()), rest.data());
    if (base_path.empty() || cand_path.empty()) {
      std::cerr << "usage: bench_diff BASELINE.json CANDIDATE.json "
                   "[--rel-tol R] [--abs-tol A] [--science-tol S] "
                   "[--out FILE]\n";
      return 2;
    }
    tolerances tol;
    tol.rel = args.get_double("rel-tol", 0.10);
    tol.abs = args.get_double("abs-tol", 0.0);
    tol.science = args.get_double("science-tol", 0.0);
    WSAN_REQUIRE(tol.science >= 0.0 && std::isfinite(tol.science),
                 "--science-tol must be finite and non-negative");

    const auto base = load_container(base_path);
    const auto cand = load_container(cand_path);
    const auto result = diff_containers(base, cand, tol);

    for (const auto& s : result.structure)
      std::cout << "structure: " << s << "\n";
    print_deltas(tol.science > 0.0
                     ? "science changes (beyond --science-tol):"
                     : "science changes (must be bit-exact):",
                 result.science_changes);
    print_deltas("measurement regressions:", result.regressions);
    print_deltas("measurement improvements:", result.improvements);
    print_deltas("measurement drift (undirected):", result.drift);
    std::cout << (result.failed() ? "FAIL" : "OK") << ": "
              << result.science_changes.size() << " science change(s), "
              << result.regressions.size() << " regression(s), "
              << result.improvements.size() << " improvement(s), "
              << result.drift.size() << " drift value(s), "
              << result.structure.size() << " structure issue(s) (tol "
              << cell(100.0 * tol.rel, 0) << "% rel, " << cell(tol.abs, 2)
              << " abs, science "
              << (tol.science > 0.0 ? cell(100.0 * tol.science, 2) + "% rel"
                                    : std::string("bit-exact"))
              << ")\n";

    if (args.has("out")) {
      const auto out_path = args.get("out", "");
      exp::json::object doc;
      doc["schema"] = "wsan-bench-diff/1";
      doc["baseline"] = base_path;
      doc["candidate"] = cand_path;
      doc["rel_tol"] = tol.rel;
      doc["abs_tol"] = tol.abs;
      doc["science_tol"] = tol.science;
      doc["ok"] = !result.failed();
      doc["science_changes"] = deltas_to_json(result.science_changes);
      doc["regressions"] = deltas_to_json(result.regressions);
      doc["improvements"] = deltas_to_json(result.improvements);
      doc["drift"] = deltas_to_json(result.drift);
      exp::json::array structure;
      for (const auto& s : result.structure) structure.emplace_back(s);
      doc["structure"] = std::move(structure);
      std::ofstream out(out_path);
      WSAN_REQUIRE(out.good(), "cannot open for writing: " + out_path);
      exp::json::write(exp::json::value(std::move(doc)), out);
      std::cout << "wrote diff summary to " << out_path << "\n";
    }
    return result.failed() ? 1 : 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
