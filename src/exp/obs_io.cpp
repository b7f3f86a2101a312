#include "exp/obs_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/table.h"

namespace wsan::exp {

namespace {

json::value metrics_to_json(const obs::snapshot& snap) {
  json::object counters;
  for (const auto& [name, count] : snap.counters)
    counters[name] = count;
  json::object histograms;
  for (const auto& [name, hist] : snap.histograms) {
    json::object h;
    json::array bounds;
    for (const double b : hist.upper_bounds) bounds.emplace_back(b);
    json::array counts;
    for (const auto c : hist.counts) counts.emplace_back(c);
    h["upper_bounds"] = std::move(bounds);
    h["counts"] = std::move(counts);
    h["total"] = hist.total();
    histograms[name] = std::move(h);
  }
  json::object metrics;
  metrics["counters"] = std::move(counters);
  metrics["histograms"] = std::move(histograms);
  return json::value(std::move(metrics));
}

json::value timings_to_json(const obs::snapshot& snap) {
  json::object spans;
  for (const auto& [name, span] : snap.spans) {
    json::object s;
    s["count"] = span.count;
    s["total_ns"] = span.total_ns;
    spans[name] = std::move(s);
  }
  json::object timings;
  timings["spans"] = std::move(spans);
  return json::value(std::move(timings));
}

}  // namespace

json::value observability_section(const obs::snapshot& snap) {
  json::object obj;
  obj["metrics"] = metrics_to_json(snap);
  obj["timings"] = timings_to_json(snap);
  return json::value(std::move(obj));
}

json::value snapshot_to_json(const obs::snapshot& snap) {
  json::value v = observability_section(snap);
  v.as_object()["schema"] = "wsan-obs-snapshot/1";
  return v;
}

namespace {

const json::value* section_of(const json::value& doc) {
  if (!doc.is_object()) return nullptr;
  // A report container: descend into its observability section (which
  // may legitimately be null).
  if (doc.find("reports") != nullptr) return doc.find("observability");
  if (doc.find("metrics") != nullptr) return &doc;
  return nullptr;
}

/// The span table (name, count, total ms, mean us) of a snapshot or of
/// a parsed document's spans.
void print_spans(const std::map<std::string, obs::span_snapshot>& spans,
                 std::ostream& os) {
  table t({"span", "count", "total_ms", "mean_us"});
  for (const auto& [name, span] : spans) {
    const double ns = static_cast<double>(span.total_ns);
    const double n = static_cast<double>(span.count);
    t.add_row({name, cell(static_cast<long long>(span.count)),
               cell(ns / 1e6, 3), cell(n > 0 ? ns / n / 1e3 : 0.0, 3)});
  }
  t.print(os);
}

void print_spans_json(const json::value& spans, std::ostream& os) {
  std::map<std::string, obs::span_snapshot> parsed;
  for (const auto& [name, span] : spans.as_object()) {
    const auto* count = span.find("count");
    const auto* total_ns = span.find("total_ns");
    WSAN_REQUIRE(count != nullptr && total_ns != nullptr,
                 "span entry is missing count/total_ns: " + name);
    parsed[name] = {static_cast<std::uint64_t>(count->as_int()),
                    static_cast<std::uint64_t>(total_ns->as_int())};
  }
  if (parsed.empty()) return;
  os << "spans:\n";
  print_spans(parsed, os);
}

}  // namespace

bool print_obs_document(const json::value& doc, std::ostream& os) {
  const json::value* section = section_of(doc);
  WSAN_REQUIRE(section != nullptr,
               "not an observability document: expected a "
               "wsan-obs-snapshot or a bench report container");
  if (section->is_null()) {
    os << "observability: disabled for this run\n";
    return false;
  }
  WSAN_REQUIRE(section->is_object(),
               "observability section must be null or an object");
  const auto* metrics = section->find("metrics");
  WSAN_REQUIRE(metrics != nullptr && metrics->is_object(),
               "observability section is missing \"metrics\"");

  if (const auto* counters = metrics->find("counters");
      counters != nullptr && !counters->as_object().empty()) {
    table t({"counter", "value"});
    for (const auto& [name, val] : counters->as_object())
      t.add_row({name, cell(static_cast<long long>(val.as_int()))});
    os << "counters:\n";
    t.print(os);
  }
  if (const auto* hists = metrics->find("histograms");
      hists != nullptr && !hists->as_object().empty()) {
    table t({"histogram", "bucket", "count"});
    for (const auto& [name, hist] : hists->as_object()) {
      const auto* bounds = hist.find("upper_bounds");
      const auto* counts = hist.find("counts");
      WSAN_REQUIRE(bounds != nullptr && counts != nullptr,
                   "histogram entry is malformed: " + name);
      const auto& bounds_arr = bounds->as_array();
      const auto& counts_arr = counts->as_array();
      for (std::size_t i = 0; i < counts_arr.size(); ++i) {
        const std::string bucket =
            i < bounds_arr.size()
                ? "<= " + cell(bounds_arr[i].as_double(), 3)
                : "overflow";
        t.add_row({i == 0 ? name : "", bucket,
                   cell(static_cast<long long>(counts_arr[i].as_int()))});
      }
    }
    os << "histograms:\n";
    t.print(os);
  }
  if (const auto* timings = section->find("timings");
      timings != nullptr && timings->is_object()) {
    if (const auto* spans = timings->find("spans");
        spans != nullptr && spans->is_object())
      print_spans_json(*spans, os);
  }
  return true;
}

void print_span_table(const obs::snapshot& snap, std::ostream& os) {
  if (!snap.spans.empty()) print_spans(snap.spans, os);
}

// ----------------------------------------------- temporal telemetry --

obs::series series_from_jsonl(std::istream& is) {
  obs::series s;
  std::string line;
  bool saw_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const json::value v = json::parse(line);
    WSAN_REQUIRE(v.is_object(), "series line must be a JSON object");
    if (!saw_header) {
      const auto* schema = v.find("schema");
      WSAN_REQUIRE(schema != nullptr && schema->is_string() &&
                       schema->as_string() == "wsan-series/1",
                   "series header must declare wsan-series/1");
      if (const auto* name = v.find("name")) s.name = name->as_string();
      if (const auto* unit = v.find("index_unit"))
        s.index_unit = unit->as_string();
      saw_header = true;
      continue;
    }
    obs::series_window w;
    const auto* index = v.find("index");
    const auto* values = v.find("values");
    WSAN_REQUIRE(index != nullptr && index->is_int() &&
                     values != nullptr && values->is_object(),
                 "series window line is missing index/values");
    w.index = index->as_int();
    for (const auto& [name, val] : values->as_object())
      w.values[name] = val.as_double();
    if (const auto* hists = v.find("histograms")) {
      for (const auto& [name, h] : hists->as_object()) {
        obs::histogram_snapshot hs;
        const auto* bounds = h.find("upper_bounds");
        const auto* counts = h.find("counts");
        WSAN_REQUIRE(bounds != nullptr && counts != nullptr,
                     "series histogram is malformed: " + name);
        for (const auto& b : bounds->as_array())
          hs.upper_bounds.push_back(b.as_double());
        for (const auto& c : counts->as_array())
          hs.counts.push_back(static_cast<std::uint64_t>(c.as_int()));
        w.histograms[name] = std::move(hs);
      }
    }
    WSAN_REQUIRE(s.windows.empty() || w.index > s.windows.back().index,
                 "series windows out of order");
    s.windows.push_back(std::move(w));
  }
  WSAN_REQUIRE(saw_header, "not a series file: no wsan-series/1 header");
  return s;
}

obs::series series_from_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  WSAN_REQUIRE(in.is_open(), "cannot open series file: " + path);
  return series_from_jsonl(in);
}

json::value health_section(
    const obs::slo_policy& policy,
    const std::vector<std::pair<std::string, obs::health_verdict>>&
        verdicts) {
  json::array rules;
  for (const auto& rule : policy.rules) {
    json::object r;
    r["metric"] = rule.metric;
    r["kind"] = std::string(obs::to_string(rule.kind));
    r["bound"] = rule.bound;
    r["severity"] = std::string(obs::to_string(rule.sev));
    rules.emplace_back(std::move(r));
  }
  json::object verdict_obj;
  for (const auto& [subject, verdict] : verdicts) {
    json::object v;
    v["healthy"] = verdict.healthy;
    v["windows"] = verdict.windows_evaluated;
    v["errors"] = verdict.errors();
    v["warnings"] = verdict.warnings();
    json::array violations;
    for (const auto& viol : verdict.violations) {
      json::object o;
      o["window"] = viol.window_index;
      o["metric"] = viol.metric;
      o["value"] = viol.value;
      o["bound"] = viol.bound;
      o["kind"] = std::string(obs::to_string(viol.kind));
      o["severity"] = std::string(obs::to_string(viol.sev));
      violations.emplace_back(std::move(o));
    }
    v["violations"] = std::move(violations);
    verdict_obj[subject] = std::move(v);
  }
  json::object health;
  health["policy"] = std::move(rules);
  health["verdicts"] = std::move(verdict_obj);
  return json::value(std::move(health));
}

bool print_health_block(const json::value& health, std::ostream& os) {
  WSAN_REQUIRE(health.is_object(), "health block must be an object");
  const auto* verdicts = health.find("verdicts");
  WSAN_REQUIRE(verdicts != nullptr && verdicts->is_object(),
               "health block is missing \"verdicts\"");
  if (const auto* policy = health.find("policy");
      policy != nullptr && policy->is_array() &&
      !policy->as_array().empty()) {
    table t({"metric", "kind", "bound", "severity"});
    for (const auto& rule : policy->as_array())
      t.add_row({rule.find("metric")->as_string(),
                 rule.find("kind")->as_string(),
                 cell(rule.find("bound")->as_double(), 4),
                 rule.find("severity")->as_string()});
    os << "policy:\n";
    t.print(os);
  }
  bool all_healthy = true;
  table t({"subject", "verdict", "windows", "errors", "warnings"});
  for (const auto& [subject, verdict] : verdicts->as_object()) {
    const auto* healthy = verdict.find("healthy");
    WSAN_REQUIRE(healthy != nullptr, "verdict is missing \"healthy\"");
    const bool ok = healthy->as_bool();
    all_healthy = all_healthy && ok;
    const auto count_of = [&](const char* key) -> long long {
      const auto* member = verdict.find(key);
      return member != nullptr ? member->as_int() : 0;
    };
    t.add_row({subject, ok ? "healthy" : "VIOLATED",
               cell(count_of("windows")), cell(count_of("errors")),
               cell(count_of("warnings"))});
  }
  os << "verdicts:\n";
  t.print(os);
  // Every individual violation, for post-mortem drill-down.
  table viol({"subject", "window", "metric", "value", "bound", "kind",
              "severity"});
  for (const auto& [subject, verdict] : verdicts->as_object()) {
    const auto* violations = verdict.find("violations");
    if (violations == nullptr || !violations->is_array()) continue;
    for (const auto& v : violations->as_array())
      viol.add_row({subject,
                    cell(static_cast<long long>(
                        v.find("window")->as_int())),
                    v.find("metric")->as_string(),
                    cell(v.find("value")->as_double(), 4),
                    cell(v.find("bound")->as_double(), 4),
                    v.find("kind")->as_string(),
                    v.find("severity")->as_string()});
  }
  if (viol.num_rows() > 0) {
    os << "violations:\n";
    viol.print(os);
  }
  return all_healthy;
}

namespace {

std::string sparkline(const std::vector<double>& values) {
  static const char* const k_blocks[] = {"▁", "▂", "▃", "▄",
                                         "▅", "▆", "▇", "█"};
  double lo = values.empty() ? 0.0 : values[0];
  double hi = lo;
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (const double v : values) {
    const double span = hi - lo;
    // An overflowing span makes the ratio NaN: lowest block, like a
    // flat series.
    const double scaled = span > 0.0 ? (v - lo) / span * 8.0 : 0.0;
    const int level = scaled >= 7.0  ? 7
                      : scaled > 0.0 ? static_cast<int>(scaled)
                                     : 0;
    out += k_blocks[level];
  }
  return out;
}

}  // namespace

void print_series_table(const obs::series& s, std::ostream& os) {
  os << "series \"" << s.name << "\": " << s.windows.size() << " "
     << s.index_unit << "-indexed windows\n";
  if (s.windows.empty()) return;
  std::map<std::string, std::vector<double>> columns;
  for (const auto& w : s.windows)
    for (const auto& [name, value] : w.values)
      columns[name].push_back(value);
  table t({"metric", "min", "mean", "max", "last", "trend"});
  for (const auto& [name, values] : columns) {
    double lo = values[0], hi = values[0], sum = 0.0;
    for (const double v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += v;
    }
    t.add_row({name, cell(lo, 3),
               cell(sum / static_cast<double>(values.size()), 3),
               cell(hi, 3), cell(values.back(), 3), sparkline(values)});
  }
  t.print(os);
}

bool print_flight_dump(const json::value& doc, std::ostream& os) {
  const auto* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "wsan-flight-recorder/1")
    return false;

  const auto int_or = [&doc](const char* key, std::int64_t fallback) {
    const auto* v = doc.find(key);
    return v != nullptr && v->is_int() ? v->as_int() : fallback;
  };
  const auto field_text = [](const json::value& v) -> std::string {
    if (v.is_string()) return v.as_string();
    if (v.is_int()) return std::to_string(v.as_int());
    if (v.is_number()) return cell(v.as_double(), 4);
    return "?";
  };
  const auto event_line = [&field_text](const json::value& ev) {
    std::string line;
    const auto* sev = ev.find("severity");
    const auto* component = ev.find("component");
    const auto* name = ev.find("event");
    line += sev != nullptr && sev->is_string() ? sev->as_string() : "?";
    line += " ";
    line += component != nullptr && component->is_string()
                ? component->as_string()
                : "?";
    line += "/";
    line += name != nullptr && name->is_string() ? name->as_string() : "?";
    if (const auto* fields = ev.find("fields");
        fields != nullptr && fields->is_object()) {
      for (const auto& [key, val] : fields->as_object())
        line += " " + key + "=" + field_text(val);
    }
    return line;
  };

  if (const auto* trigger = doc.find("trigger"); trigger != nullptr)
    os << "trigger:  " << event_line(*trigger) << "\n";
  os << "triggers: " << int_or("trigger_count", 0)
     << "  dropped events: " << int_or("dropped_events", 0)
     << "  dropped windows: " << int_or("dropped_windows", 0) << "\n";

  if (const auto* windows = doc.find("windows");
      windows != nullptr && windows->is_array() &&
      !windows->as_array().empty()) {
    obs::series series;
    series.name = "flight";
    for (const auto& w : windows->as_array()) {
      obs::series_window window;
      if (const auto* index = w.find("index");
          index != nullptr && index->is_int())
        window.index = index->as_int();
      if (const auto* values = w.find("values");
          values != nullptr && values->is_object())
        for (const auto& [key, val] : values->as_object())
          if (val.is_number()) window.values[key] = val.as_double();
      series.windows.push_back(std::move(window));
    }
    os << "\nlast " << series.windows.size() << " window(s):\n";
    print_series_table(series, os);
  }

  if (const auto* events = doc.find("events");
      events != nullptr && events->is_array() &&
      !events->as_array().empty()) {
    os << "\nlast " << events->as_array().size() << " event(s):\n";
    for (const auto& ev : events->as_array())
      os << "  " << event_line(ev) << "\n";
  }
  return true;
}

obs_session::obs_session(const run_options& options)
    : obs_session(options, nullptr) {}

obs_session::obs_session(const run_options& options,
                         std::shared_ptr<obs::event_sink> extra_sink)
    : metrics_path_(options.metrics_path), trace_path_(options.trace_path) {
  if (!options.obs_requested() && extra_sink == nullptr) return;
  active_ = true;
  obs::reset_metrics();
  std::vector<std::shared_ptr<obs::event_sink>> sinks;
  if (!options.trace_path.empty())
    sinks.push_back(std::make_shared<obs::jsonl_sink>(options.trace_path));
  if (extra_sink != nullptr) sinks.push_back(std::move(extra_sink));
  if (sinks.size() == 1)
    obs::set_event_sink(std::move(sinks.front()));
  else if (sinks.size() > 1)
    obs::set_event_sink(std::make_shared<obs::tee_sink>(std::move(sinks)));
  obs::set_enabled(true);
}

const obs::snapshot& obs_session::finish() {
  if (finished_ || !active_) {
    finished_ = true;
    return snap_;
  }
  finished_ = true;
  snap_ = obs::take_snapshot();
  obs::set_enabled(false);
  obs::set_event_sink(nullptr);
  if (!metrics_path_.empty()) {
    std::ofstream out(metrics_path_);
    WSAN_REQUIRE(out.good(), "cannot open for writing: " + metrics_path_);
    json::write(snapshot_to_json(snap_), out);
    WSAN_REQUIRE(out.good(), "write failed: " + metrics_path_);
  }
  return snap_;
}

void obs_session::print_summary(std::ostream& os) const {
  if (!active_) return;
  os << "\nobservability: per-phase timings\n";
  print_span_table(snap_, os);
  if (!metrics_path_.empty())
    os << "wrote metrics snapshot to " << metrics_path_ << "\n";
  if (!trace_path_.empty())
    os << "wrote event trace to " << trace_path_ << "\n";
}

obs_session::~obs_session() {
  if (!active_ || finished_) return;
  // Unwinding past a live session: stop recording and drop the sink,
  // but skip the metrics file — a partial snapshot would look valid.
  obs::set_enabled(false);
  obs::set_event_sink(nullptr);
}

}  // namespace wsan::exp
