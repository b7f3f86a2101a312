#include "obs/timeseries.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.h"
#include "obs/json_text.h"

namespace wsan::obs {

namespace {

void append_histogram(std::string& out, const histogram_snapshot& h) {
  out += "{\"upper_bounds\":[";
  for (std::size_t i = 0; i < h.upper_bounds.size(); ++i) {
    if (i) out.push_back(',');
    append_json_number(out, h.upper_bounds[i]);
  }
  out += "],\"counts\":[";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i) out.push_back(',');
    out += std::to_string(h.counts[i]);
  }
  out += "]}";
}

/// OpenMetrics metric names: [a-z0-9_] with a wsan_ prefix.
std::string sanitize_metric_name(std::string_view raw) {
  std::string out = "wsan_";
  for (const char c : raw) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_') {
      out.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back('_');
    }
  }
  return out;
}

void append_om_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  WSAN_REQUIRE(ec == std::errc{}, "double format failed");
  out.append(buf, ptr);
}

}  // namespace

series_recorder::series_recorder(options opts) : opts_(std::move(opts)) {
  series_.name = opts_.name;
  series_.index_unit = opts_.index_unit;
}

void series_recorder::begin_window(std::int64_t index) {
  WSAN_REQUIRE(!open_, "series_recorder: window already open");
  WSAN_REQUIRE(
      series_.windows.empty() || index > series_.windows.back().index,
      "series_recorder: window indices must be strictly increasing");
  current_ = series_window{};
  current_.index = index;
  open_ = true;
}

void series_recorder::set(std::string_view name, double value) {
  WSAN_REQUIRE(open_, "series_recorder: no open window");
  current_.values[std::string(name)] = value;
}

void series_recorder::add(std::string_view name, double delta) {
  WSAN_REQUIRE(open_, "series_recorder: no open window");
  current_.values[std::string(name)] += delta;
}

void series_recorder::observe(std::string_view name,
                              const std::vector<double>& bounds,
                              double value) {
  WSAN_REQUIRE(open_, "series_recorder: no open window");
  auto& h = current_.histograms[std::string(name)];
  if (h.counts.empty()) {
    for (std::size_t i = 1; i < bounds.size(); ++i)
      WSAN_REQUIRE(bounds[i] > bounds[i - 1],
                   "series_recorder: bounds must be strictly increasing");
    h.upper_bounds = bounds;
    h.counts.assign(bounds.size() + 1, 0);
  } else {
    WSAN_REQUIRE(h.upper_bounds == bounds,
                 "series_recorder: histogram bounds changed mid-window");
  }
  std::size_t bucket = h.upper_bounds.size();  // overflow
  for (std::size_t b = 0; b < h.upper_bounds.size(); ++b) {
    if (value <= h.upper_bounds[b]) {
      bucket = b;
      break;
    }
  }
  ++h.counts[bucket];
}

void series_recorder::merge_histogram(std::string_view name,
                                      const histogram_snapshot& src) {
  WSAN_REQUIRE(open_, "series_recorder: no open window");
  auto& h = current_.histograms[std::string(name)];
  if (h.counts.empty()) {
    h = src;
    return;
  }
  WSAN_REQUIRE(h.upper_bounds == src.upper_bounds &&
                   h.counts.size() == src.counts.size(),
               "series_recorder: histogram merge with different bounds");
  for (std::size_t i = 0; i < h.counts.size(); ++i)
    h.counts[i] += src.counts[i];
}

const series_window& series_recorder::end_window() {
  WSAN_REQUIRE(open_, "series_recorder: no open window");
  open_ = false;
  series_.windows.push_back(std::move(current_));
  return series_.windows.back();
}

const series& series_recorder::result() const {
  WSAN_REQUIRE(!open_, "series_recorder: close the window first");
  return series_;
}

std::string window_to_jsonl(const series_window& w) {
  std::string line;
  line.reserve(128);
  line += "{\"index\":";
  line += std::to_string(w.index);
  line += ",\"values\":{";
  bool first = true;
  for (const auto& [name, value] : w.values) {
    if (!first) line.push_back(',');
    first = false;
    append_json_string(line, name);
    line.push_back(':');
    append_json_number(line, value);
  }
  line += "}";
  if (!w.histograms.empty()) {
    line += ",\"histograms\":{";
    first = true;
    for (const auto& [name, h] : w.histograms) {
      if (!first) line.push_back(',');
      first = false;
      append_json_string(line, name);
      line.push_back(':');
      append_histogram(line, h);
    }
    line += "}";
  }
  line += "}";
  return line;
}

void write_series_jsonl(const series& s, std::ostream& os) {
  std::string header = "{\"schema\":\"wsan-series/1\",\"name\":";
  append_json_string(header, s.name);
  header += ",\"index_unit\":";
  append_json_string(header, s.index_unit);
  header += ",\"windows\":";
  header += std::to_string(s.windows.size());
  header += "}";
  os << header << '\n';
  for (const auto& w : s.windows) os << window_to_jsonl(w) << '\n';
}

void write_series_openmetrics(const series& s, std::ostream& os) {
  // Collect metric names first so each gets exactly one TYPE line.
  std::map<std::string, bool> scalar_seen;
  std::map<std::string, bool> histo_seen;
  for (const auto& w : s.windows) {
    for (const auto& [name, _] : w.values) scalar_seen[name] = true;
    for (const auto& [name, _] : w.histograms) histo_seen[name] = true;
  }
  std::string out;
  for (const auto& [name, _] : scalar_seen) {
    const std::string om = sanitize_metric_name(name);
    out += "# TYPE " + om + " gauge\n";
    for (const auto& w : s.windows) {
      const auto it = w.values.find(name);
      if (it == w.values.end()) continue;
      out += om + "{window=\"" + std::to_string(w.index) + "\"} ";
      append_om_double(out, it->second);
      out.push_back('\n');
    }
  }
  for (const auto& [name, _] : histo_seen) {
    const std::string om = sanitize_metric_name(name);
    out += "# TYPE " + om + " histogram\n";
    for (const auto& w : s.windows) {
      const auto it = w.histograms.find(name);
      if (it == w.histograms.end()) continue;
      const auto& h = it->second;
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.counts.size(); ++b) {
        cumulative += h.counts[b];
        out += om + "_bucket{le=\"";
        if (b < h.upper_bounds.size())
          append_om_double(out, h.upper_bounds[b]);
        else
          out += "+Inf";
        out += "\",window=\"" + std::to_string(w.index) + "\"} ";
        out += std::to_string(cumulative);
        out.push_back('\n');
      }
      out += om + "_count{window=\"" + std::to_string(w.index) + "\"} ";
      out += std::to_string(h.total());
      out.push_back('\n');
    }
  }
  out += "# EOF\n";
  os << out;
}

}  // namespace wsan::obs
