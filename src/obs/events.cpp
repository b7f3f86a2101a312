#include "obs/events.h"

#include <atomic>
#include <utility>

#include "common/error.h"
#include "obs/json_text.h"

namespace wsan::obs {

std::string_view to_string(severity sev) {
  switch (sev) {
    case severity::debug:
      return "debug";
    case severity::info:
      return "info";
    case severity::warning:
      return "warning";
    case severity::error:
      return "error";
  }
  return "info";
}

namespace {

void append_value(std::string& out, const field_value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    append_json_number(out, *d);
  } else {
    append_json_string(out, std::get<std::string>(v));
  }
}

std::shared_ptr<event_sink>& sink_slot() {
  static std::shared_ptr<event_sink>* slot =
      new std::shared_ptr<event_sink>();  // never destroyed
  return *slot;
}

std::mutex& sink_mutex() {
  static std::mutex* mu = new std::mutex();  // never destroyed
  return *mu;
}

std::atomic<bool> g_has_sink{false};
std::atomic<std::uint64_t> g_next_seq{1};

}  // namespace

std::string to_jsonl(const event& ev) {
  std::string line;
  line.reserve(96);
  line += "{\"seq\":";
  line += std::to_string(ev.seq);
  line += ",\"severity\":";
  append_json_string(line, to_string(ev.sev));
  line += ",\"component\":";
  append_json_string(line, ev.component);
  line += ",\"event\":";
  append_json_string(line, ev.name);
  line += ",\"fields\":{";
  bool first = true;
  for (const auto& f : ev.fields) {
    if (!first) line.push_back(',');
    first = false;
    append_json_string(line, f.key);
    line.push_back(':');
    append_value(line, f.value);
  }
  line += "}}";
  return line;
}

jsonl_sink::jsonl_sink(const std::string& path) : file_(path) {
  WSAN_REQUIRE(file_.is_open(), "cannot open trace file: " + path);
  os_ = &file_;
}

jsonl_sink::~jsonl_sink() {
  std::uint64_t errors = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    os_->flush();
    if (!os_->good() && write_errors_ == 0) write_errors_ = 1;
    errors = write_errors_;
  }
  if (errors == 0) return;
  // Surface the loss on whatever telemetry still works: a registry
  // counter, and (if this sink was not the global one) a final event.
  add_counter("obs.trace.write_errors", errors);
  if (events_enabled())
    emit(severity::error, "obs", "trace_write_errors",
         {{"dropped_lines", static_cast<std::int64_t>(errors)}});
}

void jsonl_sink::consume(const event& ev) {
  if (!accepts(ev)) return;
  const std::string line = to_jsonl(ev);
  const std::lock_guard<std::mutex> lock(mu_);
  // clear() lets a stream that failed transiently (e.g. ENOSPC) try
  // again for the next line instead of silently eating the rest.
  if (!os_->good()) os_->clear();
  *os_ << line << '\n';
  os_->flush();
  if (!os_->good()) ++write_errors_;
}

ring_sink::ring_sink(std::size_t capacity) : capacity_(capacity) {
  WSAN_REQUIRE(capacity > 0, "ring_sink capacity must be positive");
}

void ring_sink::consume(const event& ev) {
  if (!accepts(ev)) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (buffer_.size() == capacity_) {
    buffer_.pop_front();
    ++dropped_;
  }
  buffer_.push_back(ev);
}

std::vector<event> ring_sink::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {buffer_.begin(), buffer_.end()};
}

std::uint64_t ring_sink::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t jsonl_sink::write_errors() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return write_errors_;
}

void set_event_sink(std::shared_ptr<event_sink> sink) {
  const std::lock_guard<std::mutex> lock(sink_mutex());
  g_has_sink.store(sink != nullptr, std::memory_order_relaxed);
  sink_slot() = std::move(sink);
}

#if WSAN_OBS_ENABLED

bool events_enabled() {
  return enabled() && g_has_sink.load(std::memory_order_relaxed);
}

void emit(severity sev, std::string_view component, std::string_view name,
          std::vector<event_field> fields) {
  if (!events_enabled()) return;
  event ev;
  ev.sev = sev;
  ev.component = std::string(component);
  ev.name = std::string(name);
  ev.fields = std::move(fields);
  ev.seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
  // Copy the shared_ptr under the lock, deliver outside it, so a slow
  // sink cannot block sink swaps and re-entrant set_event_sink from a
  // consume() implementation cannot deadlock.
  std::shared_ptr<event_sink> sink;
  {
    const std::lock_guard<std::mutex> lock(sink_mutex());
    sink = sink_slot();
  }
  if (sink) sink->consume(ev);
}

#endif  // WSAN_OBS_ENABLED

}  // namespace wsan::obs
