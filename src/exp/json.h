// Minimal JSON value, writer, and parser for the experiment reports.
//
// The repo deliberately carries no third-party JSON dependency; the
// bench report schema (docs/bench_report.schema.json) only needs
// objects, arrays, strings, numbers, and booleans. Doubles are written
// with std::to_chars shortest round-trip formatting, so
// parse(write(v)) reproduces every double bit-for-bit — the JSON
// round-trip test in tests/exp_test.cpp relies on this.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace wsan::exp::json {

class value;

using array = std::vector<value>;
/// std::map keeps keys sorted, so emission order is deterministic.
using object = std::map<std::string, value>;

/// A JSON document node. Integers and doubles are kept distinct so that
/// counters (trials, seeds) round-trip without a float detour.
class value {
 public:
  value() : v_(nullptr) {}
  value(std::nullptr_t) : v_(nullptr) {}
  value(bool b) : v_(b) {}
  value(std::int64_t i) : v_(i) {}
  value(int i) : v_(static_cast<std::int64_t>(i)) {}
  value(std::uint64_t u) : v_(static_cast<std::int64_t>(u)) {}
  value(double d) : v_(d) {}
  value(const char* s) : v_(std::string(s)) {}
  value(std::string s) : v_(std::move(s)) {}
  value(array a) : v_(std::move(a)) {}
  value(object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  /// True for any JSON number (integer-shaped or not).
  bool is_number() const {
    return is_int() || std::holds_alternative<double>(v_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<array>(v_); }
  bool is_object() const { return std::holds_alternative<object>(v_); }

  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  ///< accepts integer-shaped numbers too
  const std::string& as_string() const;
  const array& as_array() const;
  const object& as_object() const;
  array& as_array();
  object& as_object();

  /// Object member lookup; nullptr when absent or not an object.
  const value* find(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               array, object>
      v_;
};

/// Pretty-prints with 2-space indentation and a trailing newline at the
/// top level.
void write(const value& v, std::ostream& os);
std::string to_string(const value& v);

/// Deepest array and object nesting parse() accepts: far beyond any
/// document the repo writes, and shallow enough that the recursive
/// descent cannot exhaust the stack.
inline constexpr int k_max_depth = 512;

/// Parses a complete RFC 8259 JSON document; throws
/// std::invalid_argument with a byte offset on malformed input, trailing
/// garbage, nesting deeper than k_max_depth, numbers outside the RFC
/// grammar (a leading '+' or zero, a bare '.', an empty exponent),
/// unescaped control characters, and unpaired UTF-16 surrogate escapes.
/// Surrogate pairs decode to UTF-8.
value parse(const std::string& text);

}  // namespace wsan::exp::json
