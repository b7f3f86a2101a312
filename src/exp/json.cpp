#include "exp/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <string_view>

#include "common/error.h"
#include "obs/json_text.h"

namespace wsan::exp::json {

bool value::as_bool() const {
  WSAN_REQUIRE(is_bool(), "JSON value is not a boolean");
  return std::get<bool>(v_);
}

std::int64_t value::as_int() const {
  WSAN_REQUIRE(is_int(), "JSON value is not an integer");
  return std::get<std::int64_t>(v_);
}

double value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  WSAN_REQUIRE(std::holds_alternative<double>(v_),
               "JSON value is not a number");
  return std::get<double>(v_);
}

const std::string& value::as_string() const {
  WSAN_REQUIRE(is_string(), "JSON value is not a string");
  return std::get<std::string>(v_);
}

const array& value::as_array() const {
  WSAN_REQUIRE(is_array(), "JSON value is not an array");
  return std::get<array>(v_);
}

const object& value::as_object() const {
  WSAN_REQUIRE(is_object(), "JSON value is not an object");
  return std::get<object>(v_);
}

array& value::as_array() {
  WSAN_REQUIRE(is_array(), "JSON value is not an array");
  return std::get<array>(v_);
}

object& value::as_object() {
  WSAN_REQUIRE(is_object(), "JSON value is not an object");
  return std::get<object>(v_);
}

const value* value::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<object>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

namespace {

/// Appends `v` pretty-printed at `depth`. Strings and doubles go through
/// the obs writers every JSON document of the repo shares; a double
/// JSON cannot represent is an error here, not obs's `null`.
void append_indented(const value& v, std::string& out, int depth) {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  const std::string pad1(static_cast<std::size_t>(depth + 1) * 2, ' ');
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_number()) {
    const double d = v.as_double();
    WSAN_REQUIRE(std::isfinite(d), "JSON cannot represent NaN/Inf");
    obs::append_json_number(out, d);
  } else if (v.is_string()) {
    obs::append_json_string(out, v.as_string());
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad1;
      append_indented(arr[i], out, depth + 1);
      out += i + 1 < arr.size() ? ",\n" : "\n";
    }
    out += pad + ']';
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += "{\n";
    std::size_t i = 0;
    for (const auto& [key, member] : obj) {
      out += pad1;
      obs::append_json_string(out, key);
      out += ": ";
      append_indented(member, out, depth + 1);
      out += ++i < obj.size() ? ",\n" : "\n";
    }
    out += pad + '}';
  }
}

/// Appends the code point UTF-8-encoded.
void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xc0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xe0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  }
}

/// Recursive-descent parser over a string view with a cursor.
class parser {
 public:
  explicit parser(const std::string& text) : text_(text) {}

  value parse_document() {
    value v = parse_value();
    skip_ws();
    WSAN_REQUIRE(pos_ == text_.size(),
                 "trailing characters after JSON document at offset " +
                     std::to_string(pos_));
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("JSON parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  value parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return value(parse_string());
      case 't':
        if (consume_literal("true")) return value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  /// Enters one array or object level; the recursion stops at
  /// k_max_depth instead of running out of stack.
  void descend() {
    if (++depth_ > k_max_depth)
      fail("nesting deeper than " + std::to_string(k_max_depth) +
           " levels");
  }

  value parse_object() {
    expect('{');
    descend();
    object obj;
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return value(std::move(obj));
    }
    for (;;) {
      const std::string key = (peek(), parse_quoted_string());
      expect(':');
      obj[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        --depth_;
        return value(std::move(obj));
      }
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  value parse_array() {
    expect('[');
    descend();
    array arr;
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        --depth_;
        return value(std::move(arr));
      }
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() { return (peek(), parse_quoted_string()); }

  std::string parse_quoted_string() {
    if (text_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = parse_hex4();
            // A code point above the BMP is a UTF-16 surrogate pair: a
            // high surrogate escape followed by a low surrogate escape.
            if (code >= 0xdc00 && code <= 0xdfff)
              fail("unpaired low surrogate");
            if (code >= 0xd800 && code <= 0xdbff) {
              if (text_.compare(pos_, 2, "\\u") != 0)
                fail("unpaired high surrogate");
              pos_ += 2;
              const unsigned low = parse_hex4();
              if (low < 0xdc00 || low > 0xdfff)
                fail("unpaired high surrogate");
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            append_utf8(out, code);
            break;
          }
          default: fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    fail("unterminated string");
  }

  /// The four hex digits after a backslash-u escape.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
    unsigned code = 0;
    const auto res = std::from_chars(text_.data() + pos_,
                                     text_.data() + pos_ + 4, code, 16);
    if (res.ptr != text_.data() + pos_ + 4) fail("bad \\u escape");
    pos_ += 4;
    return code;
  }

  /// True iff the next character is `c`; consumes it then.
  bool accept(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// Consumes a run of decimal digits; returns its length.
  std::size_t digits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ - from;
  }

  /// RFC 8259: [ "-" ] ( "0" / digit1-9 *DIGIT ) [ "." 1*DIGIT ]
  /// [ ( "e" / "E" ) [ "+" / "-" ] 1*DIGIT ].
  value parse_number() {
    const std::size_t start = pos_;
    accept('-');
    if (!accept('0') && digits() == 0) fail("expected a number");
    bool is_double = false;
    if (accept('.')) {
      is_double = true;
      if (digits() == 0) fail("expected a digit after '.'");
    }
    if (accept('e') || accept('E')) {
      is_double = true;
      if (!accept('+')) accept('-');
      if (digits() == 0) fail("expected a digit in the exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // write() emits -0.0 as "-0"; reading it as the integer 0 would
    // lose the sign.
    if (!is_double && std::string_view(first, last) != "-0") {
      std::int64_t i = 0;
      const auto res = std::from_chars(first, last, i);
      if (res.ec == std::errc() && res.ptr == last) return value(i);
    }
    double d = 0.0;
    const auto res = std::from_chars(first, last, d);
    if (res.ec != std::errc() || res.ptr != last) fail("bad number");
    return value(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open at the cursor
};

}  // namespace

void write(const value& v, std::ostream& os) { os << to_string(v); }

std::string to_string(const value& v) {
  std::string out;
  append_indented(v, out, 0);
  out += '\n';
  return out;
}

value parse(const std::string& text) {
  parser p(text);
  return p.parse_document();
}

}  // namespace wsan::exp::json
