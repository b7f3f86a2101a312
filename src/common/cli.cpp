#include "common/cli.h"

#include <climits>
#include <cmath>
#include <iostream>
#include <mutex>
#include <set>
#include <stdexcept>

#include "common/error.h"

namespace wsan {

namespace {

/// The flags given to, and read from, every cli_args built while a
/// run_main body runs. Experiments read flags from worker threads, so
/// it is guarded; outside run_main it stays closed and records nothing.
class flag_ledger {
 public:
  void open() {
    const std::lock_guard lock(mutex_);
    open_ = true;
    given_.clear();
    read_.clear();
  }

  /// Stops recording; returns a flag that was given but never read, or
  /// "" when every flag was read.
  std::string close() {
    const std::lock_guard lock(mutex_);
    open_ = false;
    for (const auto& key : given_)
      if (read_.count(key) == 0) return key;
    return "";
  }

  void note_given(const std::string& key) {
    const std::lock_guard lock(mutex_);
    if (open_) given_.insert(key);
  }

  void note_read(const std::string& key) {
    const std::lock_guard lock(mutex_);
    if (open_) read_.insert(key);
  }

 private:
  std::mutex mutex_;
  bool open_ = false;
  std::set<std::string> given_;
  std::set<std::string> read_;
};

flag_ledger& ledger() {
  static flag_ledger instance;
  return instance;
}

/// Runs a std::sto* parser over the whole of `text`; a partial parse or
/// a parse error throws, naming `what`.
template <typename Parse>
auto parse_whole(const std::string& text, const std::string& what,
                 Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument(what + ", got: " + text);
}

}  // namespace

int parse_int(const std::string& text, const std::string& what) {
  // std::stoi throws std::out_of_range for a value outside int.
  return parse_whole(text, what, [](const std::string& t, std::size_t* used) {
    return std::stoi(t, used);
  });
}

int run_main(int (*body)(int, char**), int argc, char** argv,
             int error_status) {
  ledger().open();
  std::string error;
  try {
    const int status = body(argc, argv);
    const std::string unread = ledger().close();
    if (unread.empty()) return status;
    error = "unknown flag --" + unread;
  } catch (const std::exception& escaped) {
    ledger().close();
    error = escaped.what();
  }
  std::cerr << "error: " << error << "\n";
  return error_status;
}

cli_args::cli_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    WSAN_REQUIRE(arg.rfind("--", 0) == 0,
                 "arguments must be of the form --key [value]: " + arg);
    const std::string key = arg.substr(2);
    WSAN_REQUIRE(!key.empty(), "empty flag name");
    WSAN_REQUIRE(values_.count(key) == 0,
                 "duplicate flag --" + key +
                     " (a silently ignored first value hides typos)");
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[++i];
    } else {
      values_[key] = "true";  // bare boolean flag
    }
  }
  for (const auto& [key, value] : values_) ledger().note_given(key);
}

const std::string* cli_args::lookup(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  ledger().note_read(key);
  return &it->second;
}

bool cli_args::has(const std::string& key) const {
  return lookup(key) != nullptr;
}

std::string cli_args::get(const std::string& key,
                          const std::string& fallback) const {
  const std::string* value = lookup(key);
  return value == nullptr ? fallback : *value;
}

int cli_args::get_int(const std::string& key, int fallback) const {
  const std::string* value = lookup(key);
  if (value == nullptr) return fallback;
  return parse_int(*value, "flag --" + key + " expects an integer in [" +
                               std::to_string(INT_MIN) + ", " +
                               std::to_string(INT_MAX) + "]");
}

std::uint64_t cli_args::get_uint64(const std::string& key,
                                   std::uint64_t fallback) const {
  const std::string* value = lookup(key);
  if (value == nullptr) return fallback;
  const std::string what = "flag --" + key + " expects an unsigned integer";
  // std::stoull accepts "-1" and wraps it to 2^64 - 1.
  if (value->find('-') != std::string::npos)
    throw std::invalid_argument(what + ", got: " + *value);
  return parse_whole(*value, what,
                     [](const std::string& t, std::size_t* used) {
                       return static_cast<std::uint64_t>(std::stoull(t, used));
                     });
}

double cli_args::get_double(const std::string& key, double fallback) const {
  const std::string* text = lookup(key);
  if (text == nullptr) return fallback;
  const std::string what = "flag --" + key + " expects a finite number";
  const double value = parse_whole(
      *text, what, [](const std::string& t, std::size_t* used) {
        return std::stod(t, used);
      });
  // std::stod also reads "nan", "inf" and "infinity"; no flag takes them.
  if (!std::isfinite(value))
    throw std::invalid_argument(what + ", got: " + *text);
  return value;
}

bool cli_args::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = lookup(key);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  throw std::invalid_argument("flag --" + key +
                              " expects a boolean, got: " + *value);
}

}  // namespace wsan
