#include "common/cli.h"

#include <climits>
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "common/error.h"

namespace wsan {

namespace {

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

int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
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
}

bool cli_args::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string cli_args::get(const std::string& key,
                          const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int cli_args::get_int(const std::string& key, int fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_int(it->second, "flag --" + key + " expects an integer in [" +
                                   std::to_string(INT_MIN) + ", " +
                                   std::to_string(INT_MAX) + "]");
}

std::uint64_t cli_args::get_uint64(const std::string& key,
                                   std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string what = "flag --" + key + " expects an unsigned integer";
  // std::stoull accepts "-1" and wraps it to 2^64 - 1.
  if (it->second.find('-') != std::string::npos)
    throw std::invalid_argument(what + ", got: " + it->second);
  return parse_whole(it->second, what,
                     [](const std::string& t, std::size_t* used) {
                       return static_cast<std::uint64_t>(std::stoull(t, used));
                     });
}

double cli_args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string what = "flag --" + key + " expects a finite number";
  const double value = parse_whole(
      it->second, what, [](const std::string& t, std::size_t* used) {
        return std::stod(t, used);
      });
  // std::stod also reads "nan", "inf" and "infinity"; no flag takes them.
  if (!std::isfinite(value))
    throw std::invalid_argument(what + ", got: " + it->second);
  return value;
}

bool cli_args::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes")
    return true;
  if (it->second == "false" || it->second == "0" || it->second == "no")
    return false;
  throw std::invalid_argument("flag --" + key +
                              " expects a boolean, got: " + it->second);
}

}  // namespace wsan
