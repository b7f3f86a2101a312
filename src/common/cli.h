// Minimal "--key value" command-line parser for bench/example binaries,
// and the main() wrapper that turns their errors into exit code 1.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace wsan {

/// Parses `text` as a whole base-10 int. Throws std::invalid_argument
/// naming `what` when anything is left over ("3x", "1e3") or the value
/// does not fit an int ("4294967300").
int parse_int(const std::string& text, const std::string& what);

/// Runs `body(argc, argv)` as a program's whole main: an exception that
/// escapes it (a malformed flag, a missing file, a violated
/// precondition) prints "error: <what>" on stderr and returns exit code
/// 1, instead of ending the program through std::terminate.
int run_main(int (*body)(int, char**), int argc, char** argv);

/// Parses flags of the form "--key value" and bare "--key" booleans.
/// Unknown positional arguments and repeated flags raise
/// std::invalid_argument so typos in experiment invocations fail
/// loudly instead of silently dropping a value. Numeric getters parse
/// the whole value, get_int takes only values that fit an int, unsigned
/// ones take no sign, and get_double takes only finite values:
/// "--trials 3x", "--channels 4294967300", "--seed -1" and "--rate inf"
/// are errors.
class cli_args {
 public:
  cli_args(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  int get_int(const std::string& key, int fallback) const;
  std::uint64_t get_uint64(const std::string& key,
                           std::uint64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace wsan
