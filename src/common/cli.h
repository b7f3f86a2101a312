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
/// precondition) prints "error: <what>" on stderr and returns
/// `error_status` (1 unless the program documents another), instead of
/// ending the program through std::terminate. A flag that no code path
/// looked up by the time the body returned is an error too ("error:
/// unknown flag --flow"): every cli_args built while the body runs
/// records the flags it was given and the ones has() or a getter read.
int run_main(int (*body)(int, char**), int argc, char** argv,
             int error_status = 1);

/// Parses flags of the form "--key value" and bare "--key" booleans.
/// Unknown positional arguments and repeated flags raise
/// std::invalid_argument, and under run_main so does a flag nothing
/// reads, so typos in experiment invocations fail loudly instead of
/// silently dropping a value. Numeric getters parse the whole value,
/// get_int takes only values that fit an int, unsigned ones take no
/// sign, and get_double takes only finite values: "--trials 3x",
/// "--channels 4294967300", "--seed -1" and "--rate inf" are errors.
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
  /// The value of flag `key`, recorded as read; nullptr when not given.
  const std::string* lookup(const std::string& key) const;

  std::map<std::string, std::string> values_;
};

}  // namespace wsan
