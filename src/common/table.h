// Column-aligned text tables and CSV output for experiment harnesses.
//
// Every bench binary prints the series the paper plots; this keeps the
// formatting in one place so outputs are uniform and machine-parsable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace wsan {

/// A simple table: a header row plus data rows of strings. Cells are
/// formatted by the caller (see cell() overloads) so the table itself has
/// no numeric policy.
class table {
 public:
  explicit table(std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> row);

  std::size_t num_rows() const { return rows_.size(); }

  /// Writes an aligned, human-readable rendering.
  void print(std::ostream& os) const;

  /// Writes RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with the given number of decimal places.
std::string cell(double value, int decimals = 3);

/// Formats an integer.
std::string cell(long long value);
std::string cell(int value);
std::string cell(std::size_t value);

}  // namespace wsan
