// End-of-record check shared by the line-oriented text formats: the
// topology, flow set, schedule and fault plan files.
#pragma once

#include <istream>
#include <string>

#include "common/error.h"

namespace wsan {

/// Requires that every field of the record read from `record` parsed
/// and that nothing but whitespace follows the last one, so a field
/// with trailing characters ("1x") or an extra token is malformed.
/// Throws std::invalid_argument with `what` otherwise.
inline void require_record_end(std::istream& record,
                               const std::string& what) {
  std::string rest;
  WSAN_REQUIRE(record && !(record >> rest), what);
}

}  // namespace wsan
