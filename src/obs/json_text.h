// The JSON text writers every obs document shares: event lines, series
// windows and flight-recorder dumps.
#pragma once

#include <string>
#include <string_view>

namespace wsan::obs {

/// Appends `s` as a JSON string literal: quotes, backslashes and every
/// control character escaped, so any byte string parses back intact.
void append_json_string(std::string& out, std::string_view s);

/// Appends `v` in the shortest form that reads back to the same double
/// (as exp::json::write does), or `null` when `v` is NaN or infinite,
/// which JSON cannot represent.
void append_json_number(std::string& out, double v);

}  // namespace wsan::obs
