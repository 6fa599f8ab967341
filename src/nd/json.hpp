// The one JSON string and number writer behind every export: h4d-metrics-v1,
// h4d-jobs-v1, the Chrome trace and h4d-scrub-v1 (docs/OBSERVABILITY.md).
#pragma once

#include <iosfwd>
#include <string_view>

namespace h4d {

/// `s` as a JSON string literal: `"` and `\` backslash-escaped, \n \r \t as
/// their short escapes, every other byte below 0x20 as \u00XX.
void write_json_string(std::ostream& os, std::string_view s);

/// `v` in fixed notation with `decimals` digits after the point (9 keeps
/// sub-ns seconds without an exponent); NaN and infinities are written as 0,
/// which JSON cannot spell otherwise. Leaves the stream's format flags alone.
void write_json_number(std::ostream& os, double v, int decimals = 9);

}  // namespace h4d
