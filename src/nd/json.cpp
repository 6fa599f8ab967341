#include "nd/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>

namespace h4d {

void write_json_string(std::ostream& os, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          os << "\\u00" << kHex[u >> 4] << kHex[u & 0xf];
        } else {
          os << c;
        }
      }
    }
  }
  os << '"';
}

void write_json_number(std::ostream& os, double v, int decimals) {
  if (!std::isfinite(v)) v = 0.0;
  // DBL_MAX has 309 integer digits; the rest is sign, point and decimals.
  char buf[352];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                                       decimals);
  os.write(buf, ec == std::errc{} ? end - buf : 0);
}

}  // namespace h4d
