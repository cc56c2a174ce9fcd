// rc11lib/support/text.hpp
//
// Text escaping for the Graphviz DOT export (explore/dot.cpp, behind
// rc11-run --dot).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rc11::support {

/// Escapes a string for use inside a double-quoted DOT label.  Handles the
/// DOT metacharacters (quote, backslash), turns newlines into the DOT "\n"
/// escape, and renders every other control byte and every non-ASCII byte as
/// a visible \xNN hex escape — step labels and state dumps are generated
/// text today, but a witness label round-tripped through JSON (or a future
/// user-written annotation) must never be able to break out of the label
/// quoting or emit bytes Graphviz rejects.
[[nodiscard]] inline std::string dot_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (ch == '\n') {
      out += "\\n";
    } else if (byte < 0x20 || byte >= 0x7F) {
      // Rendered literally (the backslash is escaped), e.g. tab -> \x09.
      out += "\\\\x";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xF]);
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

}  // namespace rc11::support
