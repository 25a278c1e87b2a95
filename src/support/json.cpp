#include "support/json.hpp"

#include <cstdio>

namespace moonshot {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonl_as_array_elements(std::string_view jsonl, std::string_view indent) {
  std::string out;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string_view::npos) end = jsonl.size();
    if (end > start) {
      if (!out.empty()) out += ",\n";
      out += indent;
      out += jsonl.substr(start, end - start);
    }
    start = end + 1;
  }
  if (!out.empty()) out += '\n';
  return out;
}

}  // namespace moonshot
