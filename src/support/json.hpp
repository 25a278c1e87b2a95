// JSON writing helpers: the one JSON string escaper and a JSONL-to-array
// helper for documents that embed JSONL snapshots.
#pragma once

#include <string>
#include <string_view>

namespace moonshot {

/// Escapes `s` for the inside of a JSON string literal: backslash, double
/// quote, \n and \t get their short escapes, other bytes below 0x20 become
/// \u00XX, and every other byte (UTF-8 included) passes through unchanged.
std::string json_escape(std::string_view s);

/// Turns JSONL text (one JSON value per line) into the lines of a JSON
/// array's body: each non-blank line prefixed by `indent`, joined by ",\n"
/// and ended by a newline. Empty or blank input gives an empty string.
std::string jsonl_as_array_elements(std::string_view jsonl, std::string_view indent);

}  // namespace moonshot
