#ifndef SCODED_COMMON_STRING_UTIL_H_
#define SCODED_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scoded {

/// Splits `input` on `delimiter`, keeping empty fields. "a,,b" -> {a,"",b}.
std::vector<std::string> Split(std::string_view input, char delimiter);

/// True for the bytes std::isspace accepts in the "C" locale.
inline bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Removes leading and trailing ASCII whitespace. Inline: CSV ingest trims
/// every unquoted cell.
inline std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && IsAsciiSpace(input[begin])) {
    ++begin;
  }
  while (end > begin && IsAsciiSpace(input[end - 1])) {
    --end;
  }
  return input.substr(begin, end - begin);
}

/// Joins `parts` with `separator`.
std::string Join(const std::vector<std::string>& parts, std::string_view separator);

/// Parses a double; returns nullopt when the whole trimmed string is not a
/// valid floating-point literal.
std::optional<double> ParseDouble(std::string_view input);

/// Parses a 64-bit integer; returns nullopt on malformed input.
std::optional<int64_t> ParseInt(std::string_view input);

/// Strict integer parse for flag and environment values: trims ASCII
/// whitespace, then rejects empty input, trailing junk ("8080garbage"),
/// out-of-range values, and overflow (from_chars ERANGE — no silent
/// saturation) with a kInvalidArgument whose message names the value via
/// `what` (e.g. "--workers" or "SCODED_SHARD_ROWS"). The one checked
/// parser every CLI integer goes through, replacing the five
/// slightly-different getenv+strtol copies it consolidated.
Result<int64_t> ParseCheckedInt(std::string_view input, int64_t min_value, int64_t max_value,
                                std::string_view what);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view input);

}  // namespace scoded

#endif  // SCODED_COMMON_STRING_UTIL_H_
