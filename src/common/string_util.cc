#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace scoded {

std::vector<std::string> Split(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      break;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += parts[i];
  }
  return out;
}

std::optional<double> ParseDouble(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return std::nullopt;
  }
  // Integers of up to 15 digits are below 2^53, so converting them is exact.
  size_t digits_begin = trimmed[0] == '-' ? 1 : 0;
  if (trimmed.size() > digits_begin && trimmed.size() - digits_begin <= 15) {
    uint64_t magnitude = 0;
    size_t i = digits_begin;
    for (; i < trimmed.size() && trimmed[i] >= '0' && trimmed[i] <= '9'; ++i) {
      magnitude = magnitude * 10 + static_cast<uint64_t>(trimmed[i] - '0');
    }
    if (i == trimmed.size()) {
      double value = static_cast<double>(magnitude);
      return digits_begin == 1 ? -value : value;
    }
  }
  // Otherwise from_chars is exact and needs no copy. It rejects what strtod
  // also accepts (a leading '+', hex, out-of-range values) and drops a NaN's
  // payload, so those inputs fall through to strtod on a NUL-terminated copy.
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec == std::errc() && ptr == trimmed.data() + trimmed.size() && !std::isnan(value)) {
    return value;
  }
  std::string buffer(trimmed);
  char* end = nullptr;
  value = std::strtod(buffer.c_str(), &end);
  if (end != buffer.c_str() + buffer.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<int64_t> ParseInt(std::string_view input) {
  std::string_view trimmed = Trim(input);
  if (trimmed.empty()) {
    return std::nullopt;
  }
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
    return std::nullopt;
  }
  return value;
}

Result<int64_t> ParseCheckedInt(std::string_view input, int64_t min_value, int64_t max_value,
                                std::string_view what) {
  std::string_view trimmed = Trim(input);
  auto bad = [&](std::string_view why) {
    return InvalidArgumentError(std::string(what) + " expects an integer in [" +
                                std::to_string(min_value) + ", " + std::to_string(max_value) +
                                "], got '" + std::string(input) + "' (" + std::string(why) + ")");
  };
  if (trimmed.empty()) {
    return bad("empty");
  }
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return bad("out of range");
  }
  if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
    return bad("not an integer");
  }
  if (value < min_value || value > max_value) {
    return bad("out of range");
  }
  return value;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace scoded
