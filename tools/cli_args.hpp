// Strict numeric flag parsing shared by the command-line tools.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace hemp::cli {

/// Parses the whole of `text` as a finite T >= `lo`.  Anything else — a
/// partial parse, overflow, a value below `lo`, infinity or NaN — prints
/// "<tool>: <flag> needs <what>, got '<text>'" and exits with status 2.
template <class T>
T parse_flag(const char* tool, const char* flag, const char* text, T lo,
             const char* what) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // Written so NaN fails; the upper bound rejects infinity.
  if (ec != std::errc{} || ptr != end ||
      !(value >= lo && value <= std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", tool, flag, what, text);
    std::exit(2);
  }
  return value;
}

}  // namespace hemp::cli
