// Strict numeric flag values for the command-line tools (efd_campaign,
// efd_repro, efd_dedup_sweep). A value parses only when the WHOLE token is
// a number inside the flag's range: "3x", "foo", "1e3" or "" for an
// integer, "-1" for a count, "-5" or "+5" for a seed, "nan" or "inf" for a
// duration, and anything strtoll/strtoull/strtod reports as out of range
// (ERANGE) are rejected. Each parser leaves `out` untouched and returns
// false on rejection; the tools then exit with their usage code (2).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace efd::cli {

/// A decimal integer in [lo, hi].
template <class Int>
bool parse_int(const char* s, Int& out, long long lo,
               long long hi = std::numeric_limits<Int>::max()) {
  static_assert(std::is_signed_v<Int>, "parse_int fills signed integers");
  if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
  out = static_cast<Int>(v);
  return true;
}

/// An unsigned 64-bit seed with no sign: decimal, or hex with a 0x prefix
/// (strtoull base 0, as the tools always read seeds).
inline bool parse_seed(const char* s, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (*end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// A finite, non-negative number of seconds.
inline bool parse_seconds(const char* s, double& out) {
  if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

}  // namespace efd::cli
