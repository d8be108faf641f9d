// Process identities and time for the EFD model.
//
// The system has m C-processes p_1..p_m (computation) and n S-processes
// q_1..q_n (synchronization). Following the paper we almost always use n = m,
// but the types keep the two populations distinct: only S-processes can crash
// and only S-processes may query a failure detector.
#pragma once

#include <charconv>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace efd {

/// Discrete model time. The time sequence T of a run is non-decreasing; we
/// use one tick per step, so step index and time coincide in this simulator.
using Time = std::int64_t;

/// Saturating Time (and step index) arithmetic. Fault-plan text parses
/// unclamped, so a GST, step or length near INT64_MAX must widen a window or
/// a bound, not wrap it negative; in-range values compute exactly as + and *.
inline Time sat_add(Time a, Time b) noexcept {
  Time out = 0;
  if (!__builtin_add_overflow(a, b, &out)) return out;
  return b > 0 ? std::numeric_limits<Time>::max() : std::numeric_limits<Time>::min();
}
inline Time sat_mul(Time a, Time b) noexcept {
  Time out = 0;
  if (!__builtin_mul_overflow(a, b, &out)) return out;
  return (a < 0) == (b < 0) ? std::numeric_limits<Time>::max() : std::numeric_limits<Time>::min();
}

enum class ProcKind : std::uint8_t {
  kC,  ///< computation process (wait-free participant in the task)
  kS,  ///< synchronization process (crash-prone, may query a failure detector)
};

/// Identity of a process: its population (C or S) and its 0-based index.
struct Pid {
  ProcKind kind{ProcKind::kC};
  int index{0};

  friend auto operator<=>(const Pid&, const Pid&) = default;

  [[nodiscard]] bool is_c() const noexcept { return kind == ProcKind::kC; }
  [[nodiscard]] bool is_s() const noexcept { return kind == ProcKind::kS; }

  /// "p3" / "q1" in the paper's 1-based notation.
  [[nodiscard]] std::string to_string() const {
    return (is_c() ? "p" : "q") + std::to_string(index + 1);
  }
};

/// C-process p_{i+1} (0-based index i).
constexpr Pid cpid(int i) noexcept { return Pid{ProcKind::kC, i}; }
/// S-process q_{i+1} (0-based index i).
constexpr Pid spid(int i) noexcept { return Pid{ProcKind::kS, i}; }

/// Inverse of Pid::to_string ("p3" -> cpid(2)); nullopt for any other token,
/// an index of 0 or past int's range included.
[[nodiscard]] inline std::optional<Pid> parse_pid(std::string_view tok) noexcept {
  if (tok.size() < 2 || (tok[0] != 'p' && tok[0] != 'q')) return std::nullopt;
  int idx = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data() + 1, end, idx);
  if (ec != std::errc{} || ptr != end || idx < 1) return std::nullopt;
  return tok[0] == 'p' ? cpid(idx - 1) : spid(idx - 1);
}

}  // namespace efd

template <>
struct std::hash<efd::Pid> {
  std::size_t operator()(const efd::Pid& p) const noexcept {
    return (static_cast<std::size_t>(p.kind) << 24) ^ static_cast<std::size_t>(p.index);
  }
};
