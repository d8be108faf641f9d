// Interned register addressing.
//
// The simulator used to key shared memory by register-name strings
// ("V[2]"), paying a heap allocation plus a string hash on every model
// step. This layer interns every register address exactly once into a
// dense 32-bit RegId; all hot-path lookups afterwards are integer ops.
//
// Two handle types:
//  * Sym    — an interned base symbol ("V", "px/RB"). Obtained from
//             sym(name); algorithms intern their bases once per coroutine
//             (or per instance struct) and build indexed addresses from
//             them with reg()/reg2()/reg3() at zero string cost.
//  * RegAddr — an interned full register address. Internally just a RegId.
//             reg(Sym, i) resolves through small integer-keyed caches, so
//             a register access never constructs or hashes a std::string.
//
// Canonical names are still the source of truth for identity: reg(sym("V"),
// 2) renders "V[2]" on first use and unifies with any RegAddr made from the
// literal string "V[2]" (string-accepting constructors are kept for tests,
// traces, and debug output). Per-RegId the interner also stores an FNV-1a
// hash of the canonical name; those name hashes are what the RegisterFile's
// incremental content hash is keyed by, so exploration dedup hashes do not
// depend on interning order (see memory.hpp).
//
// The interner is process-global, append-only, and thread-safe: a single
// World still steps one coroutine at a time, but the parallel frontier
// explorer (core/solvability.hpp) and the campaign farm run many independent
// Worlds concurrently, all resolving addresses through this table. Id reads
// (reg_name, reg_name_hash, RegAddr::name/name_hash, Sym::name,
// interned_register_count) are lock-free: entries are stored in chunks that
// never move and never change once published. Name->id lookups of
// already-interned names take a shared (read) lock; the first resolution of
// a new name takes an exclusive lock, re-checks, and appends. Ids are dense
// and immutable once handed out, and name references stay valid across
// appends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace efd {

/// Dense identifier of an interned register address.
using RegId = std::uint32_t;
inline constexpr RegId kInvalidRegId = 0xFFFFFFFFu;

/// An interned base symbol. POD handle; compare/hash by id.
class Sym {
 public:
  constexpr Sym() noexcept = default;
  [[nodiscard]] constexpr std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != 0xFFFFFFFFu; }
  /// The interned base name (e.g. "px/RB").
  [[nodiscard]] const std::string& name() const;
  friend constexpr bool operator==(Sym a, Sym b) noexcept { return a.id_ == b.id_; }

 private:
  friend Sym sym(std::string_view);
  constexpr explicit Sym(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0xFFFFFFFFu;
};

/// Interns a base symbol (one string hash; amortized by callers that keep
/// the Sym around). Idempotent: equal names yield equal Syms.
[[nodiscard]] Sym sym(std::string_view name);

/// An interned full register address — a dense RegId plus debug accessors.
class RegAddr {
 public:
  /// Invalid address (used by ops without a register, e.g. decide steps).
  constexpr RegAddr() noexcept = default;
  /// Interns `name` as-is. Convenience for tests/traces/debug and for
  /// config-level register names; not for per-access hot paths.
  RegAddr(const std::string& name);  // NOLINT(google-explicit-constructor)
  RegAddr(const char* name);         // NOLINT(google-explicit-constructor)
  RegAddr(std::string_view name);    // NOLINT(google-explicit-constructor)

  [[nodiscard]] constexpr RegId id() const noexcept { return id_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != kInvalidRegId; }
  /// Canonical register name, e.g. "V[2]" (interner lookup; debug/traces).
  [[nodiscard]] const std::string& name() const;
  /// FNV-1a hash of the canonical name: stable across processes and
  /// interning orders (used by the incremental content hash).
  [[nodiscard]] std::uint64_t name_hash() const;

  [[nodiscard]] static constexpr RegAddr from_id(RegId id) noexcept {
    RegAddr a;
    a.id_ = id;
    return a;
  }

  friend constexpr bool operator==(RegAddr a, RegAddr b) noexcept { return a.id_ == b.id_; }

 private:
  RegId id_ = kInvalidRegId;
};

/// Arity-0 address: the base symbol itself names the register (e.g. a
/// namespace-scoped scalar like "cons/DEC").
[[nodiscard]] RegAddr reg(Sym base);
/// Indexed register address, canonical name base.name() + "[i]".
[[nodiscard]] RegAddr reg(Sym base, int i);
/// Doubly-indexed register address ("b[i][j]").
[[nodiscard]] RegAddr reg2(Sym base, int i, int j);
/// Triply-indexed register address ("b[i][j][k]").
[[nodiscard]] RegAddr reg3(Sym base, int i, int j, int k);

/// String-accepting conveniences (intern the base per call — fine for
/// setup, tests, and debug output; hot paths hoist the Sym instead).
[[nodiscard]] RegAddr reg(const std::string& base, int i);
[[nodiscard]] RegAddr reg2(const std::string& base, int i, int j);
[[nodiscard]] RegAddr reg3(const std::string& base, int i, int j, int k);

/// Number of register addresses interned process-wide so far. RegIds are
/// dense: every id in [0, interned_register_count()) is valid.
[[nodiscard]] std::size_t interned_register_count();
/// Canonical name / stable name hash of an interned id (debug, hashing).
[[nodiscard]] const std::string& reg_name(RegId id);
[[nodiscard]] std::uint64_t reg_name_hash(RegId id);

}  // namespace efd

template <>
struct std::hash<efd::Sym> {
  std::size_t operator()(efd::Sym s) const noexcept { return s.id(); }
};

template <>
struct std::hash<efd::RegAddr> {
  std::size_t operator()(efd::RegAddr a) const noexcept { return a.id(); }
};
