// Shared memory: an unbounded array of atomic read/write registers.
//
// Registers are addressed by interned RegAddr handles (see regid.hpp);
// reg(sym("V"), 2) names the canonical register "V[2]". A register never
// written reads as Nil (⊥), matching the paper's convention for initial
// register values. All accesses are single model steps performed by the
// World executor — the RegisterFile itself is a plain sequential store;
// atomicity comes from the one-step-at-a-time interleaving semantics of the
// simulator.
//
// The store is a RegId-indexed flat vector, so a read/write never
// constructs or hashes a std::string. content_hash() is maintained
// incrementally: each written cell contributes
//     cell_hash = mix(name_hash(RegId), value.hash())
// and the store keeps the commutative (mod 2^64) sum of cell hashes,
// updated by delta on every write. Keying by the canonical-name hash (not
// the RegId) makes the hash independent of interning order, and the
// commutative fold makes it independent of write interleaving — the two
// properties replay-based exploration dedup (corridor DFS, bivalence
// search) relies on. The string-accepting overloads intern by full name and
// exist for tests and debug probes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/hash.hpp"
#include "sim/regid.hpp"
#include "sim/value.hpp"

namespace efd {

/// Contribution of one written cell to the commutative content hash.
/// Binds the (stable) name hash to the value hash so that swapping the
/// values of two registers changes the total.
[[nodiscard]] constexpr std::uint64_t cell_content_hash(std::uint64_t name_hash,
                                                        std::uint64_t value_hash) noexcept {
  return splitmix64_finalize(name_hash ^ (value_hash * kGoldenGamma));
}

/// The shared store. One instance per World.
class RegisterFile {
 public:
  /// Current value of `addr`; Nil if never written.
  [[nodiscard]] Value read(RegAddr addr) const noexcept {
    const RegId id = addr.id();
    return (id < cells_.size() && written_[id] != 0) ? cells_[id] : Value{};
  }

  /// True iff `addr` was ever written (an explicitly written Nil counts).
  [[nodiscard]] bool written(RegAddr addr) const noexcept {
    const RegId id = addr.id();
    return id < cells_.size() && written_[id] != 0;
  }

  /// Overwrites `addr` with `v` (an explicitly written Nil still counts as
  /// written: the cell then contributes to footprint and content hash,
  /// exactly as the string-keyed store did).
  void write(RegAddr addr, Value v);

  /// Exact inverse of the most recent write(addr, ...): restores the cell to
  /// `prev` / never-written (`was_written == false`), rewinding the
  /// footprint and the incremental content hash. Used by the incremental
  /// explorer's undo log; `(prev, was_written)` must be the pair observed via
  /// read()/written() immediately before that write.
  void undo_write(RegAddr addr, const Value& prev, bool was_written);

  /// Number of distinct registers ever written.
  [[nodiscard]] std::size_t footprint() const noexcept { return footprint_; }

  /// Deterministic hash of the full memory contents (for exploration
  /// dedup). O(1): maintained incrementally by write().
  [[nodiscard]] std::uint64_t content_hash() const noexcept {
    // A final mix so an empty store doesn't hash to a trivial constant
    // relative to single-cell stores.
    return cell_content_hash(0x9AE16A3B2F90404FULL, hash_acc_);
  }

  /// Raw commutative cell-hash accumulator, BEFORE the final mix. World
  /// combines it with a substrate's accumulator (sim/substrate.hpp) so a
  /// message-passing backend's mailbox state folds into the same state hash
  /// a register-emulated mailbox would produce: content_hash() ==
  /// cell_content_hash(seed, hash_acc()) by construction.
  [[nodiscard]] std::uint64_t hash_acc() const noexcept { return hash_acc_; }

  /// From-scratch recompute of content_hash() over the written cells.
  /// O(footprint); for tests and debugging only.
  [[nodiscard]] std::uint64_t content_hash_slow() const noexcept;

 private:
  std::vector<Value> cells_;          ///< RegId-indexed; holes read as Nil
  std::vector<std::uint8_t> written_; ///< 1 iff the cell was ever written
  std::vector<std::uint64_t> cell_hash_;  ///< last cell_content_hash per id
  std::uint64_t hash_acc_ = 0;        ///< commutative sum of cell hashes
  std::size_t footprint_ = 0;
};

}  // namespace efd
