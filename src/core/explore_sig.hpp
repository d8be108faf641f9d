// Configuration signatures of the k-concurrent explorer (core/solvability).
//
// A configuration of the explored tree is summarized by one 64-bit
// signature, built in three layers:
//  1. per C-process, a chain over the results of its delivered steps
//     (chain_step, starting from kFnv1aTruncatedBasis);
//  2. the world's shared-state hash (registers plus substrate-held mailbox
//     state), then each process's mixed chain and decided salt, in index
//     order (fold_proc);
//  3. the admission progress (fold_arrival).
// The explorer and the full-replay test oracle (tests/support) both build
// their signatures only through these functions, so the format lives here
// and nowhere else.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/hash.hpp"
#include "sim/proc.hpp"
#include "sim/value.hpp"

namespace efd::explore_sig {

inline constexpr std::uint64_t kDecidedSalt = 7919u;

/// Extends a process's chain by one delivered step: its op and the result
/// the step handed back to the coroutine.
inline std::uint64_t chain_step(std::uint64_t chain, OpKind op, const Value& result) noexcept {
  return chain * kFnv1aPrime + result.hash() + static_cast<std::uint64_t>(op);
}

/// Folds one process into the configuration signature; `decided` is true
/// iff the process exists and has decided.
///
/// The chain is avalanched (splitmix64 finalizer) before it enters the
/// cross-process fold. Without it the node signature is linear in the
/// per-process chains over the SAME prime as the per-step fold, so it
/// degenerates to a hash of the concatenated traces: the process boundary
/// contributes only kFnv1aTruncatedBasis * prime^(steps_i + procs - i), and that
/// multiset collides whenever two schedules swap step counts between
/// processes whose step contributions are identical (e.g. writes, which
/// fold Nil + op regardless of address or value). Observed in the wild:
/// schedules 0,1,1,1,1 and 1,1,0,0,0 of the set-agreement solver produced
/// equal signatures for genuinely different configurations, silently
/// merging their subtrees. Mixing makes the outer fold see
/// avalanche-distinct summaries, destroying the structural cancellation.
constexpr std::uint64_t fold_proc(std::uint64_t sig, std::uint64_t chain, bool decided) noexcept {
  return sig * kFnv1aPrime + splitmix64_finalize(chain) + (decided ? kDecidedSalt : 0u);
}

/// Closes the signature with the admission progress (arrivals admitted).
constexpr std::uint64_t fold_arrival(std::uint64_t sig, std::size_t next_arrival) noexcept {
  return sig * kFnv1aPrime + static_cast<std::uint64_t>(next_arrival);
}

}  // namespace efd::explore_sig
