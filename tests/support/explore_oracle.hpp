// Full-replay exploration oracle: an independent reference for
// core/solvability's incremental explorer.
//
// Every DFS node re-executes its whole schedule prefix in a fresh World
// (O(depth²) coroutine steps per root-to-leaf path), so no undo log, ghost
// step or respawn can hide a bug from it. It shares only the public
// ExploreConfig/ExploreOutcome types and the signature format
// (core/explore_sig.hpp) with the explorer. Its budget count and its dedup
// set (a std::unordered_set) are its own, so a miscount in the explorer's
// budget pool or signature store shows up as a disagreement. It always runs
// on one thread and ignores cfg.threads and cfg.dedup_store.
//
// The node semantics are the explorer's: budget → relation → terminal →
// depth → dedup → blocked dead end → children in window order. The
// deterministic subset of its outcome (tests/support/outcome_eq.hpp) must
// therefore equal the explorer's on every sweep, at the budget boundary too.
#pragma once

#include <functional>

#include "core/solvability.hpp"

namespace efd {

/// Explores every k-concurrent schedule of `body` over `inputs` by full
/// prefix replay. With dedup = false no signature prunes a subtree: the
/// unreduced tree, capped only by cfg.max_states.
ExploreOutcome explore_full_replay(const TaskPtr& task,
                                   const std::function<ProcBody(int, Value)>& body,
                                   const ValueVec& inputs, const ExploreConfig& cfg,
                                   bool dedup = true);

}  // namespace efd
