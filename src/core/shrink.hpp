// ddmin-style tape shrinking: reduce a failing ScheduleTape to a locally
// minimal counterexample.
//
// Given a tape whose replay violates some predicate (a task relation, a
// safety check, any user lambda over the replayed world encoded as a
// TapePredicate), the shrinker repeatedly removes parts of the tape —
// trailing suffix, step ranges at halving granularities (delta debugging),
// individual crash points, individual link-fault charges — re-replaying
// after every candidate edit and keeping only edits that still fail. The
// result is locally minimal: no single step, contiguous chunk at the tried
// granularities, crash point, or link-fault charge can be removed without
// losing the failure.
//
// Removing steps shifts later step indices, so crash points and link-fault
// points are remapped (points inside a removed range snap to its start —
// the fault itself is never silently dropped by a step removal). FD deltas are keyed by model
// TIME and left untouched: the tape's history() semantics (latest delta at
// or before t) stays well-defined for any schedule the shrinker produces.
// The recorded expect_hash is cleared as soon as the schedule changes — it
// certified the ORIGINAL run; shrink_finding (core/repro_scenarios.hpp)
// re-stamps it from the minimized tape's replay.
//
// Later rounds offer many candidates an earlier round already rejected (a
// chunk that was load-bearing then usually still is). Within one call only
// steps, crash points and link charges differ between candidates, so each
// rejected candidate is remembered by a 128-bit digest of those three fields
// and never replayed again; the predicate is deterministic, so the result
// is the same tape. A memo hit only ever skips a candidate, never adopts
// one: a digest collision could at worst leave the tape less minimal, never
// make it stop failing. Nothing is shared across calls.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/replay.hpp"

namespace efd {

/// True when the candidate tape still reproduces the failure of interest.
/// The predicate owns world reconstruction: typically build from
/// tape.pattern()/tape.history(), replay_tape, and evaluate the violated
/// property (core/repro_scenarios.hpp provides this for named scenarios).
using TapePredicate = std::function<bool(const ScheduleTape&)>;

struct ShrinkOptions {
  int max_rounds = 64;  ///< full granularity sweeps before giving up
};

struct ShrinkStats {
  /// Predicate evaluations (replays); a candidate skipped as already
  /// rejected is not counted.
  std::int64_t candidates = 0;
  std::int64_t removed_steps = 0;
  std::int64_t removed_crashes = 0;
  std::int64_t removed_linkfaults = 0;
  int rounds = 0;               ///< full passes until the fixed point
  bool reached_fixpoint = false;
};

/// Shrinks `tape` while `still_fails` keeps returning true. If the input
/// tape itself does not satisfy the predicate, it is returned unchanged
/// (stats report zero candidates kept). Deterministic: same tape + same
/// predicate => same minimized tape.
[[nodiscard]] ScheduleTape shrink_tape(ScheduleTape tape, const TapePredicate& still_fails,
                                       const ShrinkOptions& opts = {},
                                       ShrinkStats* stats = nullptr);

}  // namespace efd
