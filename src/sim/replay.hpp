// Deterministic schedule record/replay (the `efd-tape-v1` pipeline).
//
// Every run of a World is fully determined by (process bodies, schedule,
// failure pattern, FD history). A ScheduleTape captures the last three as a
// compact, versioned text artifact, so any run — a fuzz counterexample, a
// directed crash scenario, a hand-built regression — can be replayed
// byte-identically, diffed, shrunk (core/shrink.hpp) and checked into
// tests/corpus/ as a one-command reproduction:
//
//  * RecordingScheduler wraps ANY scheduler and records the pids it emits;
//  * ScheduleTape::capture folds the recorded schedule, the base failure
//    pattern, the faults the drive landed, and the FD samples observed in
//    the trace (stored as per-process value deltas) into one artifact;
//  * replay_tape rebuilds the identical run in a fresh world: the tape's
//    history() answers FD queries from the recorded deltas, so no detector
//    object is needed — the tape is self-contained. It drives through
//    drive_with_faults (sim/schedule.hpp), the loop every recording drive
//    uses, so each crash point and link charge lands at the step index it
//    was recorded at;
//  * crash points kill an S-process at an exact schedule STEP INDEX, not
//    just at the pattern-sampled times — "kill the leader mid-commit" is a
//    tape entry.
//
// Identity is checked against trace_hash (sim/trace.hpp) and the
// deterministic RunStats subset (sim/stats.hpp); both are stable across
// processes, interning orders and thread counts.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fd/failure_pattern.hpp"
#include "fd/history.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"

namespace efd {

/// Base of the tape error taxonomy. Tools map the subclasses to distinct
/// exit codes (see tools/efd_repro.cpp): parse errors mean the artifact is
/// malformed, IO errors mean it could not be read or written at all.
class TapeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Malformed or truncated tape text (always carries a line-numbered message).
class TapeParseError : public TapeError {
 public:
  using TapeError::TapeError;
};

/// The tape file could not be opened / read / written.
class TapeIoError : public TapeError {
 public:
  using TapeError::TapeError;
};

/// A recorded run: schedule, environment, and expectations. Text format
/// `efd-tape-v1` (spec in EXPERIMENTS.md), one artifact per counterexample.
class ScheduleTape {
 public:
  static constexpr const char* kFormat = "efd-tape-v1";

  /// One FD history delta: q_{qi+1}'s module output changes to `value` at
  /// `time` (holds until the next delta of the same process).
  struct FdDelta {
    int qi = 0;
    Time time = 0;
    Value value;
  };

  std::string scenario;  ///< registry key (core/repro_scenarios); "" = unbound
  /// Provenance only: the one-line FaultPlan (sim/faultplan.hpp) this tape
  /// was recorded under, if any. Replay never consults it — all plan effects
  /// (trigger kills, corrupted advice, starvation bursts) are already baked
  /// into crashes / fd / steps; it documents WHERE a campaign tape came from.
  std::string plan;
  /// Provenance only: what kind of finding this tape captures ("safety",
  /// "wait-free", "safety+wait-free"; "" for non-finding tapes). A
  /// wait-freedom-only finding has expect_violated == false — the safety
  /// predicate really did hold — so without this stamp a replay reports
  /// "as expected" and triage cannot tell the tape captured a liveness
  /// violation at all. efd_repro print/replay surface it.
  std::string finding;
  /// Provenance only: which substrate (sim/substrate.hpp) the run was
  /// recorded on — "shm", "msg", or "" for plain register tapes. Replay
  /// never consults it (the scenario rebuilds its own world, substrate and
  /// all); parse validates the token so a typo fails loudly.
  std::string substrate;
  int num_s = 0;
  std::vector<std::optional<Time>> base_crash;  ///< base pattern crash times
  std::vector<CrashPoint> crashes;              ///< injected, sorted by step_index
  std::vector<LinkFaultPoint> linkfaults;       ///< charged, sorted by step_index
  std::vector<FdDelta> fd;                      ///< chronological per process
  std::vector<Pid> steps;                       ///< the schedule, in order

  // Optional expectations, stamped at capture / by tools:
  std::optional<std::uint64_t> expect_hash;  ///< trace hash of the recorded run
  std::optional<bool> expect_violated;       ///< scenario predicate outcome

  /// The base failure pattern (injected crash points NOT applied).
  [[nodiscard]] FailurePattern pattern() const;

  /// Self-contained replay history: the value of q_{qi+1}'s module at time t
  /// is its latest recorded delta at or before t, ⊥ before the first. At the
  /// exact (process, time) points the recorded run queried, this reproduces
  /// the original history's answers verbatim.
  [[nodiscard]] HistoryPtr history() const;

  /// Builds a tape from a recorded drive, stamping everything the run
  /// determined. `base` is the pattern the world was CONSTRUCTED with
  /// (before any injected crash), `steps` the pids the RecordingScheduler
  /// emitted, `run` what drive_with_faults returned (the crash points and
  /// link charges that landed) and `w` the driven, traced world (substrate,
  /// FD deltas, expect_hash). Only record_run (core/repro_scenarios.hpp)
  /// and run_plan call it.
  [[nodiscard]] static ScheduleTape capture(std::string scenario, const FailurePattern& base,
                                            std::vector<Pid> steps, const PlanDriveResult& run,
                                            World& w);

  /// Versioned text round-trip. parse throws TapeParseError with a
  /// line-numbered message on malformed input.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static ScheduleTape parse(const std::string& text);
};

/// File IO conveniences (throw TapeIoError on IO failure, TapeParseError on
/// malformed content).
[[nodiscard]] ScheduleTape load_tape(const std::string& path);
void save_tape(const ScheduleTape& tape, const std::string& path);

/// Wraps an inner scheduler and records every pid it emits. Transparent:
/// forwards next() verbatim, so recording never perturbs the run.
class RecordingScheduler final : public Scheduler {
 public:
  explicit RecordingScheduler(Scheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::optional<Pid> next(const World& w) override {
    const auto pid = inner_.next(w);
    if (pid) steps_.push_back(*pid);
    return pid;
  }

  [[nodiscard]] const std::vector<Pid>& steps() const noexcept { return steps_; }

 private:
  Scheduler& inner_;
  std::vector<Pid> steps_;
};

struct ReplayResult {
  DriveResult drive;
  std::uint64_t hash = 0;    ///< trace_hash of the replayed run
  bool hash_match = true;    ///< hash == tape.expect_hash (true when unset)
};

/// Drives `tape` in `w` (which must have been freshly built from
/// tape.pattern() / tape.history() plus the scenario's process bodies):
/// enables tracing and runs the schedule with the tape's crash points and
/// link charges. It stops early, exactly like the recording drive did, once
/// every C-process has decided. Unlike a plan drive it is strict: a crash
/// point or link charge that the drive reached but the world could not take
/// throws (a crash point on an already-dead process stays a no-op). The
/// shrinker's scenario predicate (core/repro_scenarios.hpp) reads only the
/// driven world, so it calls this and hashes nothing.
DriveResult drive_tape(World& w, const ScheduleTape& tape);

/// drive_tape(), then the trace hash of the run, checked against
/// tape.expect_hash.
ReplayResult replay_tape(World& w, const ScheduleTape& tape);

}  // namespace efd
