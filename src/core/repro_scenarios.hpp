// Named reproduction scenarios: the bridge between a ScheduleTape (which
// stores only the environment and the schedule) and a runnable World (which
// needs process bodies).
//
// A tape names its scenario; the registry rebuilds that scenario's processes
// around the tape's recorded pattern + FD history, replays, and evaluates
// the scenario's violation predicate. The same registry drives:
//  * tools/efd_repro  — record / replay / shrink from the command line;
//  * tests/test_replay_corpus.cpp — every checked-in corpus tape replays as
//    a regression (ctest -L replay);
//  * core/shrink.hpp — scenario_predicate() is the ddmin oracle.
//
// Scenario contract: make_world must spawn DETERMINISTIC bodies — fixed
// sizes, fixed inputs, fixed namespaces — so a tape recorded today rebuilds
// bit-identically in any future process. All seed-dependence lives in
// record() (pattern, history, schedule), whose products the tape carries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/shrink.hpp"
#include "sim/replay.hpp"
#include "sim/world.hpp"

namespace efd {

struct Scenario {
  std::string name;
  std::string summary;

  /// Rebuilds the scenario's processes in a world over the given
  /// environment (typically tape.pattern() / tape.history()).
  std::function<World(const FailurePattern&, HistoryPtr)> make_world;

  /// True when the scenario's property is violated in the stopped world.
  std::function<bool(const World&)> violated;

  /// Records a fresh native run from `seed` (scenario-specific scheduler,
  /// detector and fault plan); the returned tape has expect_violated and
  /// expect_hash stamped from the observed run.
  std::function<ScheduleTape(std::uint64_t seed)> record;
};

/// All registered scenarios (stable order; names are unique).
[[nodiscard]] const std::vector<Scenario>& scenarios();
/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(const std::string& name);

struct ScenarioReplayOutcome {
  ReplayResult replay;
  bool violated = false;  ///< scenario predicate on the replayed world
  RunStats stats;         ///< the replayed world's run stats
  /// expect_hash and expect_violated (where present) both matched.
  [[nodiscard]] bool matches(const ScheduleTape& tape) const {
    return replay.hash_match &&
           (!tape.expect_violated || *tape.expect_violated == violated);
  }
};

/// Replays `tape` in a fresh world of scenario `sc` and evaluates the
/// predicate.
[[nodiscard]] ScenarioReplayOutcome replay_in_scenario(const Scenario& sc,
                                                       const ScheduleTape& tape);

/// ddmin oracle: candidate tapes still count as failing while the
/// scenario's predicate outcome equals `expect_violated`. Each call drives
/// the candidate strictly (drive_tape) and reads only the predicate, so it
/// computes no trace hash and no run stats.
[[nodiscard]] TapePredicate scenario_predicate(const Scenario& sc, bool expect_violated);

/// The one recorder: drives the freshly built `w` (its pattern is the tape's
/// base) under `sched` and `faults` with tracing on, captures the run
/// (ScheduleTape::capture), and stamps expect_violated when `scenario` is
/// registered.
[[nodiscard]] ScheduleTape record_run(const std::string& scenario, World& w, Scheduler& sched,
                                      std::int64_t max_steps, DriveFaults faults = {});

struct ShrunkFinding {
  ScheduleTape mini;
  bool replay_ok = false;  ///< a second replay matched both fresh stamps
};
/// The one shrink-and-re-stamp: ddmin-shrinks `tape` while its predicate
/// outcome stays the tape's own (its expect stamp, else one replay's), then
/// re-stamps expect_hash and expect_violated from the shrunk tape's replay.
/// Throws std::invalid_argument on an unknown scenario.
[[nodiscard]] ShrunkFinding shrink_finding(const std::string& scenario, const ScheduleTape& tape,
                                           const ShrinkOptions& opts = {},
                                           ShrinkStats* stats = nullptr);

}  // namespace efd
