// Tests for the record/replay pipeline (sim/replay.hpp), crash-point fault
// injection, the ddmin shrinker (core/shrink.hpp), and the scenario registry
// (core/repro_scenarios.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <string>

#include "core/repro_scenarios.hpp"
#include "core/shrink.hpp"
#include "fd/detectors.hpp"
#include "sim/adversary.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

Proc spin(Context& ctx) {
  for (;;) co_await ctx.yield();
}

Proc query_spin(Context& ctx) {
  for (;;) co_await ctx.query();
}

Proc decide_after(Context& ctx, int steps) {
  for (int i = 0; i < steps; ++i) co_await ctx.yield();
  co_await ctx.decide(Value(steps));
}

// ---- tape text round-trip --------------------------------------------------

ScheduleTape sample_tape() {
  ScheduleTape t;
  t.scenario = "demo";
  t.num_s = 3;
  t.base_crash = {std::nullopt, Time{12}, std::nullopt};
  t.crashes = {{5, 0}, {9, 2}};
  t.fd = {{0, 1, Value(2)},
          {1, 3, vec(Value(0), Value("a\"b\\c"))},
          {0, 7, Value{}},
          {2, 8, Value(-41)}};
  t.steps = {cpid(0), spid(1), cpid(0), spid(2), cpid(1)};
  t.expect_hash = 0xDEADBEEF12345678ULL;
  t.expect_violated = true;
  return t;
}

TEST(Tape, SerializeParseRoundTrip) {
  const ScheduleTape t = sample_tape();
  const ScheduleTape r = ScheduleTape::parse(t.serialize());
  EXPECT_EQ(r.scenario, t.scenario);
  EXPECT_EQ(r.num_s, t.num_s);
  EXPECT_EQ(r.base_crash, t.base_crash);
  EXPECT_EQ(r.crashes, t.crashes);
  EXPECT_EQ(r.steps, t.steps);
  EXPECT_EQ(r.expect_hash, t.expect_hash);
  EXPECT_EQ(r.expect_violated, t.expect_violated);
  ASSERT_EQ(r.fd.size(), t.fd.size());
  for (std::size_t i = 0; i < t.fd.size(); ++i) {
    EXPECT_EQ(r.fd[i].qi, t.fd[i].qi);
    EXPECT_EQ(r.fd[i].time, t.fd[i].time);
    EXPECT_EQ(r.fd[i].value, t.fd[i].value) << "delta " << i;
  }
  // Round-tripping the round-trip is byte-stable.
  EXPECT_EQ(r.serialize(), t.serialize());
}

TEST(Tape, ParseRejectsMalformedInput) {
  EXPECT_THROW(ScheduleTape::parse(""), std::runtime_error);
  EXPECT_THROW(ScheduleTape::parse("efd-tape-v0\ns 1\n"), std::runtime_error);
  const std::string ok = sample_tape().serialize();
  // Bad pid token in the schedule body.
  std::string bad = ok;
  bad.replace(bad.find("q2"), 2, "x2");
  EXPECT_THROW(ScheduleTape::parse(bad), std::runtime_error);
  // Truncated schedule (declared count never satisfied).
  bad = ok.substr(0, ok.find("steps 5")) + "steps 50\np1 p2\nend\n";
  EXPECT_THROW(ScheduleTape::parse(bad), std::runtime_error);
  // Crash point naming a non-existent S-process.
  bad = ok;
  bad.replace(bad.find("crash 5 0"), 9, "crash 5 7");
  EXPECT_THROW(ScheduleTape::parse(bad), std::runtime_error);
  // Pattern width disagreeing with the s line.
  bad = ok;
  bad.replace(bad.find("pattern - 12 -"), 14, "pattern - 12");
  EXPECT_THROW(ScheduleTape::parse(bad), std::runtime_error);
  // A pid index past int's range is rejected, not wrapped (2^32 + 2 was q2).
  bad = ok;
  bad.replace(bad.find("q2"), 2, "q4294967298");
  EXPECT_THROW(ScheduleTape::parse(bad), TapeParseError);
  // A step count no text can hold fails as truncated, without reserving it.
  bad = ok;
  bad.replace(bad.find("steps 5"), 7, "steps 99999999999999");
  EXPECT_THROW(ScheduleTape::parse(bad), TapeParseError);
  // Value literals nest boundedly: 100 deep parses, 50,000 deep (which
  // overflowed the recursive parser's stack) is a parse error.
  const auto with_fd = [&ok](std::size_t depth) {
    const std::string fd = "fd 0 1 " + std::string(depth, '[') + std::string(depth, ']') + "\n";
    std::string text = ok;
    return text.insert(text.find("steps 5"), fd);
  };
  EXPECT_NO_THROW((void)ScheduleTape::parse(with_fd(100)));
  EXPECT_THROW((void)ScheduleTape::parse(with_fd(50000)), TapeParseError);
}

TEST(Tape, CommentsAndBlankLinesIgnored) {
  std::string text = "# a comment\nefd-tape-v1\n\ns 0\n# mid comment\nsteps 1\np1\nend\n";
  const ScheduleTape t = ScheduleTape::parse(text);
  EXPECT_EQ(t.num_s, 0);
  ASSERT_EQ(t.steps.size(), 1u);
  EXPECT_EQ(t.steps[0], cpid(0));
}

TEST(Tape, HistoryServesLatestDeltaAtOrBeforeT) {
  ScheduleTape t;
  t.num_s = 2;
  t.base_crash = {std::nullopt, std::nullopt};
  t.fd = {{0, 5, Value(1)}, {0, 9, Value(2)}};
  const HistoryPtr h = t.history();
  EXPECT_TRUE(h->at(0, 4).is_nil());   // before the first delta: ⊥
  EXPECT_EQ(h->at(0, 5), Value(1));
  EXPECT_EQ(h->at(0, 8), Value(1));    // holds between deltas
  EXPECT_EQ(h->at(0, 9), Value(2));
  EXPECT_EQ(h->at(0, 1000), Value(2)); // holds forever after
  EXPECT_TRUE(h->at(1, 50).is_nil());  // process with no deltas: ⊥
}

// ---- recording transparency ------------------------------------------------

TEST(Recording, WrapperDoesNotPerturbTheRun) {
  auto run = [](bool wrapped) {
    World w = World::failure_free(1);
    w.enable_trace();
    for (int i = 0; i < 3; ++i) {
      w.spawn_c(i, [](Context& ctx) { return decide_after(ctx, 10); });
    }
    RandomScheduler rs(42);
    if (wrapped) {
      RecordingScheduler rec(rs);
      drive(w, rec, 1000);
    } else {
      drive(w, rs, 1000);
    }
    return trace_hash(w.trace());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Recording, CapturedScheduleMatchesTrace) {
  World w = World::failure_free(1);
  w.enable_trace();
  w.spawn_c(0, [](Context& ctx) { return decide_after(ctx, 5); });
  w.spawn_c(1, [](Context& ctx) { return decide_after(ctx, 5); });
  RandomScheduler rs(7);
  RecordingScheduler rec(rs);
  drive(w, rec, 1000);
  ASSERT_EQ(rec.steps().size(), w.trace().size());
  for (std::size_t i = 0; i < rec.steps().size(); ++i) {
    EXPECT_EQ(rec.steps()[i], w.trace()[i].pid) << "step " << i;
  }
}

// ---- crash-point injection -------------------------------------------------

TEST(CrashPoints, KillAtExactStepIndex) {
  FailurePattern f(2);
  World w(f, TrivialFd{}.history(f, 0));
  w.spawn_s(0, spin);
  w.spawn_s(1, spin);
  ExplicitSchedule sched(std::vector<Pid>(10, spid(0)));
  const auto r = drive_with_faults(w, sched, 100, {.crashes = {{4, 0}}});
  // q1 stepped 4 times, then crashed: the remaining 6 scheduled steps are
  // refused (no time advance), so the drive still attempts all 10.
  EXPECT_EQ(w.steps_taken(spid(0)), 4);
  EXPECT_EQ(r.drive.steps, 10);
  EXPECT_FALSE(w.alive(spid(0)));
  EXPECT_TRUE(w.alive(spid(1)));
  EXPECT_EQ(w.run_stats().injected_crashes, 1);
  EXPECT_EQ(w.run_stats().crashed_attempts, 6);
}

TEST(CrashPoints, InjectionNeverRevives) {
  FailurePattern f(1);
  f.crash(0, 2);
  World w(f, TrivialFd{}.history(f, 0));
  w.spawn_s(0, spin);
  ExplicitSchedule sched(std::vector<Pid>(8, spid(0)));
  // Injecting at step 5 targets a process already dead since t=2: a no-op,
  // not a revival (alive uses t < crash_time; overwriting with a later time
  // would resurrect it for the interim).
  drive_with_faults(w, sched, 100, {.crashes = {{5, 0}}});
  EXPECT_EQ(w.steps_taken(spid(0)), 2);
  EXPECT_EQ(w.run_stats().injected_crashes, 0);
}

TEST(CrashPoints, OutOfRangeIndexThrows) {
  World w = World::failure_free(1);
  EXPECT_THROW(w.inject_crash(3), std::out_of_range);
  EXPECT_THROW(w.inject_crash(-1), std::out_of_range);
}

// ---- record -> replay identity --------------------------------------------

TEST(Replay, EveryRegistryScenarioReplaysIdentically) {
  for (const auto& sc : scenarios()) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      const ScheduleTape tape = sc.record(seed);
      ASSERT_TRUE(tape.expect_hash) << sc.name;
      const ScenarioReplayOutcome out = replay_in_scenario(sc, tape);
      EXPECT_TRUE(out.replay.hash_match) << sc.name << " seed " << seed;
      EXPECT_TRUE(out.matches(tape)) << sc.name << " seed " << seed;
      // And the text form is lossless: parse(serialize) replays to the same
      // hash as the in-memory tape.
      const ScheduleTape reparsed = ScheduleTape::parse(tape.serialize());
      const ScenarioReplayOutcome out2 = replay_in_scenario(sc, reparsed);
      EXPECT_EQ(out2.replay.hash, out.replay.hash) << sc.name << " seed " << seed;
    }
  }
}

TEST(Replay, RecordedTapesArePinned) {
  // What each scenario records, not only that it replays: a shift in the
  // step where a fault lands moves record and replay together, which
  // EveryRegistryScenarioReplaysIdentically cannot see. FNV-1a of the
  // serialized tape at seeds 1 and 2.
  const std::map<std::string, std::array<std::uint64_t, 2>> pins = {
      {"synth_write_race", {0xB097F2124568FE97ULL, 0xBD68360E43F27DD0ULL}},
      {"paxos_lockstep_livelock", {0xE287F2C901BE502CULL, 0xBD701652F7973810ULL}},
      {"cons_leader_crash_commit", {0x8D17A9FBFB65932BULL, 0xE7895FEB41724E89ULL}},
      {"renaming_flip_lockstep", {0x114E5BC226786F20ULL, 0x17CD05D5CEEA631AULL}},
      {"ksa_starved_leader", {0x9871E8BAC4090F41ULL, 0xA1762DB8C922127EULL}},
      {"quitter_window", {0x190FAF950BCF93AFULL, 0xC363C75188975C4DULL}},
      {"one_conc_window", {0xAA63B0CD8F631FE5ULL, 0x8883C7791C1C2439ULL}},
      {"buggy_cons_first_writer", {0x400459055E90DC8AULL, 0x15B88248D9742AAAULL}},
      {"buggy_ren_stale_claim", {0xF55D5DFE326FD55EULL, 0xB2375C2B1DB0AA53ULL}},
      {"buggy_torn_commit", {0xFA666EB56415983EULL, 0x1F8A60C2372FE8C3ULL}},
      {"mp_floodmin_clean", {0x90A7DF01C7D00505ULL, 0x92241F0B196CFBA6ULL}},
      {"mp_floodmin_partition", {0xF769272A73D08F9AULL, 0xB0441139153AD0EBULL}},
      {"mp_floodmin_crash_bcast", {0x86FE23C566A0EAD4ULL, 0x31C181112497E0C8ULL}},
      {"mp_floodmin_lossy_raw", {0x9E12C55D9B4B5C01ULL, 0xCA0528471F1E8602ULL}},
      {"mp_floodmin_lossy_rt", {0x6FEAE65D0F3AA865ULL, 0x4CF116EF6F870F4FULL}},
  };
  ASSERT_EQ(pins.size(), scenarios().size());
  for (const auto& sc : scenarios()) {
    const auto it = pins.find(sc.name);
    ASSERT_NE(it, pins.end()) << sc.name;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const std::uint64_t got = fnv1a(sc.record(seed).serialize());
      EXPECT_EQ(got, it->second[seed - 1])
          << sc.name << " seed " << seed << " records 0x" << std::hex << got;
    }
  }
}

TEST(Replay, FaultsTheWorldCannotTakeFailTheReplay) {
  // Where a plan drive skips a fault its world cannot take, replay throws.
  const Scenario* sc = find_scenario("synth_write_race");
  ASSERT_NE(sc, nullptr);
  const ScheduleTape tape = sc->record(1);
  const auto replay = [sc](const ScheduleTape& t) {
    World w = sc->make_world(t.pattern(), t.history());
    return replay_tape(w, t);
  };
  ScheduleTape crash = tape;
  crash.crashes.push_back(CrashPoint{0, tape.num_s});  // one past the last S-process
  EXPECT_THROW(replay(crash), std::out_of_range);
  ScheduleTape link = tape;  // a register world has no links
  link.linkfaults.push_back(LinkFaultPoint{0, "ch[0][1]", LinkFaultKind::kDrop, 1});
  EXPECT_THROW(replay(link), std::logic_error);
}

TEST(Replay, DeterministicStatsSubsetIsReproduced) {
  const Scenario* sc = find_scenario("cons_leader_crash_commit");
  ASSERT_NE(sc, nullptr);
  const ScheduleTape tape = sc->record(5);
  const ScenarioReplayOutcome a = replay_in_scenario(*sc, tape);
  const ScenarioReplayOutcome b = replay_in_scenario(*sc, tape);
  EXPECT_TRUE(deterministic_equal(a.stats, b.stats));
  EXPECT_EQ(a.replay.hash, b.replay.hash);
}

TEST(Replay, HashMismatchIsDetected) {
  const Scenario* sc = find_scenario("synth_write_race");
  ASSERT_NE(sc, nullptr);
  ScheduleTape tape = sc->record(1);
  ASSERT_GE(tape.steps.size(), 2u);
  // Corrupt the schedule: swap the first two steps of different processes.
  const auto it = std::adjacent_find(tape.steps.begin(), tape.steps.end(),
                                     [](Pid a, Pid b) { return !(a == b); });
  ASSERT_NE(it, tape.steps.end());
  std::iter_swap(it, it + 1);
  World w = sc->make_world(tape.pattern(), tape.history());
  EXPECT_FALSE(replay_tape(w, tape).hash_match);
}

// ---- shrinking -------------------------------------------------------------

TEST(Shrink, SynthRaceMinimizesToThreeSteps) {
  const Scenario* sc = find_scenario("synth_write_race");
  ASSERT_NE(sc, nullptr);
  const ScheduleTape tape = sc->record(1);  // verified violating seed
  ASSERT_TRUE(tape.expect_violated && *tape.expect_violated);

  ShrinkStats stats;
  const ScheduleTape min = shrink_tape(tape, scenario_predicate(*sc, true), {}, &stats);
  EXPECT_TRUE(stats.reached_fixpoint);
  // ISSUE acceptance bar: <= 25% of the original. The actual minimum is the
  // 3-step witness (p1 writes, p2 overwrites, p1 decides).
  EXPECT_LE(min.steps.size() * 4, tape.steps.size());
  EXPECT_EQ(min.steps.size(), 3u);
  EXPECT_FALSE(min.expect_hash) << "stale hash must be cleared on schedule change";

  // Still a counterexample.
  World w = sc->make_world(min.pattern(), min.history());
  replay_tape(w, min);
  EXPECT_TRUE(sc->violated(w));
}

TEST(Shrink, NonFailingTapeIsReturnedUnchanged) {
  const Scenario* sc = find_scenario("synth_write_race");
  const ScheduleTape tape = sc->record(3);  // verified NON-violating seed
  ASSERT_FALSE(*tape.expect_violated);
  ShrinkStats stats;
  const ScheduleTape out = shrink_tape(tape, scenario_predicate(*sc, true), {}, &stats);
  EXPECT_EQ(out.steps, tape.steps);
  EXPECT_EQ(stats.candidates, 1);
  EXPECT_EQ(stats.removed_steps, 0);
}

TEST(Shrink, ShrinkFindingKeepsTheTapesOwnOutcome) {
  // shrink_finding's anchor is the tape's expect stamp, else what a replay
  // observes: an ok tape shrinks while it stays ok, and comes back stamped
  // ok with a fresh hash that a second replay matches.
  const Scenario* sc = find_scenario("synth_write_race");
  ScheduleTape ok = sc->record(3);  // verified NON-violating seed
  ASSERT_FALSE(*ok.expect_violated);
  for (const bool stamped : {true, false}) {
    if (!stamped) ok.expect_violated.reset();
    const ShrunkFinding sf = shrink_finding(sc->name, ok);
    EXPECT_LT(sf.mini.steps.size(), ok.steps.size()) << "stamped " << stamped;
    EXPECT_EQ(sf.mini.expect_violated, std::optional<bool>(false)) << "stamped " << stamped;
    EXPECT_TRUE(sf.mini.expect_hash.has_value()) << "stamped " << stamped;
    EXPECT_TRUE(sf.replay_ok) << "stamped " << stamped;
  }
}

TEST(Shrink, KeepsLoadBearingCrashPoints) {
  // Structural predicate: "fails" while some crash point on q1 survives and
  // at least two steps remain. The shrinker must drop the irrelevant q2
  // crash and the step excess, but never the load-bearing fault.
  ScheduleTape t;
  t.num_s = 2;
  t.base_crash = {std::nullopt, std::nullopt};
  t.steps.assign(16, spid(0));
  t.crashes = {{3, 0}, {7, 1}};
  const TapePredicate pred = [](const ScheduleTape& c) {
    const bool has_q1 = std::any_of(c.crashes.begin(), c.crashes.end(),
                                    [](const CrashPoint& p) { return p.s_index == 0; });
    return has_q1 && c.steps.size() >= 2;
  };
  ShrinkStats stats;
  const ScheduleTape min = shrink_tape(t, pred, {}, &stats);
  EXPECT_EQ(min.steps.size(), 2u);
  ASSERT_EQ(min.crashes.size(), 1u);
  EXPECT_EQ(min.crashes[0].s_index, 0);
  // The surviving crash index was remapped into the shrunken schedule.
  EXPECT_LE(min.crashes[0].step_index, static_cast<std::int64_t>(min.steps.size()));
  EXPECT_TRUE(stats.reached_fixpoint);
}

TEST(Shrink, CrashIndicesRemapUnderStepRemoval) {
  // Predicate pins the schedule's q2 steps; the crash at index 10 must shift
  // left exactly by the number of removed earlier steps so it still lands
  // after the same surviving prefix.
  ScheduleTape t;
  t.num_s = 2;
  t.base_crash = {std::nullopt, std::nullopt};
  for (int i = 0; i < 10; ++i) t.steps.push_back(spid(0));
  t.steps.push_back(spid(1));
  t.crashes = {{10, 1}};  // kill q2 right before its only step
  const TapePredicate pred = [](const ScheduleTape& c) {
    const bool has_q2_step =
        std::any_of(c.steps.begin(), c.steps.end(), [](Pid p) { return p == spid(1); });
    return has_q2_step && !c.crashes.empty();
  };
  const ScheduleTape min = shrink_tape(t, pred, {}, nullptr);
  ASSERT_EQ(min.steps.size(), 1u);
  EXPECT_EQ(min.steps[0], spid(1));
  ASSERT_EQ(min.crashes.size(), 1u);
  EXPECT_EQ(min.crashes[0].step_index, 0);
}

TEST(Shrink, NoCandidateIsReplayedTwice) {
  // Later rounds offer again many candidates an earlier round rejected;
  // shrink_tape replays each (steps, crashes, linkfaults) at most once, and
  // ShrinkStats::candidates counts those replays.
  for (const auto& sc : scenarios()) {
    const ScheduleTape tape = sc.record(1);
    const TapePredicate still_fails = scenario_predicate(sc, *tape.expect_violated);
    std::vector<ScheduleTape> seen;
    int repeats = 0;
    const TapePredicate recording = [&](const ScheduleTape& c) {
      repeats += static_cast<int>(std::any_of(seen.begin(), seen.end(), [&c](const auto& s) {
        return s.steps == c.steps && s.crashes == c.crashes && s.linkfaults == c.linkfaults;
      }));
      seen.push_back(c);
      return still_fails(c);
    };
    ShrinkStats stats;
    (void)shrink_tape(tape, recording, {}, &stats);
    EXPECT_EQ(repeats, 0) << sc.name << ": " << repeats << " of " << seen.size()
                          << " replays repeat an earlier candidate";
    EXPECT_EQ(stats.candidates, static_cast<std::int64_t>(seen.size())) << sc.name;
  }
}

TEST(Shrink, ShrunkTapesArePinned) {
  // What shrink_finding makes of each scenario's seed-1 recording: FNV-1a
  // of the serialized minimized tape. Skipping candidates the shrink
  // already rejected must not change a single one.
  const std::map<std::string, std::uint64_t> pins = {
      {"synth_write_race", 0x53975B6AD4E41E44ULL},
      {"paxos_lockstep_livelock", 0x1A470BFC196D17C2ULL},
      {"cons_leader_crash_commit", 0x79A194A03B32C33AULL},
      {"renaming_flip_lockstep", 0x6E2CC476C0FB70ADULL},
      {"ksa_starved_leader", 0x1B85A20EE9313FF4ULL},
      {"quitter_window", 0x6B60D3F792ECD07DULL},
      {"one_conc_window", 0x800EBF1635FDD20DULL},
      {"buggy_cons_first_writer", 0x9777D6570EB768E3ULL},
      {"buggy_ren_stale_claim", 0x3CAB2D57A104CCB3ULL},
      {"buggy_torn_commit", 0x68B9D3296162B9BAULL},
      {"mp_floodmin_clean", 0xE472605F823168EEULL},
      {"mp_floodmin_partition", 0x1E642C7220882FD3ULL},
      {"mp_floodmin_crash_bcast", 0x15E16A92813A54DBULL},
      {"mp_floodmin_lossy_raw", 0xF955EB5F2E77467FULL},
      {"mp_floodmin_lossy_rt", 0xB57BC1970B07B34AULL},
  };
  ASSERT_EQ(pins.size(), scenarios().size());
  for (const auto& sc : scenarios()) {
    const auto it = pins.find(sc.name);
    ASSERT_NE(it, pins.end()) << sc.name;
    const ShrunkFinding sf = shrink_finding(sc.name, sc.record(1));
    EXPECT_TRUE(sf.replay_ok) << sc.name;
    const std::uint64_t got = fnv1a(sf.mini.serialize());
    EXPECT_EQ(got, it->second) << sc.name << " shrinks to 0x" << std::hex << got;
  }
}

// ---- scenario registry -----------------------------------------------------

TEST(Scenarios, RegistryNamesAreUniqueAndResolvable) {
  std::vector<std::string> names;
  for (const auto& sc : scenarios()) {
    names.push_back(sc.name);
    EXPECT_EQ(find_scenario(sc.name), &sc);
    EXPECT_FALSE(sc.summary.empty());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(Scenarios, LeaderCrashTapeActuallyKillsTheLeader) {
  const Scenario* sc = find_scenario("cons_leader_crash_commit");
  ASSERT_NE(sc, nullptr);
  const ScheduleTape tape = sc->record(7);
  ASSERT_EQ(tape.crashes.size(), 1u) << "recording must locate the commit point";
  const ScenarioReplayOutcome out = replay_in_scenario(*sc, tape);
  EXPECT_EQ(out.stats.injected_crashes, 1);
  EXPECT_FALSE(out.violated) << "paxos safety must survive the mid-commit kill";
  EXPECT_TRUE(out.replay.hash_match);
}

// A replay world whose S-process queries are answered purely from the tape's
// deltas — no detector object anywhere — still evolves identically.
TEST(Replay, TapeIsSelfContainedForFdQueries) {
  FailurePattern f(2);
  const OmegaFd omega(4);
  World w(f, omega.history(f, 11));
  w.spawn_s(0, query_spin);
  w.spawn_s(1, query_spin);
  RoundRobinScheduler rr;
  const ScheduleTape tape = record_run("", w, rr, 40);

  World w2(tape.pattern(), tape.history());
  w2.spawn_s(0, query_spin);
  w2.spawn_s(1, query_spin);
  const ReplayResult rr2 = replay_tape(w2, tape);
  EXPECT_TRUE(rr2.hash_match);
}

}  // namespace
}  // namespace efd
