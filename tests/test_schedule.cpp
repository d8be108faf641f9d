// Tests for the schedulers (sim/schedule.hpp): fairness of round-robin,
// determinism of the random scheduler, and the k-concurrency window.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/efd_system.hpp"
#include "fd/detectors.hpp"
#include "sim/adversary.hpp"
#include "sim/faultplan.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

Proc count_steps(Context& ctx) {
  for (int i = 0; i < 100; ++i) co_await ctx.yield();
}

Proc decide_after(Context& ctx, int steps) {
  for (int i = 0; i < steps; ++i) co_await ctx.yield();
  co_await ctx.decide(Value(steps));
}

TEST(RoundRobin, SchedulesEveryEligibleProcess) {
  World w = World::failure_free(2);
  w.spawn_c(0, count_steps);
  w.spawn_c(1, count_steps);
  w.spawn_s(0, count_steps);
  RoundRobinScheduler rr;
  for (int i = 0; i < 30; ++i) {
    const auto pid = rr.next(w);
    ASSERT_TRUE(pid.has_value());
    w.step(*pid);
  }
  EXPECT_EQ(w.steps_taken(cpid(0)), 10);
  EXPECT_EQ(w.steps_taken(cpid(1)), 10);
  EXPECT_EQ(w.steps_taken(spid(0)), 10);
}

TEST(RoundRobin, SkipsCrashedSProcesses) {
  FailurePattern f(2);
  f.crash(0, 0);
  World w(f, TrivialFd{}.history(f, 0));
  w.spawn_s(0, count_steps);
  w.spawn_s(1, count_steps);
  RoundRobinScheduler rr;
  for (int i = 0; i < 10; ++i) {
    const auto pid = rr.next(w);
    ASSERT_TRUE(pid.has_value());
    EXPECT_EQ(*pid, spid(1));
    w.step(*pid);
  }
}

TEST(RoundRobin, ExhaustsWhenAllTerminated) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc { co_await ctx.decide(Value(1)); });
  RoundRobinScheduler rr;
  w.step(*rr.next(w));
  EXPECT_FALSE(rr.next(w).has_value());
}

TEST(RandomScheduler, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    World w = World::failure_free(1);
    w.spawn_c(0, count_steps);
    w.spawn_c(1, count_steps);
    w.spawn_c(2, count_steps);
    RandomScheduler rs(seed);
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      const auto pid = rs.next(w);
      order.push_back(pid->index);
      w.step(*pid);
    }
    return order;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

/// Always proposes q1; paired with a predicate suppressing q1 it drives a
/// SuppressScheduler into its own fallback rotation on every pick.
class StubbornScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::optional<Pid> next(const World&) override { return spid(0); }
};

TEST(Schedulers, PickSequencesArePinned) {
  // One world shape for every World-driven scheduler: a hole in the C
  // indices (p1, p3), q1 crashing at time 20, and p3 terminating after its
  // 8th step. Each scheduler's 64 picks are pinned, so any change to how a
  // scheduler filters or indexes the pid list shows up as a diff here.
  const auto picks = [](Scheduler& sched) {
    FailurePattern f(3);
    f.crash(0, 20);
    World w(f, TrivialFd{}.history(f, 0));
    w.spawn_c(0, count_steps);
    w.spawn_c(2, [](Context& ctx) { return decide_after(ctx, 7); });
    for (int i = 0; i < 3; ++i) w.spawn_s(i, count_steps);
    std::string out;
    for (int i = 0; i < 64; ++i) {
      const auto pid = sched.next(w);
      if (!pid) {
        out += '-';
        break;
      }
      out += pid->to_string() + ' ';
      w.step(*pid);
    }
    return out;
  };
  RandomScheduler random(7);
  RoundRobinScheduler rr;
  StubbornScheduler stubborn;
  SuppressScheduler suppress(stubborn, [](Pid pid, const World&) { return pid == spid(0); });
  PersonifiedScheduler personified;
  RandomScheduler inner(11);
  BurstScheduler bursts(inner, {StarvationBurst{4, 12, cpid(0)}, StarvationBurst{30, 10, spid(2)}});
  EXPECT_EQ(picks(random),
            "q3 q3 q1 p1 q2 p3 q1 p3 p3 p1 q1 p1 p3 p1 q3 q3 "
            "q3 q1 p1 q1 q2 q2 p1 q2 q3 q2 q2 p3 q3 q2 p3 p1 "
            "q3 q3 p3 q3 p1 q2 q2 q2 q2 q2 q3 q3 q3 q2 q3 q2 "
            "p3 q3 q2 q2 q3 q2 q3 q3 q2 q3 q3 q2 q2 q2 q3 p1 ");
  EXPECT_EQ(picks(rr),
            "p1 p3 q1 q2 q3 p1 p3 q1 q2 q3 p1 p3 q1 q2 q3 p1 "
            "p3 q1 q2 q3 p1 p3 q2 q3 p1 p3 q2 q3 p1 p3 q2 q3 "
            "p1 p3 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 "
            "p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 ");
  EXPECT_EQ(picks(suppress),
            "p1 p3 q2 q3 p1 p3 q2 q3 p1 p3 q2 q3 p1 p3 q2 q3 "
            "p1 p3 q2 q3 p1 p3 q2 q3 p1 p3 q2 q3 p1 p3 q2 q3 "
            "p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 "
            "q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 q3 p1 q2 ");
  EXPECT_EQ(picks(personified),
            "p1 p3 q1 q2 q3 p1 p3 q1 q2 q3 p1 p3 q1 q2 q3 p1 "
            "p3 q1 q2 q3 p3 q2 q3 p3 q2 q3 p3 q2 q3 p3 q2 q3 "
            "q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 "
            "q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 q2 q3 ");
  EXPECT_EQ(picks(bursts),
            "q3 q1 q2 p3 q2 q2 q3 q1 p3 q3 q2 q2 q2 p3 q3 q3 "
            "q2 q2 p3 q1 p3 q2 q2 q2 q3 p1 q2 p1 p3 p3 p3 q2 "
            "p1 p1 q2 q2 p1 p1 p1 q2 q2 p1 q3 q3 q2 q2 p1 p1 "
            "q2 q3 q3 q2 q2 q2 q3 q2 q2 q3 q3 q2 q3 q3 p1 q3 ");
}

TEST(RandomScheduler, EventuallySchedulesEveryone) {
  World w = World::failure_free(1);
  for (int i = 0; i < 4; ++i) w.spawn_c(i, count_steps);
  RandomScheduler rs(1);
  for (int i = 0; i < 200; ++i) w.step(*rs.next(w));
  for (int i = 0; i < 4; ++i) EXPECT_GT(w.steps_taken(cpid(i)), 0) << "process " << i;
}

TEST(ExplicitSchedule, ReplaysExactly) {
  World w = World::failure_free(1);
  w.spawn_c(0, count_steps);
  w.spawn_c(1, count_steps);
  ExplicitSchedule es({cpid(0), cpid(0), cpid(1)});
  int steps = 0;
  while (const auto pid = es.next(w)) {
    w.step(*pid);
    ++steps;
  }
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(w.steps_taken(cpid(0)), 2);
  EXPECT_EQ(w.steps_taken(cpid(1)), 1);
}

TEST(KConcurrency, WindowNeverExceedsK) {
  World w = World::failure_free(1);
  w.enable_trace();
  std::vector<int> arrival;
  for (int i = 0; i < 5; ++i) {
    arrival.push_back(i);
    w.spawn_c(i, [](Context& ctx) { return decide_after(ctx, 6); });
  }
  KConcurrencyScheduler ks(2, arrival, 0);
  const auto r = drive(w, ks, 10000);
  EXPECT_TRUE(r.all_c_decided);
  EXPECT_LE(max_concurrency(w.trace()), 2);
}

TEST(KConcurrency, AdmitsInArrivalOrder) {
  World w = World::failure_free(1);
  w.enable_trace();
  const std::vector<int> arrival = {2, 0, 1};
  for (int i = 0; i < 3; ++i) {
    w.spawn_c(i, [](Context& ctx) { return decide_after(ctx, 2); });
  }
  KConcurrencyScheduler ks(1, arrival, 0);  // 1-concurrent: strictly sequential
  drive(w, ks, 1000);
  // First non-null step of each process appears in arrival order.
  std::vector<int> first_seen;
  for (const auto& s : w.trace()) {
    if (s.pid.is_c() && std::find(first_seen.begin(), first_seen.end(), s.pid.index) ==
                            first_seen.end()) {
      first_seen.push_back(s.pid.index);
    }
  }
  EXPECT_EQ(first_seen, arrival);
}

TEST(KConcurrency, InterleavesSProcesses) {
  World w = World::failure_free(2);
  w.spawn_c(0, [](Context& ctx) { return decide_after(ctx, 50); });
  w.spawn_s(0, count_steps);
  w.spawn_s(1, count_steps);
  KConcurrencyScheduler ks(1, {0}, 1);
  drive(w, ks, 300);
  EXPECT_GT(w.steps_taken(spid(0)), 5);
  EXPECT_GT(w.steps_taken(spid(1)), 5);
}

TEST(Drive, StopsWhenAllCDecided) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return decide_after(ctx, 3); });
  w.spawn_s(0, count_steps);  // would run 100 steps if allowed
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 10000);
  EXPECT_TRUE(r.all_c_decided);
  EXPECT_LT(r.steps, 20);
}

TEST(Drive, RespectsStepBound) {
  World w = World::failure_free(1);
  w.spawn_c(0, count_steps);  // never decides
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 50);
  EXPECT_FALSE(r.all_c_decided);
  EXPECT_EQ(r.steps, 50);
}

// Stop causes are explicit and mutually exclusive: exactly one of
// all_c_decided / budget_exhausted / exhausted is set.
TEST(Drive, BudgetExhaustionIsItsOwnStopCause) {
  World w = World::failure_free(1);
  w.spawn_c(0, count_steps);  // never decides
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 50);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.all_c_decided);
  EXPECT_FALSE(r.exhausted);
}

TEST(Drive, SchedulerExhaustionIsNotBudgetExhaustion) {
  World w = World::failure_free(1);
  // Terminates without deciding: round-robin runs dry with budget left.
  w.spawn_c(0, [](Context& ctx) -> Proc { co_await ctx.yield(); });
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 50);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_FALSE(r.all_c_decided);
}

TEST(Drive, DecidedRunSetsNoOtherCause) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return decide_after(ctx, 3); });
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 10000);
  EXPECT_TRUE(r.all_c_decided);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_FALSE(r.exhausted);
}

// ---- record -> replay identity across scheduler families -------------------
//
// The tape pipeline's core property (sim/replay.hpp): for ANY scheduler,
// wrapping it in a RecordingScheduler and replaying the captured tape in a
// fresh world reproduces the run bit-for-bit — same trace hash, same
// deterministic RunStats subset. Exercised per scheduler family because each
// reaches the tape through a different code path (stateless random picks,
// rotation state, dynamic suppression).

namespace record_replay {

World make_world(const FailurePattern& f, HistoryPtr h) {
  World w(f, std::move(h));
  w.spawn_c(0, [](Context& ctx) { return decide_after(ctx, 9); });
  w.spawn_c(1, [](Context& ctx) { return decide_after(ctx, 14); });
  w.spawn_c(2, [](Context& ctx) { return decide_after(ctx, 4); });
  for (int i = 0; i < f.n(); ++i) w.spawn_s(i, count_steps);
  return w;
}

void expect_identity(Scheduler& sched, const FailurePattern& f, const HistoryPtr& h) {
  World w = make_world(f, h);
  w.enable_trace();
  RecordingScheduler rec(sched);
  const PlanDriveResult run = drive_with_faults(w, rec, 400, {});
  const ScheduleTape tape = ScheduleTape::capture("", f, rec.steps(), run, w);

  World w2 = make_world(tape.pattern(), tape.history());
  const ReplayResult rr = replay_tape(w2, tape);
  EXPECT_TRUE(rr.hash_match) << "replay diverged from the recording";
  EXPECT_TRUE(deterministic_equal(w.run_stats(), w2.run_stats()));
  EXPECT_EQ(w.output_vector(), w2.output_vector());
}

}  // namespace record_replay

TEST(RecordReplay, RandomSchedulerIdentity) {
  const FailurePattern f(2);
  const auto h = TrivialFd{}.history(f, 0);
  for (const std::uint64_t seed : {1ULL, 9ULL, 77ULL}) {
    RandomScheduler rs(seed);
    record_replay::expect_identity(rs, f, h);
  }
}

TEST(RecordReplay, LockstepSchedulerIdentity) {
  const FailurePattern f(1);
  const auto h = TrivialFd{}.history(f, 0);
  LockstepScheduler ls({cpid(2), cpid(0), spid(0), cpid(1)});
  record_replay::expect_identity(ls, f, h);
}

TEST(RecordReplay, SuppressSchedulerIdentity) {
  // Dynamic suppression (state-dependent: p2 is starved until p3 decides)
  // still records to a plain pid sequence that replays without the wrapper.
  const FailurePattern f(2);
  const auto h = TrivialFd{}.history(f, 0);
  RoundRobinScheduler inner;
  SuppressScheduler sup(inner, [](Pid pid, const World& w) {
    return pid == cpid(1) && !w.decided(cpid(2));
  });
  record_replay::expect_identity(sup, f, h);
}

TEST(RecordReplay, CrashedPatternIdentity) {
  // Base-pattern crashes (refused steps, null scheduling) replay through the
  // tape's pattern line, independent of injected crash points.
  FailurePattern f(3);
  f.crash(1, 6);
  const auto h = TrivialFd{}.history(f, 0);
  RandomScheduler rs(13);
  record_replay::expect_identity(rs, f, h);
}

TEST(Drive, SOnlyWorldIsNeverVacuouslyDecided) {
  // No C-processes at all: the old drive() reported all_c_decided == true on
  // entry (vacuous truth over an empty set), hiding that the S-run merely hit
  // its step budget. Reduction harness runs (fd/reduction) are exactly this
  // shape.
  World w = World::failure_free(2);
  w.spawn_s(0, count_steps);
  w.spawn_s(1, count_steps);
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 30);
  EXPECT_FALSE(r.all_c_decided);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.steps, 30);
}

}  // namespace
}  // namespace efd
