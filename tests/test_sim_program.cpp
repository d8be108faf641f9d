// Tests for the simulable-program layer (algo/sim_program.hpp): the replay
// adapter that turns coroutines into automata, the native runner, and
// run_until_decision — the machinery every simulation construction rests on.
#include <gtest/gtest.h>

#include "algo/sim_program.hpp"
#include "sim/memory.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

Proc sum_three(Context& ctx, int index, Value input) {
  co_await ctx.write(reg("sp/in", index), input);
  std::int64_t total = input.int_or(0);
  for (int i = 0; i < 3; ++i) {
    const Value v = co_await ctx.read(reg("sp/in", i));
    if (i != index) total += v.int_or(0);
  }
  co_await ctx.decide(Value(total));
}

SimProgramPtr sum_three_program() {
  return std::make_shared<ReplayProgram>([](int index, const Value& input, Context& ctx) {
    return sum_three(ctx, index, input);
  });
}

TEST(ReplayProgram, ActionSequenceMatchesCoroutine) {
  const auto prog = sum_three_program();
  Value st = prog->init(1, Value(10));

  SimAction a = prog->action(st);
  EXPECT_EQ(a.kind, SimAction::Kind::kWrite);
  EXPECT_EQ(a.addr, reg("sp/in", 1));
  EXPECT_EQ(a.value.as_int(), 10);
  st = prog->transition(st, Value{});

  for (int i = 0; i < 3; ++i) {
    a = prog->action(st);
    EXPECT_EQ(a.kind, SimAction::Kind::kRead);
    EXPECT_EQ(a.addr, reg("sp/in", i));
    st = prog->transition(st, Value(i == 1 ? 10 : 5));
  }

  a = prog->action(st);
  EXPECT_EQ(a.kind, SimAction::Kind::kDecide);
  EXPECT_EQ(a.value.as_int(), 20);  // 10 + 5 + 5
  st = prog->transition(st, Value{});
  EXPECT_EQ(prog->action(st).kind, SimAction::Kind::kHalt);
}

TEST(ReplayProgram, StateIsPureReplayable) {
  // Calling action repeatedly on the same state is idempotent, and two
  // divergent result histories evolve independently.
  const auto prog = sum_three_program();
  Value st = prog->init(0, Value(1));
  st = prog->transition(st, Value{});  // past the write
  const SimAction once = prog->action(st);
  const SimAction twice = prog->action(st);
  EXPECT_EQ(once.kind, twice.kind);
  EXPECT_EQ(once.addr, twice.addr);

  st = prog->transition(st, Value(0));     // read of own slot (ignored by the sum)
  Value branch_a = prog->transition(st, Value(100));  // read of p2's slot
  Value branch_b = prog->transition(st, Value(200));
  branch_a = prog->transition(branch_a, Value(0));    // read of p3's slot
  branch_b = prog->transition(branch_b, Value(0));
  EXPECT_EQ(prog->action(branch_a).value.as_int(), 101);
  EXPECT_EQ(prog->action(branch_b).value.as_int(), 201);
}

TEST(NativeRunner, RunsProgramAsRealProcess) {
  World w = World::failure_free(1);
  const auto prog = sum_three_program();
  w.spawn_c(0, make_sim_program_body(prog, 0, Value(1)));
  w.spawn_c(1, make_sim_program_body(prog, 1, Value(2)));
  w.spawn_c(2, make_sim_program_body(prog, 2, Value(4)));
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 10000);
  ASSERT_TRUE(r.all_c_decided);
  // Everyone eventually reads everyone (round-robin interleaves writes first).
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 7);
  EXPECT_EQ(w.decision(cpid(1)).as_int(), 7);
  EXPECT_EQ(w.decision(cpid(2)).as_int(), 7);
}

TEST(NativeRunner, EquivalentToDirectCoroutine) {
  // The same algorithm run natively and through the replay adapter produces
  // identical runs under identical schedules.
  auto run = [](bool adapted) {
    World w = World::failure_free(1);
    if (adapted) {
      w.spawn_c(0, make_sim_program_body(sum_three_program(), 0, Value(3)));
    } else {
      w.spawn_c(0, [](Context& ctx) { return sum_three(ctx, 0, Value(3)); });
    }
    RoundRobinScheduler rr;
    drive(w, rr, 1000);
    return w.decision(cpid(0));
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(RunUntilDecision, InterceptsDecide) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc {
    const Value inner = co_await run_until_decision(ctx, sum_three_program(), 0, Value(8));
    // The inner decide was intercepted: WE are still undecided and can act on it.
    co_await ctx.write("intercepted", inner);
    co_await ctx.decide(Value(inner.int_or(0) * 2));
  });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  EXPECT_EQ(w.memory().read("intercepted").as_int(), 8);
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 16);
}

TEST(RunUntilDecision, ThrowsOnHaltWithoutDecision) {
  struct NoDecision final : SimProgram {
    Value init(int, const Value&) const override { return Value(0); }
    SimAction action(const Value& st) const override {
      if (st.int_or(0) == 0) return {SimAction::Kind::kYield, "", {}};
      return {};  // halt without deciding
    }
    Value transition(const Value&, const Value&) const override { return Value(1); }
  };
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc {
    co_await run_until_decision(ctx, std::make_shared<NoDecision>(), 0, Value{});
    co_return;
  });
  // The first scheduled step delivers the yield; the resumed frame then sees
  // the halt action and throws, surfacing through World::step.
  EXPECT_THROW(w.step(cpid(0)), std::logic_error);
}

TEST(ReplayProgram, QueryActionsSurface) {
  // S-side programs expose their FD queries through the adapter.
  const auto prog = std::make_shared<ReplayProgram>([](int, const Value&, Context& ctx) -> Proc {
    const Value advice = co_await ctx.query();
    co_await ctx.write("saw", advice);
  });
  Value st = prog->init(0, Value{});
  EXPECT_EQ(prog->action(st).kind, SimAction::Kind::kQuery);
  st = prog->transition(st, Value(42));
  const SimAction a = prog->action(st);
  EXPECT_EQ(a.kind, SimAction::Kind::kWrite);
  EXPECT_EQ(a.value.as_int(), 42);
}

TEST(ReplayProgram, MessageOpsAreRejected) {
  // SimActions have no message kinds: a body whose first op is a send must
  // be refused by name, not reported as a halted process.
  const auto prog = std::make_shared<ReplayProgram>([](int, const Value&, Context& ctx) -> Proc {
    co_await ctx.send(RegAddr{"sp/mb"}, Value(1));
    co_await ctx.decide(Value(1));
  });
  try {
    (void)prog->action(prog->init(0, Value{}));
    FAIL() << "a send surfaced as a SimAction";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("send"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace efd
