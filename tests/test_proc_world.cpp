// Tests for the coroutine process runtime and the World executor: one
// co_await == one model step, decide semantics, null steps after return,
// crash handling, FD query routing, subroutine composition.
#include <gtest/gtest.h>

#include "fd/detectors.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace efd {
namespace {

Proc write_read_decide(Context& ctx) {
  co_await ctx.write("X", 7);
  const Value v = co_await ctx.read("X");
  co_await ctx.decide(v);
}

TEST(World, OneAwaitIsOneStep) {
  World w = World::failure_free(1);
  w.spawn_c(0, write_read_decide);
  EXPECT_TRUE(w.step(cpid(0)));  // write
  EXPECT_EQ(w.memory().read("X").as_int(), 7);
  EXPECT_FALSE(w.decided(cpid(0)));
  w.step(cpid(0));  // read
  EXPECT_FALSE(w.decided(cpid(0)));
  w.step(cpid(0));  // decide
  EXPECT_TRUE(w.decided(cpid(0)));
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 7);
}

TEST(World, PrimingConsumesNoStep) {
  World w = World::failure_free(1);
  w.spawn_c(0, write_read_decide);
  EXPECT_EQ(w.steps_taken(cpid(0)), 0);
  EXPECT_FALSE(w.participating(cpid(0)));
  w.step(cpid(0));
  EXPECT_EQ(w.steps_taken(cpid(0)), 1);
  EXPECT_TRUE(w.participating(cpid(0)));
}

TEST(World, NullStepsAfterTermination) {
  World w = World::failure_free(1);
  w.spawn_c(0, write_read_decide);
  for (int i = 0; i < 3; ++i) w.step(cpid(0));
  EXPECT_TRUE(w.terminated(cpid(0)));
  const int before = w.steps_taken(cpid(0));
  w.step(cpid(0));  // null step: allowed, no effect
  EXPECT_EQ(w.steps_taken(cpid(0)), before);
  EXPECT_TRUE(w.decided(cpid(0)));
}

TEST(World, TimeAdvancesPerStep) {
  World w = World::failure_free(1);
  w.spawn_c(0, write_read_decide);
  EXPECT_EQ(w.now(), 0);
  w.step(cpid(0));
  w.step(cpid(0));
  EXPECT_EQ(w.now(), 2);
}

TEST(World, CrashedSProcessTakesNoSteps) {
  FailurePattern f(2);
  f.crash(0, 0);  // q1 crashed from the start
  World w(f, TrivialFd{}.history(f, 0));
  w.spawn_s(0, write_read_decide);
  w.spawn_s(1, write_read_decide);
  EXPECT_FALSE(w.step(spid(0)));  // no step, no time advance
  EXPECT_EQ(w.now(), 0);
  EXPECT_TRUE(w.step(spid(1)));
  EXPECT_EQ(w.now(), 1);
}

TEST(World, CrashTakesEffectAtItsTime) {
  FailurePattern f(1);
  f.crash(0, 2);
  World w(f, TrivialFd{}.history(f, 0));
  w.spawn_s(0, write_read_decide);
  EXPECT_TRUE(w.step(spid(0)));   // t=0 alive
  EXPECT_TRUE(w.step(spid(0)));   // t=1 alive
  EXPECT_FALSE(w.step(spid(0)));  // t=2 crashed
}

TEST(World, QueryFromCProcessThrows) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc { co_await ctx.query(); });
  EXPECT_THROW(w.step(cpid(0)), std::logic_error);
}

TEST(World, QueryRoutesThroughHistory) {
  FailurePattern f(2);
  auto h = std::make_shared<FnHistory>([](int qi, Time t) { return Value(qi * 100 + t); });
  World w(f, h);
  w.spawn_s(1, [](Context& ctx) -> Proc {
    const Value v = co_await ctx.query();
    co_await ctx.write("seen", v);
  });
  w.step(spid(1));  // query at t=0
  w.step(spid(1));  // write
  EXPECT_EQ(w.memory().read("seen").as_int(), 100);
}

TEST(World, DuplicateSpawnThrows) {
  World w = World::failure_free(1);
  w.spawn_c(0, write_read_decide);
  EXPECT_THROW(w.spawn_c(0, write_read_decide), std::invalid_argument);
}

TEST(World, SpawnBeyondPatternThrows) {
  World w = World::failure_free(2);
  EXPECT_THROW(w.spawn_s(2, write_read_decide), std::invalid_argument);
}

TEST(World, OutputVectorTracksDecisions) {
  World w = World::failure_free(1);
  w.spawn_c(0, write_read_decide);
  w.spawn_c(1, write_read_decide);
  for (int i = 0; i < 3; ++i) w.step(cpid(0));
  const ValueVec out = w.output_vector();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].as_int(), 7);
  EXPECT_TRUE(out[1].is_nil());
  EXPECT_FALSE(w.all_c_decided());
}

// --- subroutine composition ---

Co<Value> sum_two(Context& ctx) {
  const Value a = co_await ctx.read("a");
  const Value b = co_await ctx.read("b");
  co_return Value(a.int_or(0) + b.int_or(0));
}

Proc uses_subroutine(Context& ctx) {
  co_await ctx.write("a", 3);
  co_await ctx.write("b", 4);
  const Value s = co_await sum_two(ctx);
  co_await ctx.decide(s);
}

TEST(Coroutine, SubroutineStepsBubbleUp) {
  World w = World::failure_free(1);
  w.spawn_c(0, uses_subroutine);
  // 2 writes + 2 subroutine reads + 1 decide = 5 steps.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(w.decided(cpid(0))) << "decided after only " << i << " steps";
    w.step(cpid(0));
  }
  EXPECT_TRUE(w.decided(cpid(0)));
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 7);
}

TEST(Coroutine, CollectReadsEachRegisterOnce) {
  World w = World::failure_free(1);
  w.memory().write(reg("V", 0), Value(10));
  w.memory().write(reg("V", 2), Value(30));
  w.spawn_c(0, [](Context& ctx) -> Proc {
    const Value v = co_await collect(ctx, sym("V"), 3);
    co_await ctx.decide(v);
  });
  for (int i = 0; i < 4; ++i) w.step(cpid(0));  // 3 reads + decide
  const Value v = w.decision(cpid(0));
  EXPECT_EQ(v.at(0).as_int(), 10);
  EXPECT_TRUE(v.at(1).is_nil());
  EXPECT_EQ(v.at(2).as_int(), 30);
}

TEST(Coroutine, AwaitNonNilSpinsUntilWritten) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc {
    const Value v = co_await await_nonnil(ctx, "flag");
    co_await ctx.decide(v);
  });
  for (int i = 0; i < 10; ++i) w.step(cpid(0));
  EXPECT_FALSE(w.decided(cpid(0)));
  w.memory().write("flag", Value(5));
  w.step(cpid(0));  // read sees 5
  w.step(cpid(0));  // decide
  EXPECT_TRUE(w.decided(cpid(0)));
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 5);
}

TEST(Coroutine, DoubleCollectStableView) {
  World w = World::failure_free(1);
  w.memory().write(reg("D", 0), Value(1));
  w.memory().write(reg("D", 1), Value(2));
  w.spawn_c(0, [](Context& ctx) -> Proc {
    const Value v = co_await double_collect(ctx, sym("D"), 2);
    co_await ctx.decide(v);
  });
  for (int i = 0; i < 5; ++i) w.step(cpid(0));  // 2+2 reads + decide
  EXPECT_EQ(w.decision(cpid(0)), vec(Value(1), Value(2)));
}

TEST(Coroutine, ExceptionInBodyPropagates) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc {
    co_await ctx.yield();
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(w.step(cpid(0)), std::runtime_error);
}

}  // namespace
}  // namespace efd
