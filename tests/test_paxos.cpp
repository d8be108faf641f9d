// Tests for the register-based Paxos (algo/paxos.hpp): agreement and
// validity under contention and preemption, and livelock under lockstep.
#include <gtest/gtest.h>

#include <set>

#include "algo/paxos.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace efd {
namespace {

Proc proposer(Context& ctx, PaxosInstance inst, int me, Value v, int attempts) {
  for (int r = 0; r < attempts; ++r) {
    const Value d = co_await paxos_attempt(ctx, inst, me, r, v);
    if (!d.is_nil()) {
      co_await ctx.decide(d);
      co_return;
    }
  }
  // Give up proposing; adopt whatever gets decided.
  const Value d = co_await await_nonnil(ctx, inst.dec);
  co_await ctx.decide(d);
}

TEST(Paxos, SoloProposerDecidesOwnValue) {
  World w = World::failure_free(1);
  const PaxosInstance inst{"px", 3};
  w.spawn_c(0, [](Context& ctx) { return proposer(ctx, PaxosInstance{"px", 3}, 0, Value(42), 5); });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 42);
  EXPECT_EQ(w.memory().read(inst.dec).as_int(), 42);
}

TEST(Paxos, AgreementUnderContention) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    World w = World::failure_free(1);
    for (int i = 0; i < 3; ++i) {
      w.spawn_c(i, [i](Context& ctx) {
        return proposer(ctx, PaxosInstance{"px", 3}, i, Value(100 + i), 50);
      });
    }
    RandomScheduler rs(seed);
    const auto r = drive(w, rs, 100000);
    ASSERT_TRUE(r.all_c_decided) << "seed " << seed;
    std::set<std::int64_t> vals;
    for (int i = 0; i < 3; ++i) vals.insert(w.decision(cpid(i)).as_int());
    EXPECT_EQ(vals.size(), 1u) << "seed " << seed;
    EXPECT_GE(*vals.begin(), 100);
    EXPECT_LE(*vals.begin(), 102);
  }
}

TEST(Paxos, ValidityDecidedValueWasProposed) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    World w = World::failure_free(1);
    for (int i = 0; i < 2; ++i) {
      w.spawn_c(i, [i](Context& ctx) {
        return proposer(ctx, PaxosInstance{"px", 2}, i, Value(7 + i), 50);
      });
    }
    RandomScheduler rs(seed);
    drive(w, rs, 50000);
    const auto d = w.memory().read("px/DEC").as_int();
    EXPECT_TRUE(d == 7 || d == 8);
  }
}

TEST(Paxos, PreemptedAttemptReturnsNil) {
  World w = World::failure_free(1);
  // p2 pre-installs a high ballot, so p1's first attempt must fail.
  w.memory().write("px/RB[1]", Value(1000));
  w.spawn_c(0, [](Context& ctx) -> Proc {
    // Named instance: an aggregate prvalue inside co_await trips a GCC 12.2
    // double-destruction bug (see the authoring rules in sim/proc.hpp).
    const PaxosInstance inst{"px", 2};
    const Value d = co_await paxos_attempt(ctx, inst, 0, 0, Value(1));
    co_await ctx.decide(vec(d));  // wrap: decide [nil] to observe the failure
  });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  EXPECT_TRUE(w.decision(cpid(0)).at(0).is_nil());
  EXPECT_TRUE(w.memory().read("px/DEC").is_nil());
}

TEST(Paxos, LaterBallotAdoptsAcceptedValue) {
  World w = World::failure_free(1);
  // A previous ballot (5) accepted value 99 at actor 1; a new proposer must
  // adopt 99 even though it proposes 1.
  w.memory().write("px/ACC[1]", vec(Value(5), Value(99)));
  w.spawn_c(0, [](Context& ctx) {
    return proposer(ctx, PaxosInstance{"px", 2}, 0, Value(1), 10);
  });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  EXPECT_EQ(w.decision(cpid(0)).as_int(), 99);
}

TEST(Paxos, LockstepContentionLivelocks) {
  // Two proposers single-stepped in lockstep preempt each other forever —
  // the adversary the Fig. 1 extraction relies on.
  World w = World::failure_free(1);
  for (int i = 0; i < 2; ++i) {
    w.spawn_c(i, [i](Context& ctx) {
      return proposer(ctx, PaxosInstance{"px", 2}, i, Value(i), 1000000);
    });
  }
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 20000);
  EXPECT_FALSE(r.all_c_decided);
  EXPECT_TRUE(w.memory().read("px/DEC").is_nil());
}

TEST(Paxos, DecisionRegisterIsStable) {
  World w = World::failure_free(1);
  for (int i = 0; i < 3; ++i) {
    w.spawn_c(i, [i](Context& ctx) {
      return proposer(ctx, PaxosInstance{"px", 3}, i, Value(i), 200);
    });
  }
  RandomScheduler rs(77);
  // Poll DEC after every step: once set, it must never change.
  Value seen;
  for (int step = 0; step < 50000 && !w.all_c_decided(); ++step) {
    const auto pid = rs.next(w);
    if (!pid) break;
    w.step(*pid);
    const Value d = w.memory().read("px/DEC");
    if (!seen.is_nil()) {
      EXPECT_EQ(d, seen);
    }
    if (!d.is_nil()) seen = d;
  }
  EXPECT_FALSE(seen.is_nil());
}

}  // namespace
}  // namespace efd
