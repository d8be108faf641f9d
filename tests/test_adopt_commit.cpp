// Tests for the adopt-commit object (algo/adopt_commit.hpp): validity,
// commit-validity, commit-agreement — including an exhaustive check over all
// 2-party interleavings.
#include <gtest/gtest.h>

#include <set>

#include "algo/adopt_commit.hpp"
#include "sim/schedule.hpp"
#include "sim/world.hpp"

namespace efd {
namespace {

Proc party(Context& ctx, AdoptCommitInstance inst, int me, Value v) {
  const Value r = co_await adopt_commit(ctx, inst, me, v);
  co_await ctx.decide(r);
}

TEST(AdoptCommit, SoloCommitsOwnValue) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return party(ctx, AdoptCommitInstance{"ac", 3}, 0, Value(9)); });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  const Value r = w.decision(cpid(0));
  EXPECT_EQ(r.at(0).as_int(), 1);  // commit
  EXPECT_EQ(r.at(1).as_int(), 9);
}

TEST(AdoptCommit, UnanimousProposalsCommit) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w = World::failure_free(1);
    for (int i = 0; i < 3; ++i) {
      w.spawn_c(i, [i](Context& ctx) {
        return party(ctx, AdoptCommitInstance{"ac", 3}, i, Value(4));
      });
    }
    RandomScheduler rs(seed);
    const auto r = drive(w, rs, 50000);
    ASSERT_TRUE(r.all_c_decided);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(w.decision(cpid(i)).at(0).as_int(), 1) << "seed " << seed;
      EXPECT_EQ(w.decision(cpid(i)).at(1).as_int(), 4) << "seed " << seed;
    }
  }
}

void check_outcomes(const World& w, int n, std::int64_t lo, std::int64_t hi) {
  // Validity: every returned value was proposed.
  Value committed;
  for (int i = 0; i < n; ++i) {
    const Value r = w.decision(cpid(i));
    const auto v = r.at(1).as_int();
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
    if (r.at(0).as_int() == 1) {
      // Commit-agreement part 1: all commits carry the same value.
      if (!committed.is_nil()) {
        EXPECT_EQ(committed, r.at(1));
      }
      committed = r.at(1);
    }
  }
  // Commit-agreement part 2: if anyone committed u, everyone returned u.
  if (!committed.is_nil()) {
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(w.decision(cpid(i)).at(1), committed);
    }
  }
}

TEST(AdoptCommit, RandomSchedulesKeepAgreement) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const int n = 3;
    World w = World::failure_free(1);
    for (int i = 0; i < n; ++i) {
      w.spawn_c(i, [i](Context& ctx) {
        return party(ctx, AdoptCommitInstance{"ac", 3}, i, Value(100 + i));
      });
    }
    RandomScheduler rs(seed);
    const auto r = drive(w, rs, 50000);
    ASSERT_TRUE(r.all_c_decided) << "seed " << seed;
    check_outcomes(w, n, 100, 102);
  }
}

// Exhaustive: every interleaving of two parties (each takes a bounded number
// of steps, so the schedule space is a finite binary tree).
void explore_two_party(std::vector<int>& sched, int depth_limit, int& runs) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return party(ctx, AdoptCommitInstance{"ac", 2}, 0, Value(1)); });
  w.spawn_c(1, [](Context& ctx) { return party(ctx, AdoptCommitInstance{"ac", 2}, 1, Value(2)); });
  for (int c : sched) w.step(cpid(c));
  if (w.all_c_decided()) {
    ++runs;
    check_outcomes(w, 2, 1, 2);
    return;
  }
  ASSERT_LT(static_cast<int>(sched.size()), depth_limit) << "adopt-commit did not terminate";
  for (int c = 0; c < 2; ++c) {
    if (!w.decided(cpid(c))) {
      sched.push_back(c);
      explore_two_party(sched, depth_limit, runs);
      sched.pop_back();
    }
  }
}

TEST(AdoptCommit, ExhaustiveTwoPartyInterleavings) {
  std::vector<int> sched;
  int runs = 0;
  explore_two_party(sched, 60, runs);
  EXPECT_GT(runs, 100);  // the full tree was really walked
}

TEST(AdoptCommit, ConflictNeverDoubleCommitsDifferently) {
  // Directed adversarial schedule: perfectly interleaved lockstep.
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return party(ctx, AdoptCommitInstance{"ac", 2}, 0, Value(1)); });
  w.spawn_c(1, [](Context& ctx) { return party(ctx, AdoptCommitInstance{"ac", 2}, 1, Value(2)); });
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 1000);
  ASSERT_TRUE(r.all_c_decided);
  check_outcomes(w, 2, 1, 2);
}

}  // namespace
}  // namespace efd
