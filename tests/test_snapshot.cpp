// Tests for the snapshot objects (sim/snapshot.hpp): versioned atomic
// snapshots and one-shot immediate snapshots (self-inclusion, containment,
// immediacy — the Borowsky–Gafni properties).
#include <gtest/gtest.h>

#include "sim/memory.hpp"
#include "sim/schedule.hpp"
#include "sim/snapshot.hpp"
#include "sim/world.hpp"

namespace efd {
namespace {

Proc writer_then_snap(Context& ctx, int me, int n, Value v) {
  co_await versioned_write(ctx, "VS", me, v);
  const Value snap = co_await atomic_snapshot(ctx, "VS", n);
  co_await ctx.decide(snap);
}

TEST(AtomicSnapshot, SeesOwnWrite) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return writer_then_snap(ctx, 0, 2, Value(7)); });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  const Value snap = w.decision(cpid(0));
  EXPECT_EQ(snap.at(0).as_int(), 7);
  EXPECT_TRUE(snap.at(1).is_nil());
}

TEST(AtomicSnapshot, VersionedWritesIncreaseSeq) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) -> Proc {
    co_await versioned_write(ctx, "VS", 0, Value(1));
    co_await versioned_write(ctx, "VS", 0, Value(2));
    co_await ctx.decide(co_await ctx.read(reg("VS", 0)));
  });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  const Value cell = w.decision(cpid(0));
  EXPECT_EQ(cell.at(0).as_int(), 2);  // seq
  EXPECT_EQ(cell.at(1).as_int(), 2);  // value
}

TEST(AtomicSnapshot, SnapshotsAreMonotone) {
  // Across many random schedules: every process's snapshot contains its own
  // write, and later snapshots (by the same process) contain earlier ones.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const int n = 3;
    World w = World::failure_free(1);
    for (int i = 0; i < n; ++i) {
      w.spawn_c(i, [i, n](Context& ctx) { return writer_then_snap(ctx, i, n, Value(100 + i)); });
    }
    RandomScheduler rs(seed);
    const auto r = drive(w, rs, 50000);
    ASSERT_TRUE(r.all_c_decided) << "seed " << seed;
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(w.decision(cpid(i)).at(static_cast<std::size_t>(i)).as_int(), 100 + i);
    }
  }
}

// ---- immediate snapshot ----

Proc is_participant(Context& ctx, int me, int n, Value v) {
  const Value view = co_await immediate_snapshot(ctx, "is", me, n, v);
  co_await ctx.decide(view);
}

void check_is_properties(const World& w, int n) {
  std::vector<Value> views;
  for (int i = 0; i < n; ++i) views.push_back(w.decision(cpid(i)));
  for (int i = 0; i < n; ++i) {
    ASSERT_FALSE(views[static_cast<std::size_t>(i)].is_nil());
    // Self-inclusion.
    EXPECT_TRUE(view_contains(views[static_cast<std::size_t>(i)], i)) << "p" << (i + 1);
    for (int j = 0; j < n; ++j) {
      const Value& vi = views[static_cast<std::size_t>(i)];
      const Value& vj = views[static_cast<std::size_t>(j)];
      // Containment: comparable.
      EXPECT_TRUE(view_subset(vi, vj) || view_subset(vj, vi)) << i << "," << j;
      // Immediacy.
      if (view_contains(vi, j)) {
        EXPECT_TRUE(view_subset(vj, vi)) << i << "," << j;
      }
    }
  }
}

TEST(ImmediateSnapshot, SoloViewIsSelf) {
  World w = World::failure_free(1);
  w.spawn_c(0, [](Context& ctx) { return is_participant(ctx, 0, 3, Value(5)); });
  RoundRobinScheduler rr;
  drive(w, rr, 1000);
  const Value view = w.decision(cpid(0));
  EXPECT_EQ(view_size(view), 1);
  EXPECT_EQ(view.at(0).as_int(), 5);
}

TEST(ImmediateSnapshot, LockstepGivesFullViews) {
  // All processes in lockstep descend together and land at the same level
  // with everyone in view.
  const int n = 3;
  World w = World::failure_free(1);
  for (int i = 0; i < n; ++i) {
    w.spawn_c(i, [i, n](Context& ctx) { return is_participant(ctx, i, n, Value(i)); });
  }
  RoundRobinScheduler rr;
  const auto r = drive(w, rr, 50000);
  ASSERT_TRUE(r.all_c_decided);
  check_is_properties(w, n);
}

class ImmediateSnapshotSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImmediateSnapshotSweep, PropertiesUnderRandomSchedules) {
  const std::uint64_t seed = GetParam();
  const int n = 4;
  World w = World::failure_free(1);
  for (int i = 0; i < n; ++i) {
    w.spawn_c(i, [i, n](Context& ctx) { return is_participant(ctx, i, n, Value(10 * i)); });
  }
  RandomScheduler rs(seed);
  const auto r = drive(w, rs, 200000);
  ASSERT_TRUE(r.all_c_decided) << "seed " << seed;
  check_is_properties(w, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImmediateSnapshotSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(ViewHelpers, SubsetAndSize) {
  const Value a = vec(Value(1), kNil, Value(3));
  const Value b = vec(Value(1), Value(2), Value(3));
  EXPECT_TRUE(view_subset(a, b));
  EXPECT_FALSE(view_subset(b, a));
  EXPECT_EQ(view_size(a), 2);
  EXPECT_TRUE(view_contains(a, 0));
  EXPECT_FALSE(view_contains(a, 1));
}

}  // namespace
}  // namespace efd
