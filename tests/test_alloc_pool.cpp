// Tests for the arena-pooled coroutine frame allocator (sim/arena.hpp):
//  * FrameArena unit behavior — size-class freelist reuse, Scope nesting,
//    stats accounting, heap fallback for oversized and arena-less frames;
//  * pooling transparency, property-style — arena-backed runs must be
//    bit-identical to heap-backed runs: same trace_hash across seeds and
//    same ExploreOutcome across seeds AND thread counts (the kill switch
//    exists precisely so this A/B stays checkable);
//  * a regression test for the GCC 12.2 coroutine-argument hazard documented
//    in sim/proc.hpp's authoring rules (aggregate prvalues inside a
//    `co_await f(...)` expression are destroyed twice; named locals are the
//    safe form). Run under -DEFD_SANITIZE=address (`ctest -L alloc`), ASan
//    turns any double-destroy into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "algo/one_concurrent.hpp"
#include "core/solvability.hpp"
#include "sim/arena.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "support/outcome_eq.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

/// Restores the process-global pooling switch, whatever a test set it to.
struct ArenaEnabledGuard {
  bool prev = FrameArena::enabled();
  ~ArenaEnabledGuard() { FrameArena::set_enabled(prev); }
};

// ---------------------------------------------------------------------------
// FrameArena unit behavior.
// ---------------------------------------------------------------------------

TEST(FrameArena, FreelistReusesBlocksOfTheSameSizeClass) {
  FrameArena a;
  void* p = a.allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.stats().allocs, 1);
  EXPECT_EQ(a.stats().pool_hits, 0);  // first allocation bumps, no freelist yet
  a.deallocate(p, 100);
  EXPECT_EQ(a.stats().frees, 1);
  EXPECT_EQ(a.stats().live(), 0);
  // 100 and 128 bytes share the 64-byte size class [65..128]: the freed block
  // comes straight back.
  void* q = a.allocate(128);
  EXPECT_EQ(q, p);
  EXPECT_EQ(a.stats().pool_hits, 1);
  a.deallocate(q, 128);
}

TEST(FrameArena, DistinctSizeClassesDoNotShareFreelists) {
  FrameArena a;
  void* small = a.allocate(64);
  a.deallocate(small, 64);
  // 65 bytes is the next class up: must NOT reuse the 64-byte block.
  void* larger = a.allocate(65);
  EXPECT_NE(larger, small);
  a.deallocate(larger, 65);
  EXPECT_EQ(a.stats().live(), 0);
}

TEST(FrameArena, StatsAccountChunkGrowthAndLiveFrames) {
  FrameArena a;
  EXPECT_EQ(a.stats().chunk_bytes, 0);
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(a.allocate(256));
  EXPECT_GT(a.stats().chunk_bytes, 0);
  EXPECT_EQ(a.stats().live(), 100);
  for (void* p : blocks) a.deallocate(p, 256);
  EXPECT_EQ(a.stats().live(), 0);
  EXPECT_EQ(a.stats().allocs, 100);
  EXPECT_EQ(a.stats().frees, 100);
}

TEST(FrameArena, ScopesNestAndRestore) {
  FrameArena outer;
  FrameArena inner;
  EXPECT_EQ(FrameArena::current(), nullptr);
  {
    FrameArena::Scope s1(&outer);
    EXPECT_EQ(FrameArena::current(), &outer);
    {
      FrameArena::Scope s2(&inner);
      EXPECT_EQ(FrameArena::current(), &inner);
    }
    EXPECT_EQ(FrameArena::current(), &outer);
  }
  EXPECT_EQ(FrameArena::current(), nullptr);
}

TEST(FrameArena, FrameAllocPoolsOnlyUnderACurrentArena) {
  ArenaEnabledGuard guard;
  FrameArena::set_enabled(true);
  FrameArena a;
  // No current arena: heap fallback, arena untouched, free still routes.
  void* heap_frame = frame_alloc(200);
  EXPECT_EQ(a.stats().allocs, 0);
  frame_free(heap_frame);
  {
    FrameArena::Scope scope(&a);
    void* pooled = frame_alloc(200);
    EXPECT_EQ(a.stats().allocs, 1);
    frame_free(pooled);
    EXPECT_EQ(a.stats().frees, 1);
    // Oversized frames (beyond the largest 4 KiB class) bypass the arena.
    void* big = frame_alloc(64 * 1024);
    EXPECT_EQ(a.stats().allocs, 1);
    frame_free(big);
  }
}

TEST(FrameArena, KillSwitchRoutesFramesToTheHeap) {
  ArenaEnabledGuard guard;
  FrameArena a;
  FrameArena::Scope scope(&a);
  FrameArena::set_enabled(true);
  void* pooled = frame_alloc(128);
  EXPECT_EQ(a.stats().allocs, 1);
  FrameArena::set_enabled(false);
  void* heap_frame = frame_alloc(128);
  EXPECT_EQ(a.stats().allocs, 1);  // disabled: the arena saw nothing
  // A pooled frame frees correctly even after the switch flipped: the owner
  // header, not the global switch, routes the free.
  frame_free(pooled);
  EXPECT_EQ(a.stats().frees, 1);
  frame_free(heap_frame);
}

TEST(FrameArena, WorldRunsRecycleSubroutineFrames) {
  ArenaEnabledGuard guard;
  FrameArena::set_enabled(true);
  World w = World::failure_free(1);
  for (int i = 0; i < 3; ++i) {
    w.spawn_c(i, [](Context& ctx) -> Proc {
      static const Sym kBase = sym("alloc_pool/live");
      co_await ctx.write(reg(kBase, 0), Value(1));
      co_await collect(ctx, kBase, 3);
      co_await collect(ctx, kBase, 3);
      co_await ctx.decide(Value(0));
    });
  }
  RandomScheduler rs(7);
  drive(w, rs, 1000);
  const ArenaStats& s = w.arena_stats();
  EXPECT_GT(s.allocs, 3);  // top-level frames plus nested collect frames
  // Only the three top-level frames are still held (the World keeps finished
  // coroutines until destruction); every nested collect frame went back.
  EXPECT_EQ(s.live(), 3);
  // The second collect of each process reuses the first one's freed frame.
  EXPECT_GT(s.pool_hits, 0);
}

// ---------------------------------------------------------------------------
// Pooling transparency: arena on/off must be bit-identical.
// ---------------------------------------------------------------------------

/// Seed-parameterized pseudo-random process over a small register bank:
/// deterministic in (seed, self), mixes writes, reads, and nested collect
/// frames so the arena sees realistic traffic.
Proc churn_proc(Context& ctx, int self, std::uint64_t seed, Sym base) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(self + 1));
  for (int i = 0; i < 12; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const int cell = static_cast<int>((s >> 20) % 4);
    switch ((s >> 33) % 3) {
      case 0:
        co_await ctx.write(reg(base, cell), Value(static_cast<std::int64_t>(s % 97)));
        break;
      case 1: {
        const Value v = co_await ctx.read(reg(base, cell));
        co_await ctx.write(reg(base, (cell + 1) % 4), v);
        break;
      }
      default:
        co_await collect(ctx, base, 4);
        break;
    }
  }
  co_await ctx.decide(Value(self));
}

std::uint64_t traced_run_hash(bool arena, std::uint64_t seed) {
  ArenaEnabledGuard guard;
  FrameArena::set_enabled(arena);
  World w = World::failure_free(1);
  w.enable_trace();
  const Sym base = sym("alloc_pool/churn");
  for (int i = 0; i < 3; ++i) {
    w.spawn_c(i, [i, seed, base](Context& ctx) { return churn_proc(ctx, i, seed, base); });
  }
  RandomScheduler rs(seed * 2654435761u + 1);
  drive(w, rs, 5000);
  return trace_hash(w.trace());
}

TEST(PoolingTransparency, TraceHashMatchesHeapBaselineAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(traced_run_hash(true, seed), traced_run_hash(false, seed))
        << "arena-backed trace diverged from heap baseline at seed " << seed;
  }
}

ExploreOutcome sweep(bool arena, int threads, std::uint64_t seed) {
  ArenaEnabledGuard guard;
  FrameArena::set_enabled(arena);
  const TaskPtr task = std::make_shared<SetAgreementTask>(4, 2);
  const ValueVec in = task->sample_input(seed);
  const auto body = [task](int, Value input) {
    return make_one_concurrent(task, input, "alloc_pool/sweep");
  };
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2, 3};
  cfg.max_states = 400000;
  cfg.threads = threads;
  return explore_k_concurrent(task, body, in, cfg);
}

TEST(PoolingTransparency, ExploreOutcomeMatchesHeapBaselineAcrossSeedsAndThreads) {
  for (std::uint64_t seed : {1u, 7u}) {
    const ExploreOutcome heap1 = sweep(false, 1, seed);
    ASSERT_TRUE(heap1.ok) << heap1.violation;
    for (int threads : {1, 2, 8}) {
      expect_outcome_eq(heap1, sweep(true, threads, seed),
                        "arena x" + std::to_string(threads) + " seed " + std::to_string(seed));
    }
    expect_outcome_eq(heap1, sweep(false, 8, seed), "heap x8 seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// GCC 12.2 prvalue hazard (sim/proc.hpp authoring rules).
// ---------------------------------------------------------------------------

/// Destructor-balance canary: `live` going negative means a double-destroy
/// (the GCC 12.2 failure mode for aggregate prvalues passed inside a
/// `co_await f(...)` expression). Under ASan the double-destroy itself also
/// aborts the run via the heap-backed member.
struct DtorCanary {
  static std::atomic<int> live;
  static std::atomic<bool> went_negative;
  // Heap-backed member so a second destruction is a detectable double-free.
  std::shared_ptr<std::string> payload;

  explicit DtorCanary(std::string s)
      : payload(std::make_shared<std::string>(std::move(s))) {
    ++live;
  }
  DtorCanary(const DtorCanary& o) : payload(o.payload) { ++live; }
  DtorCanary(DtorCanary&& o) noexcept : payload(std::move(o.payload)) { ++live; }
  ~DtorCanary() {
    if (--live < 0) went_negative = true;
  }
};
std::atomic<int> DtorCanary::live{0};
std::atomic<bool> DtorCanary::went_negative{false};

Co<Value> child_taking_aggregate(Context& ctx, DtorCanary canary) {
  const Value v = co_await ctx.read(reg(*canary.payload, 0));
  co_return v;
}

Proc prvalue_hazard_proc(Context& ctx) {
  // The documented-SAFE form: bind the aggregate to a named local before the
  // co_await expression. (Passing `DtorCanary{...}` directly inside the
  // co_await is the GCC 12.2 double-destroy; the authoring rules ban it.)
  DtorCanary canary("alloc_pool/hazard");
  const Value v = co_await child_taking_aggregate(ctx, canary);
  co_await ctx.decide(v.is_nil() ? Value(0) : v);
}

TEST(PrvalueHazard, NamedLocalAggregateArgumentDestroysExactlyOnce) {
  ArenaEnabledGuard guard;
  for (const bool arena : {true, false}) {
    FrameArena::set_enabled(arena);
    DtorCanary::live = 0;
    DtorCanary::went_negative = false;
    {
      World w = World::failure_free(1);
      w.spawn_c(0, [](Context& ctx) { return prvalue_hazard_proc(ctx); });
      RandomScheduler rs(11);
      drive(w, rs, 100);
      EXPECT_TRUE(w.decided(cpid(0)));
    }
    EXPECT_EQ(DtorCanary::live.load(), 0) << "arena=" << arena;
    EXPECT_FALSE(DtorCanary::went_negative.load())
        << "double-destroy: arena=" << arena;
  }
}

}  // namespace
}  // namespace efd
