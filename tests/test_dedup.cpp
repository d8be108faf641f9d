// Dedup-layer tests: the FlatSigSet bugfix pass, the TieredSigSet size
// (a sum of per-thread-slot first-insert counts), its tier 0 and its
// lock-free inserts, and its out-of-core tiers (core/diskset.hpp).
//
//  * FlatSigSet regression — inserting a DUPLICATE at the 70% load boundary
//    must not grow the table (the old code ran the grow check before
//    probing), and the aside-tracked zero signature must not count toward
//    the load factor;
//  * TieredSigSet::size() — hammered from 8 writer threads while a poller
//    asserts monotonicity (a spill drains a shard's table, so size() must
//    not be derived from the tables);
//  * tier 0 — a thread's cache answers only for the store whose slot holds
//    it: a signature one store holds reads fresh in another;
//  * lock-free inserts — 8 racers with overlapping streams through five
//    doublings of every shard of a default store, through ~24 spills and
//    3 merges of every shard of a disk-tier store, and through the latch
//    of a capped one: each distinct signature reported fresh exactly once,
//    exact size() and exact duplicate counts; the same with 8 more racers
//    alive at once than a store has thread slots (the locked fallback),
//    with and without a disk tier;
//  * TieredSigSet property tests against a std::unordered_set oracle —
//    random streams with duplicates, forced spills at tiny byte budgets,
//    merge-then-query equivalence, exact per-tier duplicate counts under
//    8 concurrent inserters, and the mem-exhaustion latch;
//  * failed spills — with the spill directory removed, spills that cannot
//    create their file throw, and lose no stored signature;
//  * explorer integration — ExploreOutcome through the disk tier (a 1 MiB
//    budget that spills) is byte-identical to the default store across
//    {1,2,8} threads, also at the exact budget boundary over {1,2,4,8};
//    the 1-thread sweep's split of duplicates across the tiers is pinned;
//    per-tier duplicate counts add up at every thread count, also over 24
//    back-to-back 4-thread sweeps that recycle thread slots; and a
//    memory-capped store with no disk tier degrades to a lower bound at the
//    first state after the cap.
//
// Labeled `dedup` in ctest; sized to stay viable under ASan/TSan builds.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "algo/one_concurrent.hpp"
#include "core/diskset.hpp"
#include "core/sigset.hpp"
#include "core/solvability.hpp"
#include "sim/hash.hpp"
#include "support/outcome_eq.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

// ---------------------------------------------------------------------------
// FlatSigSet bugfix regressions.
// ---------------------------------------------------------------------------

/// Distinct non-zero signatures, deterministic (splitmix64 stream).
std::vector<std::uint64_t> distinct_sigs(std::size_t n, std::uint64_t seed = 42) {
  std::vector<std::uint64_t> out;
  out.reserve(n);
  SplitMix64 rng{seed};
  while (out.size() < n) {
    const std::uint64_t z = rng.next();
    if (z != 0) out.push_back(z);
  }
  return out;
}

TEST(FlatSigSet, DuplicateAtLoadBoundaryDoesNotGrowTable) {
  FlatSigSet set;
  const std::size_t initial_bytes = set.bytes();  // 1024 slots
  // Fill to one below the growth boundary: with 1024 slots the table grows
  // on the insert that would make (table_size + 1) * 10 >= 1024 * 7, i.e.
  // while placing the 717th distinct non-zero signature.
  const auto sigs = distinct_sigs(716);
  for (const std::uint64_t s : sigs) ASSERT_TRUE(set.insert(s));
  ASSERT_EQ(set.bytes(), initial_bytes) << "716 entries must fit in 1024 slots";

  // The regression: duplicates at the boundary triggered a spurious doubling
  // when the grow check ran before the probe. Re-insert every signature —
  // the table must not move.
  for (const std::uint64_t s : sigs) EXPECT_FALSE(set.insert(s));
  EXPECT_EQ(set.bytes(), initial_bytes) << "duplicate insert grew the table";
  EXPECT_EQ(set.size(), sigs.size());

  // The 717th distinct signature is the legitimate growth trigger.
  EXPECT_TRUE(set.insert(distinct_sigs(1, 777)[0]));
  EXPECT_EQ(set.bytes(), initial_bytes * 2);
}

TEST(FlatSigSet, AsideZeroDoesNotSkewLoadFactor) {
  FlatSigSet set;
  const std::size_t initial_bytes = set.bytes();
  EXPECT_TRUE(set.insert(0));    // tracked aside: occupies no slot
  EXPECT_FALSE(set.insert(0));   // duplicate zero
  const auto sigs = distinct_sigs(716);
  for (const std::uint64_t s : sigs) ASSERT_TRUE(set.insert(s));
  // 716 slot-occupying entries + the aside zero: were the zero counted
  // toward the load factor, the table would already have doubled.
  EXPECT_EQ(set.bytes(), initial_bytes);
  EXPECT_EQ(set.size(), sigs.size() + 1);
  EXPECT_FALSE(set.insert(0)) << "the aside zero was forgotten";
}

TEST(FlatSigSet, CopyIntoThenClearKeepsCapacity) {
  FlatSigSet set;
  const auto sigs = distinct_sigs(1000);
  for (const std::uint64_t s : sigs) set.insert(s);
  set.insert(0);
  const std::size_t grown_bytes = set.bytes();
  EXPECT_GT(grown_bytes, 1024 * sizeof(std::uint64_t));

  std::vector<std::uint64_t> copied;
  set.copy_into(copied);
  EXPECT_EQ(copied.size(), sigs.size() + 1);
  std::unordered_set<std::uint64_t> want(sigs.begin(), sigs.end());
  want.insert(0);
  for (const std::uint64_t s : copied) EXPECT_TRUE(want.count(s)) << s;
  EXPECT_EQ(set.size(), sigs.size() + 1) << "copying must leave the set as it was";
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.bytes(), grown_bytes) << "the cleared table is empty and keeps its capacity";
  // Cleared signatures read as fresh again.
  EXPECT_TRUE(set.insert(sigs[0]));
  EXPECT_TRUE(set.insert(0));
}

// ---------------------------------------------------------------------------
// TieredSigSet size and tier 0.
// ---------------------------------------------------------------------------

TEST(TieredSigSet, SizeIsMonotonicUnderConcurrentInserts) {
  TieredSigSet set;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> done{false};
  std::atomic<bool> monotonic{true};

  std::thread poller([&] {
    std::size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t now = set.size();
      if (now < last) monotonic.store(false, std::memory_order_relaxed);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Disjoint ranges: every insert is a first insert.
      const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * kPerThread;
      for (std::uint64_t i = 0; i < kPerThread; ++i) set.insert(base + i);
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_TRUE(monotonic.load()) << "size() went backwards mid-sweep (torn total)";
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TieredSigSet, SizeCountsDuplicatesOnce) {
  TieredSigSet set;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t s = 1; s <= 5000; ++s) set.insert(s);
  }
  EXPECT_EQ(set.size(), 5000u);
}

TEST(TieredSigSet, TierZeroNeverAnswersForAnotherStore) {
  // One thread, two default stores: each signature goes into A, then B,
  // then both again. What A's tier 0 holds must never answer for B.
  TieredSigSet a;
  TieredSigSet b;
  const auto sigs = distinct_sigs(5000, 99);
  for (const std::uint64_t s : sigs) {
    ASSERT_TRUE(a.insert(s));
    ASSERT_TRUE(b.insert(s)) << "B answered from a signature only A holds";
    EXPECT_FALSE(a.insert(s));
    EXPECT_FALSE(b.insert(s));
  }
  EXPECT_EQ(a.size(), sigs.size());
  EXPECT_EQ(b.size(), sigs.size());
  // Each store counts its own duplicates only, wherever they were found.
  for (const TieredSigSet* store : {&a, &b}) {
    const TierStats t = store->tier_stats();
    EXPECT_EQ(t.recent_hits + t.mem_hits + t.cold_hits, static_cast<std::int64_t>(sigs.size()));
  }
}

// ---------------------------------------------------------------------------
// Lock-free inserts: races through growth and past the slot count.
// ---------------------------------------------------------------------------

/// Thread `t`'s insert stream: `n` keys drawn from `key_space` values that
/// every thread draws from (so the threads' keys overlap), and every 8th
/// insert repeats the one before it (a tier-0 hit in a TieredSigSet).
std::vector<std::uint64_t> overlapping_stream(int t, std::size_t n, std::uint64_t key_space) {
  SplitMix64 rng{0xD00D + static_cast<std::uint64_t>(t)};
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(i % 8 == 7 ? out.back() : splitmix64_finalize(1 + rng.next() % key_space));
  }
  return out;
}

/// What one race of streams did.
struct Race {
  std::int64_t inserts = 0;
  std::int64_t duplicates = 0;     ///< inserts minus distinct keys
  std::size_t distinct = 0;        ///< distinct keys over all streams
  std::vector<std::size_t> slots;  ///< each racer's thread_slot()
};

/// Inserts each stream into `set` from a thread of its own. Every racer
/// takes its thread slot index, then all start together, so all of them
/// are alive at once. Checks first-insert-wins: each distinct key was
/// reported fresh by exactly one insert, and size() is exact after the join.
template <class Set>
Race race_streams(Set& set, const std::vector<std::vector<std::uint64_t>>& streams) {
  Race r;
  std::vector<std::vector<std::uint64_t>> fresh(streams.size());
  r.slots.resize(streams.size());
  std::latch start(static_cast<std::ptrdiff_t>(streams.size()));
  std::vector<std::thread> racers;
  racers.reserve(streams.size());
  for (std::size_t t = 0; t < streams.size(); ++t) {
    racers.emplace_back([&, t] {
      r.slots[t] = thread_slot();
      start.arrive_and_wait();
      for (const std::uint64_t sig : streams[t]) {
        if (set.insert(sig)) fresh[t].push_back(sig);
      }
    });
  }
  for (std::thread& th : racers) th.join();

  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> won;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    keys.insert(keys.end(), streams[t].begin(), streams[t].end());
    won.insert(won.end(), fresh[t].begin(), fresh[t].end());
  }
  r.inserts = static_cast<std::int64_t>(keys.size());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::sort(won.begin(), won.end());
  r.distinct = keys.size();
  r.duplicates = r.inserts - static_cast<std::int64_t>(r.distinct);
  EXPECT_EQ(std::adjacent_find(won.begin(), won.end()), won.end())
      << "a signature was reported fresh twice";
  EXPECT_EQ(won, keys) << "the fresh reports are not exactly the distinct keys";
  EXPECT_EQ(set.size(), r.distinct);
  return r;
}

// 8 racers, 2,560,000 inserts, ~56% duplicates: ~1.12 M distinct keys,
// ~17.5 K per shard (spread ~130). A shard holding more than
// 16,384 = 1,024 * 2^4 signatures has outgrown its 1,024-slot table at
// least five times, so every shard grows at least five times mid-race.
constexpr int kGrowthRacers = 8;
constexpr std::size_t kGrowthInserts = 320000;
constexpr std::uint64_t kGrowthKeySpace = 1400000;

std::vector<std::vector<std::uint64_t>> growth_streams() {
  std::vector<std::vector<std::uint64_t>> streams;
  for (int t = 0; t < kGrowthRacers; ++t) {
    streams.push_back(overlapping_stream(t, kGrowthInserts, kGrowthKeySpace));
  }
  return streams;
}

TEST(TieredSigSet, FirstInsertWinsThroughGrowth) {
  const auto store = std::make_unique<TieredSigSet>();
  const Race r = race_streams(*store, growth_streams());
  ASSERT_GT(r.distinct, TieredSigSet::kShards * 16384 * 105 / 100);
  EXPECT_GT(r.duplicates * 2, r.inserts) << "the streams must overlap by about half";
  const TierStats t = store->tier_stats();
  EXPECT_GT(t.recent_hits, 0);
  EXPECT_EQ(t.recent_hits + t.mem_hits, r.duplicates) << "each duplicate counted once";
  EXPECT_EQ(t.cold_hits, 0);
}

/// 8 more racers alive at once than a store has slots: at least 8 of them
/// have no slot and claim under the shard lock (with no tier 0), racing the lock-free claims
/// and the grows (and, with a disk tier, the spills) that both trigger.
/// Returns the store's tier counts, which must add up to the duplicates.
TierStats race_past_the_slot_count(const DedupConfig& cfg) {
  constexpr std::size_t kRacers = TieredSigSet::kThreadSlots + 8;
  std::vector<std::vector<std::uint64_t>> streams;
  for (std::size_t t = 0; t < kRacers; ++t) {
    streams.push_back(overlapping_stream(static_cast<int>(t), 12000, 600000));
  }
  const auto store = std::make_unique<TieredSigSet>(cfg);
  const Race r = race_streams(*store, streams);
  const auto slotless = std::count_if(r.slots.begin(), r.slots.end(), [](std::size_t i) {
    return i >= TieredSigSet::kThreadSlots;
  });
  EXPECT_GE(slotless, 8) << "the racers were not all alive at once";
  EXPECT_LT(slotless, static_cast<std::ptrdiff_t>(kRacers)) << "no racer had a slot";
  const TierStats t = store->tier_stats();
  EXPECT_EQ(t.recent_hits + t.mem_hits + t.cold_hits, r.duplicates)
      << "each duplicate counted once";
  return t;
}

TEST(TieredSigSet, ThreadsPastTheSlotCountInsertUnderTheLock) {
  const TierStats t = race_past_the_slot_count(DedupConfig{});
  EXPECT_EQ(t.cold_hits, 0);
}

TEST(TieredSigSet, ThreadsPastTheSlotCountProbeTheDiskTierUnderTheLock) {
  // ~430 K distinct keys, ~6.7 K per shard: a 1 MiB budget (16 KiB per
  // shard) spills each shard every 1,434 first inserts, so the locked
  // fallback probes the runs too.
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = std::size_t{1} << 20;
  const TierStats t = race_past_the_slot_count(cfg);
  EXPECT_GE(t.spills, 3 * static_cast<std::int64_t>(TieredSigSet::kShards));
  EXPECT_GT(t.cold_hits, 0);
}

TEST(TieredSigSet, FirstInsertWinsThroughSpillsAndMerges) {
  // The growth race through a 512 KiB disk-tier store: 8 KiB per shard,
  // so a shard spills its 1,024-slot table every 717 first inserts, about
  // 24 times per shard mid-race, and merges its runs every 8th spill while
  // claims race on.
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = std::size_t{512} << 10;
  const auto store = std::make_unique<TieredSigSet>(cfg);
  const Race r = race_streams(*store, growth_streams());
  const TierStats t = store->tier_stats();
  EXPECT_GE(t.spills, 8 * static_cast<std::int64_t>(TieredSigSet::kShards));
  EXPECT_GE(t.merges, static_cast<std::int64_t>(TieredSigSet::kShards));
  EXPECT_GT(t.cold_hits, 0);
  EXPECT_EQ(t.recent_hits + t.mem_hits + t.cold_hits, r.duplicates)
      << "each duplicate counted once";
  EXPECT_FALSE(store->mem_exhausted());
}

TEST(TieredSigSet, FirstInsertWinsThroughTheMemoryCap) {
  // The growth race through a 1 MiB store with no disk tier: the first
  // shard whose doubled table would pass 16 KiB latches the cap, and the
  // shards then grow on.
  DedupConfig cfg;
  cfg.mem_budget_bytes = std::size_t{1} << 20;
  const auto store = std::make_unique<TieredSigSet>(cfg);
  const Race r = race_streams(*store, growth_streams());
  const TierStats t = store->tier_stats();
  EXPECT_TRUE(store->mem_exhausted());
  EXPECT_EQ(t.spills, 0);
  EXPECT_EQ(t.recent_hits + t.mem_hits + t.cold_hits, r.duplicates)
      << "each duplicate counted once";
}

// ---------------------------------------------------------------------------
// TieredSigSet vs std::unordered_set oracle.
// ---------------------------------------------------------------------------

/// Feeds an identical random stream (with many duplicates, including 0) to
/// the store and an oracle; every insert verdict must match.
void oracle_stream(TieredSigSet& store, std::size_t n, std::uint64_t seed,
                   std::uint64_t key_range) {
  std::mt19937_64 rng(seed);
  std::unordered_set<std::uint64_t> oracle;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t sig = rng() % key_range;  // small range forces dups
    const bool fresh_oracle = oracle.insert(sig).second;
    const bool fresh_store = store.insert(sig);
    ASSERT_EQ(fresh_store, fresh_oracle)
        << "insert #" << i << " sig " << sig << " diverged from the oracle";
  }
  EXPECT_EQ(store.size(), oracle.size());
  // Merge-then-query equivalence: everything ever inserted reads as a
  // duplicate, wherever it now lives (tier 1 table or merged disk runs).
  for (const std::uint64_t sig : oracle) {
    EXPECT_FALSE(store.insert(sig)) << "sig " << sig << " lost after spill/merge";
  }
  EXPECT_EQ(store.size(), oracle.size());
}

TEST(TieredSigSet, PlainConfigMatchesOracle) {
  DedupConfig cfg;  // plain: no budget, no disk — tier-0 cache still active
  TieredSigSet store(cfg);
  oracle_stream(store, 60000, 7, 40000);
  EXPECT_FALSE(store.mem_exhausted());
  const TierStats t = store.tier_stats();
  EXPECT_EQ(t.spills, 0);
  EXPECT_EQ(t.cold_hits, 0);
}

TEST(TieredSigSet, TinyBudgetSpillsToDiskAndMatchesOracle) {
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = 64 * 1024;  // 4 KiB floor per shard: spills constantly
  TieredSigSet store(cfg);
  oracle_stream(store, 60000, 11, 40000);
  EXPECT_FALSE(store.mem_exhausted());
  const TierStats t = store.tier_stats();
  EXPECT_GT(t.spills, 0) << "budget this small must spill";
  EXPECT_GT(t.spilled_sigs, 0);
  EXPECT_GT(t.spill_bytes, 0);
  EXPECT_GT(t.merges, 0) << "enough spills per shard must trigger run merges";
  EXPECT_GT(t.cold_hits, 0) << "post-merge queries must hit the disk runs";
}

TEST(TieredSigSet, ConcurrentInsertersAgreeWithOracleSet) {
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = 64 * 1024;
  TieredSigSet store(cfg);
  constexpr int kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  std::atomic<std::int64_t> fresh_total{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::int64_t fresh = 0;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (store.insert(rng() % 50000)) ++fresh;
      }
      fresh_total.fetch_add(fresh, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  // The per-slot duplicate counters are exact: every insert that returned
  // false was answered by exactly one tier.
  const TierStats t = store.tier_stats();
  const std::int64_t dups = kThreads * static_cast<std::int64_t>(kPerThread) - fresh_total.load();
  EXPECT_EQ(t.recent_hits + t.mem_hits + t.cold_hits, dups);
  // First-insert-wins: across all threads exactly one insert per distinct
  // signature reported fresh, so the fresh count equals the union's size.
  std::unordered_set<std::uint64_t> oracle;
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + t);
    for (std::size_t i = 0; i < kPerThread; ++i) oracle.insert(rng() % 50000);
  }
  EXPECT_EQ(fresh_total.load(), static_cast<std::int64_t>(oracle.size()));
  EXPECT_EQ(store.size(), oracle.size());
  for (const std::uint64_t sig : oracle) EXPECT_FALSE(store.insert(sig));
}

TEST(TieredSigSet, MemBudgetWithoutDiskLatchesExhaustion) {
  DedupConfig cfg;
  cfg.mem_budget_bytes = 64 * 1024;  // capped, nowhere to spill
  TieredSigSet store(cfg);
  std::unordered_set<std::uint64_t> oracle;
  std::mt19937_64 rng(17);
  for (std::size_t i = 0; i < 30000; ++i) {
    const std::uint64_t sig = rng();
    // Insert semantics stay exact even past the latch; only the flag trips.
    ASSERT_EQ(store.insert(sig), oracle.insert(sig).second);
  }
  EXPECT_TRUE(store.mem_exhausted());
  EXPECT_EQ(store.size(), oracle.size());
}

TEST(TieredSigSet, FailedSpillLosesNoSignature) {
  // A 4 MiB budget: 64 KiB per shard, so a shard spills 5,735 signatures
  // at a time. Once the first spill has made the store's directory and the
  // spilling shard's (already unlinked) file, the directory is removed: the
  // first spill of any other shard then cannot create its file and throws.
  DedupConfig cfg;
  cfg.disk_tier = true;
  cfg.mem_budget_bytes = std::size_t{4} << 20;
  TieredSigSet store(cfg);
  SplitMix64 rng{0xFA11};
  const auto next_sig = [&rng] {
    std::uint64_t z = 0;
    while (z == 0) z = rng.next();
    return z;
  };
  std::vector<std::uint64_t> stored;
  std::vector<std::size_t> in_shard(TieredSigSet::kShards);
  const auto note = [&](std::uint64_t sig) {
    stored.push_back(sig);
    ++in_shard[TieredSigSet::shard_of(sig)];
  };
  std::size_t first_spiller = 0;
  while (store.tier_stats().spills == 0) {
    const std::uint64_t sig = next_sig();
    ASSERT_TRUE(store.insert(sig));
    note(sig);
    first_spiller = TieredSigSet::shard_of(sig);
  }
  ASSERT_EQ(::rmdir(store.spill_dir().c_str()), 0) << store.spill_dir();

  std::vector<bool> failed(TieredSigSet::kShards, false);
  int throws = 0;
  while (throws < 5) {
    const std::uint64_t sig = next_sig();
    try {
      EXPECT_TRUE(store.insert(sig));
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("diskset: ", 0), 0u) << e.what();
      failed[TieredSigSet::shard_of(sig)] = true;
      ++throws;
    }
    note(sig);  // a throwing insert stored its signature before the spill failed
  }
  EXPECT_EQ(store.tier_stats().spills, 1);

  // Every signature stored before the throws still reads as a duplicate
  // (each failing shard's flag came down, so none of these waits forever).
  // A duplicate never makes room, so only a lost signature can throw here.
  for (const std::uint64_t sig : stored) {
    bool fresh = true;
    try {
      fresh = store.insert(sig);
    } catch (const std::runtime_error&) {
    }
    EXPECT_FALSE(fresh) << "signature " << sig << " was lost";
  }
  EXPECT_EQ(store.size(), stored.size());

  // Other shards still insert: the first spiller, whose open file outlived
  // the directory, and the shard furthest from its next spill.
  std::size_t roomiest = first_spiller == 0 ? 1 : 0;
  for (std::size_t k = 0; k < TieredSigSet::kShards; ++k) {
    if (k != first_spiller && !failed[k] && in_shard[k] < in_shard[roomiest]) roomiest = k;
  }
  ASSERT_FALSE(failed[roomiest]);
  ASSERT_LT(in_shard[roomiest] + 100, std::size_t{5735}) << "shard " << roomiest << " is due";
  for (const std::size_t k : {first_spiller, roomiest}) {
    for (int fresh = 0; fresh < 100;) {
      const std::uint64_t sig = next_sig();
      if (TieredSigSet::shard_of(sig) != k) continue;
      EXPECT_TRUE(store.insert(sig)) << "shard " << k;
      ++fresh;
    }
  }
}

TEST(TieredSigSet, SpillDirIsRemovedOnDestruction) {
  std::string dir;
  {
    DedupConfig cfg;
    cfg.disk_tier = true;
    cfg.mem_budget_bytes = 64 * 1024;
    TieredSigSet store(cfg);
    for (std::uint64_t s = 1; s <= 20000; ++s) store.insert(s);
    dir = store.spill_dir();
    ASSERT_FALSE(dir.empty()) << "spills must have created the directory";
    // Run files are unlinked at mmap time: the directory exists but is empty.
  }
  struct stat st {};
  EXPECT_NE(::stat(dir.c_str(), &st), 0) << dir << " leaked after destruction";
}

// ---------------------------------------------------------------------------
// Explorer integration: thread-count invariance with the disk tier, and the
// memory-capped lower-bound path.
// ---------------------------------------------------------------------------

/// Level-2 sweep of (n,2)-set-agreement under the 1-concurrent solver.
ExploreOutcome sweep_with_store(const DedupConfig& store, int threads,
                                std::int64_t max_states = 400000, int n = 4) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(n, 2);
  const ValueVec in = task->sample_input(1);
  const auto body = [task](int, Value input) {
    return make_one_concurrent(task, input, "dedup/sweep");
  };
  ExploreConfig cfg;
  cfg.k = 2;
  for (int i = 0; i < n; ++i) cfg.arrival.push_back(i);
  cfg.max_states = max_states;
  cfg.threads = threads;
  cfg.dedup_store = store;
  return explore_k_concurrent(task, body, in, cfg);
}

// The two disk-tier cases below sweep (5,2) under a 1 MiB budget: 16 KiB
// per shard, the smallest budget a whole-MiB `--mem-mb` setting produces.
// Each sweep spills a few dozen runs holding tens of thousands of
// signatures. A 64 KiB budget floors every shard at 4 KiB, below a fresh
// 8 KiB shard table, so each first insert spills a one-signature run:
// thousands of runs and merges per sweep, which only tests reach and
// which made these cases tier-1's slowest. TieredSigSet's
// TinyBudgetSpillsToDiskAndMatchesOracle keeps that regime covered.
constexpr int kDiskTierN = 5;

DedupConfig disk_tier_store() {
  DedupConfig tiered;
  tiered.disk_tier = true;
  tiered.mem_budget_bytes = std::size_t{1} << 20;
  return tiered;
}

TEST(TieredExplore, OutcomeInvariantAcrossThreadCountsWithDiskTier) {
  const ExploreOutcome plain = sweep_with_store(DedupConfig{}, 1, 400000, kDiskTierN);
  ASSERT_TRUE(plain.ok) << plain.violation;
  ASSERT_FALSE(plain.budget_exhausted);

  const DedupConfig tiered = disk_tier_store();
  for (const int threads : {1, 2, 8}) {
    const ExploreOutcome o = sweep_with_store(tiered, threads, 400000, kDiskTierN);
    EXPECT_TRUE(o.ok) << o.violation;
    EXPECT_FALSE(o.budget_exhausted);
    EXPECT_FALSE(o.mem_exhausted);
    EXPECT_EQ(o.states, plain.states) << "threads=" << threads;
    EXPECT_EQ(o.terminal_runs, plain.terminal_runs) << "threads=" << threads;
    EXPECT_EQ(o.stats.dedup_queries, plain.stats.dedup_queries) << "threads=" << threads;
    EXPECT_EQ(o.stats.dedup_misses, plain.stats.dedup_misses) << "threads=" << threads;
    EXPECT_GT(o.stats.dedup_spills, 0) << "threads=" << threads;
  }
}

TEST(TieredExplore, BudgetBoundaryOutcomeIsThreadCountInvariant) {
  // The chunked budget reservation of parallel sweeps, through the disk
  // tier: with N the clean sweep's state count, max_states = N certifies and
  // N - 1 exhausts at every thread count, each outcome equal to threads = 1.
  const DedupConfig tiered = disk_tier_store();
  const std::int64_t n = sweep_with_store(DedupConfig{}, 1, 400000, kDiskTierN).states;
  for (const std::int64_t budget : {n, n - 1}) {
    const ExploreOutcome seq = sweep_with_store(tiered, 1, budget, kDiskTierN);
    EXPECT_TRUE(seq.ok) << seq.violation;
    EXPECT_EQ(seq.budget_exhausted, budget < n) << "max_states " << budget;
    EXPECT_GT(seq.stats.dedup_spills, 0) << "max_states " << budget;
    for (const int threads : {2, 4, 8}) {
      const ExploreOutcome o = sweep_with_store(tiered, threads, budget, kDiskTierN);
      const std::string what =
          "max_states " + std::to_string(budget) + " threads " + std::to_string(threads);
      expect_outcome_eq(o, seq, what);
      EXPECT_TRUE(o.budget_exhausted || o.states <= budget) << what;
      EXPECT_GT(o.stats.dedup_spills, 0) << what;
    }
  }
}

TEST(TieredExplore, OneThreadTierSplitIsPinned) {
  // At one thread, where each duplicate is found is deterministic: these
  // counts are the (5,2) level-2 sweep's through the 1 MiB disk-tier store.
  const ExploreOutcome o = sweep_with_store(disk_tier_store(), 1, 400000, kDiskTierN);
  ASSERT_TRUE(o.ok) << o.violation;
  ASSERT_FALSE(o.budget_exhausted);
  const ExploreStats& st = o.stats;
  EXPECT_EQ(st.dedup_recent_hits, 79472);
  EXPECT_EQ(st.dedup_mem_hits, 1510);
  EXPECT_EQ(st.dedup_cold_probes, 11375);
  EXPECT_EQ(st.dedup_bloom_skips, 11362);
  EXPECT_EQ(st.dedup_cold_hits, 9);
  EXPECT_EQ(st.dedup_spills, 64);
  EXPECT_EQ(st.dedup_spilled_sigs, 91776);
  EXPECT_EQ(st.dedup_merges, 0);
}

TEST(TieredExplore, TierHitsAddUpAtEveryThreadCount) {
  // Every sweep runs on the tiered store, so the per-tier duplicate counts
  // are filled at 1 thread too, and each duplicate is answered by exactly
  // one tier.
  for (const int threads : {1, 2, 8}) {
    const ExploreOutcome o = sweep_with_store(DedupConfig{}, threads);
    ASSERT_TRUE(o.ok) << o.violation;
    ASSERT_FALSE(o.budget_exhausted);
    const ExploreStats& st = o.stats;
    EXPECT_EQ(st.dedup_recent_hits + st.dedup_mem_hits + st.dedup_cold_hits, st.dedup_hits)
        << "threads=" << threads;
    EXPECT_GT(st.dedup_recent_hits, 0) << "threads=" << threads;
  }
}

TEST(TieredExplore, BackToBackParallelSweepsRecycleThreadSlots) {
  // Each 4-thread sweep runs on a crew built for it, so 24 sweeps start 72
  // worker threads, more than a store has slots. Their slots are recycled
  // as they exit: every sweep inserts lock-free and equals the 1-thread
  // sweep, and its per-tier duplicate counts add up exactly.
  const ExploreOutcome seq = sweep_with_store(DedupConfig{}, 1, 400000, 5);
  ASSERT_TRUE(seq.ok) << seq.violation;
  ASSERT_FALSE(seq.budget_exhausted);
  for (int round = 0; round < 24; ++round) {
    const ExploreOutcome o = sweep_with_store(DedupConfig{}, 4, 400000, 5);
    const std::string what = "round " + std::to_string(round);
    expect_outcome_eq(o, seq, what);
    const ExploreStats& st = o.stats;
    EXPECT_EQ(st.dedup_recent_hits + st.dedup_mem_hits + st.dedup_cold_hits, st.dedup_hits)
        << what;
  }
  // At most four threads inserted at once, so a new thread's index is low;
  // without recycling it would be past the 72 indices the crews took.
  std::size_t fresh_index = 0;
  std::thread([&] { fresh_index = thread_slot(); }).join();
  EXPECT_LT(fresh_index, 8u);
}

TEST(TieredExplore, MemoryCapWithoutDiskReportsLowerBound) {
  DedupConfig capped;
  capped.mem_budget_bytes = 64 * 1024;  // no disk tier: must abort
  const ExploreOutcome o = sweep_with_store(capped, 1);
  // The per-shard budget floors at 4 KiB, below a fresh 8 KiB shard table,
  // so the first insert latches the cap and the sweep stops before
  // charging a second state — not at the end of a reserved budget chunk.
  EXPECT_EQ(o.states, 1);
  EXPECT_TRUE(o.mem_exhausted);
  EXPECT_TRUE(o.budget_exhausted) << "mem exhaustion must read as budget exhaustion";

  const ExploreOutcome full = sweep_with_store(DedupConfig{}, 1);
  EXPECT_LT(o.states, full.states) << "the capped sweep must have stopped early";
}

}  // namespace
}  // namespace efd
