// Tests for the exploration-engine rework (core/solvability, core/bivalence,
// sim/schedule's AdmissionWindow):
//  * regression coverage for the three soundness fixes — terminated-but-
//    undecided retirement, budget-exhausted level certification, and the
//    commutative lasso memory fold;
//  * determinism properties — outcomes byte-identical across thread counts
//    and interning orders, and equal to the full-replay oracle
//    (tests/support/explore_oracle.hpp);
//  * explorer-vs-oracle equivalence on seeded random process trees and at
//    the budget boundary;
//  * the engine's own counters (respawns, redelivers, frame reuses, undo
//    depth) pinned on three sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/mp_protocols.hpp"
#include "algo/one_concurrent.hpp"
#include "core/bivalence.hpp"
#include "core/diskset.hpp"
#include "core/solvability.hpp"
#include "core/workpool.hpp"
#include "sim/memory.hpp"
#include "sim/msg_world.hpp"
#include "sim/schedule.hpp"
#include "tasks/consensus.hpp"
#include "support/explore_oracle.hpp"
#include "support/outcome_eq.hpp"
#include "tasks/set_agreement.hpp"
#include "tasks/task.hpp"

namespace efd {
namespace {

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

/// A task whose relation accepts everything: isolates scheduling/termination
/// behavior from task semantics.
class FreeTask final : public Task {
 public:
  explicit FreeTask(int n) : n_(n) {}
  [[nodiscard]] std::string name() const override { return "free"; }
  [[nodiscard]] int n_procs() const override { return n_; }
  [[nodiscard]] bool input_ok(const ValueVec&) const override { return true; }
  [[nodiscard]] bool relation(const ValueVec&, const ValueVec&) const override { return true; }
  [[nodiscard]] Value pick_output(const ValueVec&, const ValueVec&, int) const override {
    return Value(0);
  }
  [[nodiscard]] ValueVec sample_input(std::uint64_t seed) const override {
    ValueVec in(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      in[static_cast<std::size_t>(i)] = Value(static_cast<std::int64_t>(seed) + i);
    }
    return in;
  }

 private:
  int n_;
};

/// Odd-indexed processes write once and terminate WITHOUT deciding; even
/// ones write and decide.
Proc quitter_proc(Context& ctx, int self, std::string ns) {
  co_await ctx.write(reg(ns + "/Q", self), Value(self));
  if (self % 2 == 0) co_await ctx.decide(Value(self));
}

std::function<ProcBody(int, Value)> quitter_body(const std::string& ns) {
  return [ns](int i, Value) {
    return ProcBody([i, ns](Context& ctx) { return quitter_proc(ctx, i, ns); });
  };
}

/// Seed-parameterized pseudo-random process: a fixed-length mix of reads,
/// writes, yields, and read-then-copy chains over a small register bank,
/// then a decide. Deterministic in (seed, self), so the explorer and the
/// oracle explore the identical choice tree.
Proc fuzz_proc(Context& ctx, int self, std::uint64_t seed, int len, std::string ns) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(self + 1));
  for (int i = 0; i < len; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t roll = (s >> 33) % 4;
    const int cell = static_cast<int>((s >> 20) % 4);
    if (roll == 0) {
      co_await ctx.write(reg(ns + "/F", cell), Value(static_cast<std::int64_t>((s >> 7) % 5)));
    } else if (roll == 1) {
      co_await ctx.read(reg(ns + "/F", cell));
    } else if (roll == 2) {
      co_await ctx.yield();
    } else {
      const Value v = co_await ctx.read(reg(ns + "/F", cell));
      co_await ctx.write(reg(ns + "/F", (cell + 1) % 4), v);
    }
  }
  co_await ctx.decide(Value(static_cast<std::int64_t>(self)));
}

std::function<ProcBody(int, Value)> fuzz_body(std::uint64_t seed, int len,
                                              const std::string& ns) {
  return [seed, len, ns](int i, Value) {
    return ProcBody([i, seed, len, ns](Context& ctx) { return fuzz_proc(ctx, i, seed, len, ns); });
  };
}

std::function<ProcBody(int, Value)> one_conc(const TaskPtr& task, const std::string& ns) {
  return [task, ns](int, Value input) { return make_one_concurrent(task, input, ns); };
}

// ---------------------------------------------------------------------------
// AdmissionWindow: the shared admission-bookkeeping helper.
// ---------------------------------------------------------------------------

TEST(AdmissionWindow, AdmitsInArrivalOrderUpToK) {
  AdmissionWindow win(2, {3, 1, 0, 2});
  win.refresh([](int) { return false; });
  EXPECT_EQ(win.active(), (std::vector<int>{3, 1}));
  EXPECT_EQ(win.next_arrival(), 2u);
  EXPECT_FALSE(win.exhausted());
}

TEST(AdmissionWindow, RetiresTerminatedUndecidedProcesses) {
  // Regression (soundness fix): a process whose coroutine terminated without
  // deciding can never decide, so keeping it admitted would starve the
  // window forever. "Finished" must mean decided OR terminated.
  AdmissionWindow win(1, {0, 1, 2});
  std::vector<bool> finished(3, false);
  auto fin = [&finished](int c) { return finished[static_cast<std::size_t>(c)]; };
  win.refresh(fin);
  EXPECT_EQ(win.active(), (std::vector<int>{0}));
  finished[0] = true;  // terminated, never decided
  win.refresh(fin);
  EXPECT_EQ(win.active(), (std::vector<int>{1})) << "dead process must free its slot";
  finished[1] = true;
  finished[2] = true;
  win.refresh(fin);
  win.refresh(fin);
  EXPECT_TRUE(win.exhausted());
}

TEST(AdmissionWindow, SchedulerDoesNotSpinOnDeadProcesses) {
  // The KConcurrencyScheduler shares the window: a quitter must not trap the
  // k=1 window in an infinite null-step loop.
  World w = World::failure_free(1);
  w.spawn_c(0, quitter_body("awq")(0, Value{}));
  w.spawn_c(1, quitter_body("awq")(1, Value{}));
  KConcurrencyScheduler sched(1, {1, 0});  // the quitter (odd) arrives first
  const DriveResult r = drive(w, sched, 1000);
  EXPECT_LT(r.steps, 1000) << "scheduler kept stepping a terminated process";
  EXPECT_TRUE(w.decided(cpid(0))) << "process 0 was starved by the dead window slot";
}

// ---------------------------------------------------------------------------
// Terminated-but-undecided retirement in the explorers.
// ---------------------------------------------------------------------------

TEST(ExploreEngine, QuitterRunsExploreCleanlyInsteadOfFakingNontermination) {
  // Regression: the old explorer retired only DECIDED processes, so a
  // process that terminated undecided pinned the window and every run
  // "ran out of depth" — reported as possible non-termination.
  auto task = std::make_shared<FreeTask>(2);
  ExploreConfig cfg;
  cfg.k = 1;
  cfg.arrival = {1, 0};  // the quitter first: its slot must free for p0
  cfg.max_depth = 50;
  const ValueVec in = task->sample_input(1);
  for (const ExploreOutcome& o : {explore_k_concurrent(task, quitter_body("quit"), in, cfg),
                                  explore_full_replay(task, quitter_body("quit"), in, cfg)}) {
    EXPECT_TRUE(o.ok) << o.violation;
    EXPECT_GT(o.terminal_runs, 0);
    EXPECT_FALSE(o.budget_exhausted);
  }
}

// ---------------------------------------------------------------------------
// Explorer vs full-replay oracle.
// ---------------------------------------------------------------------------

ExploreConfig menu_cfg(const ValueVec& in, int k, int threads = 1) {
  ExploreConfig cfg;
  cfg.k = k;
  cfg.arrival = Task::participants(in);
  cfg.max_states = 400000;
  cfg.threads = threads;
  return cfg;
}

ExploreOutcome run_menu(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                        const ValueVec& in, int k, int threads = 1) {
  return explore_k_concurrent(task, body, in, menu_cfg(in, k, threads));
}

ExploreOutcome oracle_menu(const TaskPtr& task,
                           const std::function<ProcBody(int, Value)>& body,
                           const ValueVec& in, int k) {
  return explore_full_replay(task, body, in, menu_cfg(in, k));
}

TEST(ExploreEngine, EnginesAgreeOnCleanSweep) {
  auto task = std::make_shared<SetAgreementTask>(3, 2);
  ValueVec in{Value(0), Value(1), Value(2)};
  const auto inc = run_menu(task, one_conc(task, "eq1"), in, 2);
  const auto full = oracle_menu(task, one_conc(task, "eq1"), in, 2);
  EXPECT_TRUE(inc.ok) << inc.violation;
  EXPECT_GT(inc.terminal_runs, 0);
  expect_outcome_eq(inc, full, "ksa(3,2) level 2");
}

TEST(ExploreEngine, EnginesAgreeOnViolation) {
  auto task = std::make_shared<ConsensusTask>(3);
  ValueVec in{Value(0), Value(1), Value(2)};
  const auto inc = run_menu(task, one_conc(task, "eq2"), in, 2);
  const auto full = oracle_menu(task, one_conc(task, "eq2"), in, 2);
  EXPECT_FALSE(inc.ok);
  EXPECT_FALSE(inc.bad_schedule.empty());
  expect_outcome_eq(inc, full, "consensus(3) level 2 violation");
}

TEST(ExploreEngine, EnginesAgreeOnSeededRandomTrees) {
  // The sharp equivalence check: arbitrary read/write/yield interleavings,
  // including write-over-write undo and processes of different lengths.
  auto task = std::make_shared<FreeTask>(3);
  const ValueVec in = task->sample_input(0);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const std::string ns = "fz" + std::to_string(seed);
    const auto body = fuzz_body(seed, 4 + static_cast<int>(seed % 3), ns);
    const auto inc = run_menu(task, body, in, 2);
    const auto full = oracle_menu(task, body, in, 2);
    EXPECT_TRUE(inc.ok);
    expect_outcome_eq(inc, full, "fuzz seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance.
// ---------------------------------------------------------------------------

TEST(ExploreEngine, OutcomeIsThreadCountInvariantOnCleanSweep) {
  auto task = std::make_shared<SetAgreementTask>(4, 2);
  ValueVec in{Value(0), Value(1), Value(2), Value(3)};
  const auto t1 = run_menu(task, one_conc(task, "par1"), in, 2, 1);
  const auto t2 = run_menu(task, one_conc(task, "par1"), in, 2, 2);
  const auto t8 = run_menu(task, one_conc(task, "par1"), in, 2, 8);
  EXPECT_TRUE(t1.ok) << t1.violation;
  expect_outcome_eq(t1, t2, "ksa(4,2) threads 1 vs 2");
  expect_outcome_eq(t1, t8, "ksa(4,2) threads 1 vs 8");
}

TEST(ExploreEngine, OutcomeIsThreadCountInvariantOnViolation) {
  // Violating sweeps fall back to the canonical sequential pass, so even
  // bad_schedule is byte-identical.
  auto task = std::make_shared<ConsensusTask>(3);
  ValueVec in{Value(0), Value(1), Value(2)};
  const auto t1 = run_menu(task, one_conc(task, "par2"), in, 2, 1);
  const auto t2 = run_menu(task, one_conc(task, "par2"), in, 2, 2);
  const auto t8 = run_menu(task, one_conc(task, "par2"), in, 2, 8);
  EXPECT_FALSE(t1.ok);
  expect_outcome_eq(t1, t2, "consensus(3) threads 1 vs 2");
  expect_outcome_eq(t1, t8, "consensus(3) threads 1 vs 8");
}

void expect_clean_level_eq(const CleanLevelResult& a, const CleanLevelResult& b,
                           const std::string& what) {
  EXPECT_EQ(a.level, b.level) << what;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << what;
  EXPECT_EQ(a.mem_exhausted, b.mem_exhausted) << what;
  EXPECT_EQ(a.states, b.states) << what;
  expect_stats_subset_eq(a.stats, b.stats, what);
}

TEST(ExploreEngine, ParallelCleanLevelMatchesSequential) {
  ExploreConfig cfg;
  cfg.max_states = 400000;
  {
    auto task = std::make_shared<SetAgreementTask>(3, 2);
    ValueVec in{Value(0), Value(1), Value(2)};
    cfg.threads = 1;
    const CleanLevelResult seq = max_clean_level(task, one_conc(task, "mcl"), in, 3, cfg);
    cfg.threads = 4;
    const CleanLevelResult par = max_clean_level(task, one_conc(task, "mcl"), in, 3, cfg);
    EXPECT_EQ(seq.level, 2);
    expect_clean_level_eq(par, seq, "ksa(3,2) k_max 3");
  }
  {
    // Level 1 is clean and level 2 violates: the scan stops there at every
    // thread count.
    auto task = std::make_shared<ConsensusTask>(3);
    ValueVec in{Value(0), Value(1), Value(2)};
    cfg.threads = 1;
    const CleanLevelResult seq = max_clean_level(task, one_conc(task, "mclc"), in, 3, cfg);
    cfg.threads = 4;
    const CleanLevelResult par = max_clean_level(task, one_conc(task, "mclc"), in, 3, cfg);
    EXPECT_EQ(seq.level, 1);
    EXPECT_FALSE(seq.budget_exhausted);
    expect_clean_level_eq(par, seq, "consensus(3) k_max 3");
  }
}

TEST(ExploreEngine, BudgetBoundaryOutcomeIsThreadCountInvariant) {
  // Parallel sweeps reserve their budget in chunks. With N the clean sweep's
  // state count, max_states = N must certify and N - 1 must exhaust at
  // every thread count, each outcome equal to the sequential one.
  auto task = std::make_shared<SetAgreementTask>(4, 2);
  ValueVec in{Value(0), Value(1), Value(2), Value(3)};
  const auto body = one_conc(task, "bb");
  const ExploreOutcome full = run_menu(task, body, in, 2);
  ASSERT_TRUE(full.ok) << full.violation;
  ASSERT_FALSE(full.budget_exhausted);
  const std::int64_t n = full.states;

  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = Task::participants(in);
  for (const std::int64_t budget : {n, n - 1}) {
    cfg.max_states = budget;
    cfg.threads = 1;
    const ExploreOutcome seq = explore_k_concurrent(task, body, in, cfg);
    EXPECT_TRUE(seq.ok) << seq.violation;
    EXPECT_EQ(seq.budget_exhausted, budget < n) << "max_states " << budget;
    for (const int threads : {2, 4, 8}) {
      cfg.threads = threads;
      const ExploreOutcome o = explore_k_concurrent(task, body, in, cfg);
      const std::string what =
          "max_states " + std::to_string(budget) + " threads " + std::to_string(threads);
      expect_outcome_eq(o, seq, what);
      EXPECT_TRUE(o.budget_exhausted || o.states <= budget) << what;
    }
  }
}

TEST(ExploreEngine, OracleAgreesAtBudgetBoundary) {
  // The oracle counts its budget on its own, so the explorer's chunked
  // budget pool is checked against an independent count: with N the clean
  // sweep's state count, max_states = N certifies with N states, and an
  // exhausted sweep reports max_states + 1 states (the over-budget state is
  // counted) on both sides.
  auto task = std::make_shared<SetAgreementTask>(4, 2);
  ValueVec in{Value(0), Value(1), Value(2), Value(3)};
  const auto body = one_conc(task, "ob");
  const std::int64_t n = run_menu(task, body, in, 2).states;
  ExploreConfig cfg = menu_cfg(in, 2);
  for (const std::int64_t budget : {n, n - 1, std::int64_t{1000}}) {
    cfg.max_states = budget;
    const std::string what = "max_states " + std::to_string(budget);
    const ExploreOutcome inc = explore_k_concurrent(task, body, in, cfg);
    const ExploreOutcome full = explore_full_replay(task, body, in, cfg);
    expect_outcome_eq(inc, full, what);
    EXPECT_TRUE(full.ok) << what;
    EXPECT_EQ(full.budget_exhausted, budget < n) << what;
    EXPECT_EQ(full.states, std::min(budget + 1, n)) << what;
  }
}

// ---------------------------------------------------------------------------
// Interning-order independence.
// ---------------------------------------------------------------------------

TEST(ExploreEngine, OutcomeInvariantUnderInterningOrder) {
  // Same workload under two register namespaces, with decoy registers (and
  // the second namespace's own registers, in reverse) interned in between:
  // RegIds and interning order differ completely, outcomes must not.
  auto task = std::make_shared<FreeTask>(3);
  const ValueVec in = task->sample_input(0);
  auto run = [&](const std::string& ns) {
    return run_menu(task, fuzz_body(7, 5, ns), in, 2);
  };
  const auto a = run("ordA");
  for (int i = 31; i >= 0; --i) {
    (void)reg("ordDecoy/D", i);
    (void)sym("ordDecoy/S" + std::to_string(i));
  }
  for (int i = 3; i >= 0; --i) (void)reg("ordB/F", i);  // reversed id order
  const auto b = run("ordB");
  expect_outcome_eq(a, b, "interning-order invariance");
}

TEST(LassoSig, MemoryFoldIsCommutative) {
  // Regression (soundness fix): the searcher signature used to fold memory
  // cells with a position-dependent FNV chain in std::map<RegId, ...> order
  // — and RegId order is process-global interning order, so signatures (and
  // with them dedup and cycle detection) depended on which registers
  // unrelated code had interned first. Pin the fixed formula: a commutative
  // per-cell sum keyed by the canonical-name hash, recomputed here from
  // first principles in REVERSE cell order.
  std::map<RegId, Value> mem;
  mem[reg("lsig/A", 0).id()] = Value(11);
  mem[reg("lsig/A", 1).id()] = Value(22);
  mem[reg("lsig/B", 7).id()] = Value(33);
  const std::vector<Value> state{Value(1), Value(2)};
  const std::vector<bool> decided{false, true};
  const std::vector<bool> halted{true, false};

  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& s : state) h = h * 1099511628211ULL + s.hash();
  for (bool d : decided) h = h * 1099511628211ULL + (d ? 2u : 1u);
  for (bool d : halted) h = h * 1099511628211ULL + (d ? 5u : 3u);
  std::uint64_t acc = 0;
  for (auto it = mem.rbegin(); it != mem.rend(); ++it) {
    acc += cell_content_hash(reg_name_hash(it->first), it->second.hash());
  }
  const std::uint64_t expected = h * 1099511628211ULL + cell_content_hash(0x9AE16A3B2F90404FULL, acc);

  EXPECT_EQ(lasso_config_sig(state, decided, halted, mem), expected)
      << "memory fold is order-dependent again";
}

// ---------------------------------------------------------------------------
// Engine counters.
// ---------------------------------------------------------------------------

/// states, terminal_runs, dedup_misses, respawns, redelivers, ghost_hits,
/// max_undo_depth. The oracle neither respawns nor reuses frames, so these
/// pins are what catches a change in how the explorer backtracks; at one
/// thread every one of them is deterministic.
using EngineCounters = std::array<std::int64_t, 7>;

EngineCounters engine_counters(const ExploreOutcome& o) {
  return {o.states,          o.terminal_runs,   o.stats.dedup_misses,  o.stats.respawns,
          o.stats.redelivers, o.stats.ghost_hits, o.stats.max_undo_depth};
}

ExploreOutcome pinned_sweep(const TaskPtr& task, const std::function<ProcBody(int, Value)>& body,
                            const ValueVec& in, int k,
                            const std::function<World()>& world_factory = {}) {
  ExploreConfig cfg;
  cfg.k = k;
  cfg.arrival = Task::participants(in);
  cfg.max_states = 5000000;
  cfg.world_factory = world_factory;
  const ExploreOutcome o = explore_k_concurrent(task, body, in, cfg);
  EXPECT_TRUE(o.ok) << o.violation;
  EXPECT_FALSE(o.budget_exhausted);
  return o;
}

EngineCounters set_agreement_counters(int n, int set_k, int k) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(n, set_k);
  ValueVec in;
  for (int i = 0; i < n; ++i) in.push_back(Value(i));
  return engine_counters(
      pinned_sweep(task, one_conc(task, "pin" + std::to_string(n)), in, k));
}

TEST(ExploreEngine, EngineCountersArePinned) {
  // The one-concurrent solver on (n,2)-set agreement at level 2, the E14
  // and perfbench sweep family.
  EXPECT_EQ(set_agreement_counters(5, 2, 2),
            (EngineCounters{188474, 4341, 103142, 3081, 24726, 173081, 65}));
  EXPECT_EQ(set_agreement_counters(6, 2, 2),
            (EngineCounters{1369031, 25334, 741405, 17936, 176407, 1276307, 90}));

  // Eager message passing (test_substrate's FloodMin, n = 3, f = 1) at full
  // concurrency: sends and recvs are never reused from a frame that ran
  // ahead, and recvs on an empty mailbox block.
  constexpr int kN = 3;
  const FloodMinConfig fm{kN, 1};
  ValueVec in;
  for (int i = 0; i < kN; ++i) in.push_back(Value(i));
  const auto msg_world = [] {
    World w = World::failure_free(1);
    install_msg_eager(w, kN, kN);
    return w;
  };
  EXPECT_EQ(engine_counters(pinned_sweep(
                std::make_shared<SetAgreementTask>(kN, 2),
                [fm](int i, Value input) { return make_floodmin(fm, i, std::move(input)); }, in,
                kN, msg_world)),
            (EngineCounters{27747, 648, 12221, 14086, 37500, 5387, 18}));
}

// ---------------------------------------------------------------------------
// Supporting machinery: undo log, pool, interner.
// ---------------------------------------------------------------------------

TEST(ExploreEngine, UndoWriteRestoresExactMemoryState) {
  RegisterFile m;
  const RegAddr a = reg("undo/X", 0);
  const RegAddr b = reg("undo/X", 1);
  const std::uint64_t h_empty = m.content_hash();

  m.write(a, Value(1));
  const std::uint64_t h_a1 = m.content_hash();

  // Overwrite and undo: back to a=1.
  m.write(a, Value(3));
  m.undo_write(a, Value(1), true);
  EXPECT_EQ(m.content_hash(), h_a1);
  EXPECT_EQ(m.read(a).as_int(), 1);

  // First write to b and undo: cell reads as never-written again.
  m.write(b, Value(2));
  m.undo_write(b, Value{}, false);
  EXPECT_EQ(m.content_hash(), h_a1);
  EXPECT_FALSE(m.written(b));
  EXPECT_EQ(m.footprint(), 1u);

  m.undo_write(a, Value{}, false);
  EXPECT_EQ(m.content_hash(), h_empty);
  EXPECT_EQ(m.content_hash(), m.content_hash_slow());
  EXPECT_EQ(m.footprint(), 0u);
}

TEST(ExploreEngine, WorkStealingPoolRunsEveryTaskOnce) {
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  PoolStats st;
  WorkStealingPool::run(std::move(tasks), 4, &st);
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(st.tasks, 100);
  std::int64_t per_worker_sum = 0;
  for (const std::int64_t n : st.per_worker) per_worker_sum += n;
  EXPECT_EQ(per_worker_sum, 100);
}

TEST(ExploreEngine, ResidentPoolReusesItsCrewAcrossBatches) {
  // Many small batches on one pool: every task runs exactly once per batch,
  // stats reset between runs, and the same persistent crew serves them all
  // (the farm issues thousands of such batches per minute — per-batch
  // thread spawn is exactly what this class exists to avoid).
  ResidentPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::set<std::thread::id> crew_ids;
  std::mutex ids_mu;
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> hits{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([&hits, &crew_ids, &ids_mu] {
        hits.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(ids_mu);
        crew_ids.insert(std::this_thread::get_id());
      });
    }
    PoolStats st;
    pool.run(std::move(tasks), &st);
    EXPECT_EQ(hits.load(), 16);
    EXPECT_EQ(st.tasks, 16);
  }
  // Worker 0 is the caller; at most 3 spawned workers ever touch a task.
  EXPECT_LE(crew_ids.size(), 4u);
}

TEST(ExploreEngine, ResidentPoolRethrowsFirstTaskError) {
  ResidentPool pool(3);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i] {
      if (i == 5) throw std::runtime_error("task five");
    });
  }
  EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
  // The pool stays usable after a throwing batch.
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> ok;
  for (int i = 0; i < 8; ++i) {
    ok.push_back([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.run(std::move(ok));
  EXPECT_EQ(hits.load(), 8);
}

TEST(ExploreEngine, ShardedSigSetFirstInsertWins) {
  ShardedSigSet set;
  EXPECT_TRUE(set.insert(42));
  EXPECT_FALSE(set.insert(42));
  EXPECT_TRUE(set.insert(43));
  EXPECT_EQ(set.size(), 2u);
}

TEST(ExploreEngine, InternerIsThreadSafe) {
  // Hammer the process-global interner from 8 threads: shared names must
  // unify to one id, and per-thread names must all intern. (Meaningful
  // under -DEFD_SANITIZE=thread, where any lock hole shows up as a race.)
  std::vector<std::thread> crew;
  std::atomic<bool> go{false};
  std::vector<RegId> shared_ids(8, kInvalidRegId);
  for (int t = 0; t < 8; ++t) {
    crew.emplace_back([t, &go, &shared_ids] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < 200; ++i) {
        (void)reg("mt/t" + std::to_string(t), i);
        (void)reg_name_hash(reg("mt/shared", i % 16).id());
      }
      shared_ids[static_cast<std::size_t>(t)] = reg("mt/shared", 3).id();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : crew) th.join();
  for (const RegId id : shared_ids) EXPECT_EQ(id, shared_ids[0]);
  EXPECT_EQ(reg_name(reg("mt/shared", 3).id()), "mt/shared[3]");

  // Lock-free id reads racing appends: 4 writers intern fresh register and
  // symbol names (far past the first storage chunk of each table) and
  // publish each id with the name hash they saw; 4 readers meanwhile read
  // names and hashes of published ids through the lock-free id reads.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 600;
  struct Published {
    RegId id = kInvalidRegId;
    std::uint64_t hash = 0;
    Sym sym;
  };
  std::vector<std::vector<Published>> published(kWriters, std::vector<Published>(kPerWriter));
  std::vector<std::atomic<int>> counts(kWriters);
  std::atomic<int> writers_done{0};
  std::atomic<int> mismatches{0};
  std::atomic<long> reads{0};
  const std::size_t regs_before = interned_register_count();
  const auto sym_name_of = [](int t, int i) {
    return "mt/sym" + std::to_string(t) + "_" + std::to_string(i);
  };
  std::vector<std::thread> writers;
  std::vector<std::thread> readers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        const RegAddr a("mt/fresh" + std::to_string(t) + "/" + std::to_string(i));
        published[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            Published{a.id(), a.name_hash(), sym(sym_name_of(t, i))};
        counts[static_cast<std::size_t>(t)].store(i + 1, std::memory_order_release);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      const auto check_all = [&] {
        for (int t = 0; t < kWriters; ++t) {
          const int n = counts[static_cast<std::size_t>(t)].load(std::memory_order_acquire);
          for (int i = 0; i < n; ++i) {
            const Published& p = published[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)];
            const std::string& name = reg_name(p.id);
            if (RegAddr(name).id() != p.id || reg_name_hash(p.id) != p.hash ||
                RegAddr::from_id(p.id).name_hash() != p.hash ||
                p.sym.name() != sym_name_of(t, i)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // The newest ids, published only through the interner's own size,
        // newest first: every id below interned_register_count() must be
        // readable without the lock (RegAddr's lookup then takes it).
        const auto n = static_cast<RegId>(interned_register_count());
        for (RegId k = 1; k <= std::min<RegId>(n, 32); ++k) {
          const RegId id = n - k;
          if (RegAddr(reg_name(id)).id() != id) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      };
      while (writers_done.load(std::memory_order_acquire) < kWriters) check_all();
      check_all();  // every id is published by now
    });
  }
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reads.load(), 4L * kWriters * kPerWriter);
  EXPECT_GE(interned_register_count(), regs_before + kWriters * kPerWriter);
}

}  // namespace
}  // namespace efd
