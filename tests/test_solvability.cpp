// Tests for the exhaustive k-concurrent explorer (core/solvability.hpp):
// clean sweeps certify k-concurrent solvability on explored inputs, and the
// level-(k+1) violations the hierarchy is built from are actually found.
#include <gtest/gtest.h>

#include "algo/one_concurrent.hpp"
#include "algo/renaming.hpp"
#include "core/solvability.hpp"
#include "support/explore_oracle.hpp"
#include "tasks/consensus.hpp"
#include "tasks/identity.hpp"
#include "tasks/renaming.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

std::function<ProcBody(int, Value)> one_conc(const TaskPtr& task, const std::string& ns) {
  return [task, ns](int, Value input) { return make_one_concurrent(task, input, ns); };
}

TEST(Explorer, EveryTaskSolvableOneConcurrently) {
  // Prop. 1, machine-checked on the menu: the generic solver is clean at
  // level 1 for every explored input.
  const int n = 3;
  std::vector<TaskPtr> menu = {
      std::make_shared<ConsensusTask>(n),
      std::make_shared<SetAgreementTask>(n, 2),
      std::make_shared<IdentityTask>(n),
  };
  for (const auto& task : menu) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      ExploreConfig cfg;
      cfg.k = 1;
      cfg.arrival = Task::participants(task->sample_input(seed));
      const auto o = explore_k_concurrent(task, one_conc(task, "p1"), task->sample_input(seed), cfg);
      EXPECT_TRUE(o.ok) << task->name() << ": " << o.violation;
      EXPECT_GT(o.terminal_runs, 0);
    }
  }
}

TEST(Explorer, GenericSolverSolvesKSetAgreementKConcurrently) {
  // The adoptive generic solver is clean at level k for (n, k)-agreement...
  const int n = 4, k = 2;
  auto task = std::make_shared<SetAgreementTask>(n, k);
  ValueVec in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  ExploreConfig cfg;
  cfg.k = k;
  cfg.arrival = {0, 1, 2, 3};
  cfg.max_states = 300000;
  const auto o = explore_k_concurrent(task, one_conc(task, "ksa"), in, cfg);
  EXPECT_TRUE(o.ok) << o.violation;
  EXPECT_FALSE(o.budget_exhausted);
}

TEST(Explorer, GenericSolverBreaksAtKPlus1) {
  // ...and a level-(k+1) run with k+1 distinct decisions is exhibited.
  const int n = 4, k = 2;
  auto task = std::make_shared<SetAgreementTask>(n, k);
  ValueVec in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  ExploreConfig cfg;
  cfg.k = k + 1;
  cfg.arrival = {0, 1, 2, 3};
  cfg.max_states = 300000;
  const auto o = explore_k_concurrent(task, one_conc(task, "ksa"), in, cfg);
  EXPECT_FALSE(o.ok);
  EXPECT_EQ(o.violation, "task relation violated");
  EXPECT_FALSE(o.bad_schedule.empty());
}

TEST(Explorer, ConsensusLevelIsExactlyOne) {
  const int n = 3;
  auto task = std::make_shared<ConsensusTask>(n);
  ValueVec in{Value(0), Value(1), Value(2)};
  const CleanLevelResult r = max_clean_level(task, one_conc(task, "c"), in, n);
  EXPECT_EQ(r.level, 1);
  EXPECT_FALSE(r.budget_exhausted) << "level 1 must be fully certified, not sampled";
}

TEST(Explorer, IdentityIsWaitFree) {
  const int n = 3;
  auto task = std::make_shared<IdentityTask>(n);
  const ValueVec in = task->sample_input(5);
  const CleanLevelResult r = max_clean_level(task, one_conc(task, "id"), in, n);
  EXPECT_EQ(r.level, n);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(Explorer, CleanLevelNotCertifiedOnExhaustedBudget) {
  // Regression: a sweep that ran out of budget used to bump the level even
  // though it had not covered level k — certifying solvability on a sample.
  // A starved sweep must leave the level at the last covered one and
  // surface the exhaustion.
  const int n = 3;
  auto task = std::make_shared<IdentityTask>(n);
  const ValueVec in = task->sample_input(5);
  ExploreConfig cfg;
  cfg.max_states = 2;  // even the level-1 sweep cannot finish
  const CleanLevelResult r = max_clean_level(task, one_conc(task, "idb"), in, n, cfg);
  EXPECT_EQ(r.level, 0);
  EXPECT_TRUE(r.budget_exhausted);
}

TEST(Explorer, Fig4RenamingCleanAtK) {
  // Thm. 15 evidence: every 2-concurrent schedule of Fig. 4 on (3,4)-renaming
  // decides unique names <= 4.
  const int n = 4;
  auto task = std::make_shared<RenamingTask>(n, 3, 4);
  const ValueVec in = task->sample_input(0);
  const RenamingConfig rcfg{"ren", n};
  auto body = [rcfg](int, Value input) { return make_renaming_kconc(rcfg, input); };
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = Task::participants(in);
  cfg.max_states = 400000;
  const auto o = explore_k_concurrent(task, body, in, cfg);
  EXPECT_TRUE(o.ok) << o.violation;
}

TEST(Explorer, Fig4StrongRenamingBreaksAtTwoConcurrent) {
  // Thm. 12 evidence: the Fig. 4 algorithm, which does solve strong renaming
  // 1-concurrently, fails somewhere at level 2 (name out of range 1..j).
  const int n = 3;
  auto task = std::make_shared<RenamingTask>(RenamingTask::strong(n, 2));
  const ValueVec in = task->sample_input(0);
  const RenamingConfig rcfg{"ren", n};
  auto body = [rcfg](int, Value input) { return make_renaming_kconc(rcfg, input); };

  ExploreConfig cfg;
  cfg.arrival = Task::participants(in);
  cfg.k = 1;
  EXPECT_TRUE(explore_k_concurrent(task, body, in, cfg).ok);
  cfg.k = 2;
  const auto o = explore_k_concurrent(task, body, in, cfg);
  EXPECT_FALSE(o.ok);
}

TEST(Explorer, ViolatingScheduleReplays) {
  // The reported bad schedule is a real counterexample: replaying it in a
  // fresh world reproduces the violation.
  const int n = 3;
  auto task = std::make_shared<ConsensusTask>(n);
  ValueVec in{Value(0), Value(1), Value(2)};
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2};
  const auto o = explore_k_concurrent(task, one_conc(task, "c"), in, cfg);
  ASSERT_FALSE(o.ok);
  ASSERT_FALSE(o.bad_schedule.empty());

  World w = World::failure_free(1);
  for (int i = 0; i < n; ++i) {
    w.spawn_c(i, make_one_concurrent(task, in[static_cast<std::size_t>(i)], "c"));
  }
  for (int c : o.bad_schedule) w.step(cpid(c));
  ValueVec out = w.output_vector();
  out.resize(static_cast<std::size_t>(n));
  EXPECT_FALSE(task->relation(in, out));
}

TEST(Explorer, DedupMatchesNoDedupVerdict) {
  // Signature dedup is an optimization, not a semantics change: the
  // explorer's verdict equals the unpruned full-replay oracle's.
  const int n = 3;
  auto task = std::make_shared<SetAgreementTask>(n, 2);
  ValueVec in{Value(0), Value(1), Value(2)};
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2};
  cfg.max_states = 30000;  // the undeduped tree is exponential; cap both runs
  const auto with = explore_k_concurrent(task, one_conc(task, "s"), in, cfg);
  const auto without = explore_full_replay(task, one_conc(task, "s"), in, cfg, /*dedup=*/false);
  EXPECT_EQ(with.ok, without.ok);
  EXPECT_LE(with.states, without.states);
}

}  // namespace
}  // namespace efd
