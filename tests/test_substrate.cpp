// Cross-backend differential tests for the substrate abstraction (ctest -L
// substrate): the SAME coroutine bodies (ctx.send / ctx.recv) run against
// ShmSubstrate (registers-as-mailboxes) and the native MsgSubstrate, and
// every semantic observable must agree:
//
//  * exploration verdicts and semantic counters (states, terminal runs,
//    dedup traffic, blocked dead ends) — per level, per thread count, and
//    against the full-replay oracle (tests/support/explore_oracle.hpp);
//  * hierarchy rows (core/hierarchy classify) — byte-identical formatting;
//  * driven runs — step-for-step identical traces and state hashes;
//  * daemon-mode record/replay — MP tapes round-trip bit-identically
//    (trace-hash certified) through the unchanged efd-tape-v1 path.
//
// The explored MP family is EAGER (sends land instantly, no link daemons);
// recv on an empty mailbox BLOCKS under exploration (core/solvability), so
// both backends install a substrate explicitly and follow the same rule.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/mp_protocols.hpp"
#include "core/hierarchy.hpp"
#include "core/repro_scenarios.hpp"
#include "core/solvability.hpp"
#include "sim/channel.hpp"
#include "sim/msg_world.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"
#include "support/explore_oracle.hpp"
#include "support/outcome_eq.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

constexpr int kN = 3;  ///< FloodMin system size (n senders, n mailboxes)
constexpr int kF = 1;  ///< tolerated sender crashes

std::function<World()> shm_factory() {
  return [] {
    World w = World::failure_free(1);
    install_shm_mailboxes(w);
    return w;
  };
}

std::function<World()> msg_factory() {
  return [] {
    World w = World::failure_free(1);
    install_msg_eager(w, kN, kN);
    return w;
  };
}

/// Eager msg world with every cross link lossy: each process hears only
/// itself, so every schedule dead-ends in a blocked recv.
std::function<World()> lossy_msg_factory() {
  return [] {
    World w = World::failure_free(1);
    install_msg_eager(w, kN, kN);
    ChannelFabric& fab = msg_substrate(w)->fabric();
    for (int i = 0; i < kN; ++i) {
      for (int j = 0; j < kN; ++j) {
        if (i != j) fab.set_lossy(i, mp_mailbox(j), true);
      }
    }
    return w;
  };
}

std::function<ProcBody(int, Value)> floodmin_body() {
  const FloodMinConfig cfg{kN, kF};
  return [cfg](int i, Value input) { return make_floodmin(cfg, i, std::move(input)); };
}

ValueVec floodmin_inputs() {
  ValueVec in(static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  return in;
}

/// The cross-backend-comparable summary of one sweep: the verdict plus every
/// counter EXPERIMENTS.md E19 promises to be backend-invariant.
struct SweepSummary {
  bool ok = false;
  bool exhausted = false;
  std::string violation;
  std::vector<int> bad_schedule;
  std::int64_t states = 0;
  std::int64_t terminal_runs = 0;
  std::int64_t blocked_runs = 0;
  std::int64_t dedup_queries = 0;
  std::int64_t dedup_misses = 0;

  bool operator==(const SweepSummary&) const = default;
};

ExploreConfig sweep_cfg(const std::function<World()>& factory, int k, int threads) {
  ExploreConfig cfg;
  cfg.k = k;
  cfg.arrival = Task::participants(floodmin_inputs());
  cfg.threads = threads;
  cfg.max_states = 2000000;
  cfg.world_factory = factory;
  return cfg;
}

SweepSummary sweep(const std::function<World()>& factory, int kset, int k, int threads) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(kN, kset);
  const ExploreOutcome out = explore_k_concurrent(task, floodmin_body(), floodmin_inputs(),
                                                  sweep_cfg(factory, k, threads));
  SweepSummary s;
  s.ok = out.ok;
  s.exhausted = out.budget_exhausted;
  s.violation = out.violation;
  s.bad_schedule = out.bad_schedule;
  s.states = out.states;
  s.terminal_runs = out.terminal_runs;
  s.blocked_runs = out.blocked_runs;
  s.dedup_queries = out.stats.dedup_queries;
  s.dedup_misses = out.stats.dedup_misses;
  return s;
}

TEST(Substrate, CountersAndVerdictsIdenticalAcrossBackendsAndThreads) {
  for (int kset : {1, 2}) {
    for (int k = 1; k <= kN; ++k) {
      const SweepSummary baseline = sweep(shm_factory(), kset, k, 1);
      SCOPED_TRACE("kset=" + std::to_string(kset) + " k=" + std::to_string(k) +
                   " baseline states=" + std::to_string(baseline.states));
      ASSERT_FALSE(baseline.exhausted) << "budget too small for a certified comparison";
      for (int threads : {1, 2, 8}) {
        EXPECT_EQ(sweep(shm_factory(), kset, k, threads), baseline)
            << "shm backend diverged at threads=" << threads;
        EXPECT_EQ(sweep(msg_factory(), kset, k, threads), baseline)
            << "msg backend diverged at threads=" << threads;
      }
    }
  }
}

TEST(Substrate, ExplorerMatchesFullReplayOracle) {
  // The oracle re-executes every prefix in a fresh world and keeps its own
  // budget count and dedup set, so this checks the explorer's substrate
  // undo (cell_state / restore_cell), its blocking-recv rule and its
  // counters independently of its store. The lossy world only dead-ends.
  const std::vector<std::pair<std::string, std::function<World()>>> worlds = {
      {"shm", shm_factory()}, {"msg", msg_factory()}, {"msg lossy", lossy_msg_factory()}};
  for (const auto& [name, factory] : worlds) {
    for (int kset : {1, 2}) {
      const TaskPtr task = std::make_shared<SetAgreementTask>(kN, kset);
      for (int k = 1; k <= kN; ++k) {
        const std::string what =
            name + " kset=" + std::to_string(kset) + " k=" + std::to_string(k);
        const ExploreConfig cfg = sweep_cfg(factory, k, 1);
        const ExploreOutcome full =
            explore_full_replay(task, floodmin_body(), floodmin_inputs(), cfg);
        ASSERT_FALSE(full.budget_exhausted) << what;
        if (name == "msg lossy") {
          EXPECT_GT(full.blocked_runs, 0) << what;
        }
        expect_outcome_eq(explore_k_concurrent(task, floodmin_body(), floodmin_inputs(), cfg),
                          full, what);
      }
    }
  }
}

TEST(Substrate, FloodMinBoundaryMatchesTheory) {
  // FloodMin solves k-set agreement iff k >= f + 1 (the E19 impossibility
  // boundary): any (n-f)-subset of inputs contains one of the f+1 smallest,
  // so decisions span at most f+1 values — and no fewer, as exploration
  // shows. Checked as consensus (kset = f = 1) the split needs only two
  // concurrency slots: p0 and p1 decide 0, retire, and the freed slot admits
  // p2, whose inbox can FIFO-order p1's flood before p0's — it hears p1,
  // decides min(2,1) = 1 against p0's 0. At k = 1 a lone process can never
  // hear a second sender: every schedule dead-ends blocked, vacuously clean.
  EXPECT_TRUE(sweep(shm_factory(), kF + 1, kN, 1).ok) << "solvable side must certify clean";
  for (int k : {2, kN}) {
    const SweepSummary split = sweep(shm_factory(), kF, k, 1);
    EXPECT_FALSE(split.ok) << "unsolvable side must exhibit the violating run at k=" << k;
    EXPECT_EQ(split.violation, "task relation violated");
    EXPECT_FALSE(split.bad_schedule.empty());
  }
}

TEST(Substrate, BlockedDeadEndsCountedAndBackendInvariant) {
  // At k = 1 the single admitted sender floods, then blocks on its inbox
  // forever (nobody else ran): every schedule is a blocked dead end, no run
  // terminates, and no safety violation exists.
  const SweepSummary s = sweep(shm_factory(), kF + 1, 1, 1);
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.terminal_runs, 0);
  EXPECT_GT(s.blocked_runs, 0);
  EXPECT_EQ(sweep(msg_factory(), kF + 1, 1, 1), s);
}

TEST(Substrate, HierarchyRowsIdenticalAcrossBackendsAndThreads) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(kN, kF + 1);
  std::vector<std::string> rendered;
  for (int threads : {1, 2, 8}) {
    for (const auto& factory : {shm_factory(), msg_factory()}) {
      ExploreConfig base;
      base.threads = threads;
      base.max_states = 2000000;
      base.world_factory = factory;
      const HierarchyRow row =
          classify(task, floodmin_body(), floodmin_inputs(), kN, base);
      EXPECT_FALSE(row.level_exhausted);
      rendered.push_back(format_hierarchy({row}));
    }
  }
  for (std::size_t i = 1; i < rendered.size(); ++i) {
    EXPECT_EQ(rendered[i], rendered[0]) << "hierarchy row diverged (variant " << i << ")";
  }
}

TEST(Substrate, DrivenRunsBitIdenticalAcrossBackends) {
  // Outside exploration the backends must also agree step for step: the same
  // round-robin schedule over the same bodies yields the same trace hash, the
  // same decisions, and the same full-state hash — on ShmSubstrate the
  // mailboxes live in registers, on eager MsgSubstrate in the fabric, and
  // state_hash() is designed to not see the difference.
  auto run = [](const std::function<World()>& factory) {
    World w = factory();
    w.enable_trace();
    for (int i = 0; i < kN; ++i) {
      w.spawn_c(i, make_floodmin(FloodMinConfig{kN, kF}, i, Value(i)));
    }
    RoundRobinScheduler rr;
    drive(w, rr, 4000);
    return w;
  };
  World shm = run(shm_factory());
  World msg = run(msg_factory());
  EXPECT_EQ(trace_hash(shm.trace()), trace_hash(msg.trace()));
  EXPECT_EQ(shm.state_hash(), msg.state_hash());
  EXPECT_TRUE(deterministic_equal(shm.run_stats(), msg.run_stats()));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(shm.decided(cpid(i)), msg.decided(cpid(i))) << "p" << i + 1;
    if (shm.decided(cpid(i))) {
      EXPECT_EQ(shm.decision(cpid(i)), msg.decision(cpid(i)));
    }
  }
  EXPECT_GT(shm.run_stats().sends, 0);
  EXPECT_GT(shm.run_stats().recvs, 0);
}

TEST(Substrate, DaemonTapesReplayBitIdentically) {
  // Daemon-mode MsgSubstrate runs (per-link FIFO channels, deliveries as
  // ordinary schedulable S-steps) recorded by the MP scenarios must survive
  // the FULL efd-tape-v1 path: record -> serialize -> parse -> fresh world
  // -> replay, trace hash and predicate certified.
  for (const char* name :
       {"mp_floodmin_clean", "mp_floodmin_partition", "mp_floodmin_crash_bcast"}) {
    const Scenario* sc = find_scenario(name);
    ASSERT_NE(sc, nullptr) << name;
    for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      ScheduleTape tape = sc->record(seed);
      EXPECT_EQ(tape.substrate, "msg") << "MP tapes must carry substrate provenance";
      const ScheduleTape parsed = ScheduleTape::parse(tape.serialize());
      const ScenarioReplayOutcome out = replay_in_scenario(*sc, parsed);
      EXPECT_TRUE(out.replay.hash_match) << "replay diverged from the recording";
      ASSERT_TRUE(parsed.expect_violated);
      EXPECT_EQ(out.violated, *parsed.expect_violated);
      EXPECT_GT(out.stats.delivers, 0) << "daemon runs must take deliver steps";
    }
  }
}

}  // namespace
}  // namespace efd
