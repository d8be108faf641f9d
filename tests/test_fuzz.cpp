// Randomized end-to-end fuzzing: across seeds, system sizes, fault loads and
// schedules, every algorithm keeps its task's safety invariants and decides
// in fair runs. These sweeps are the repository's failure-injection net —
// each case draws a fresh failure pattern AND a fresh schedule from the seed.
//
// Tests that record their run (via record_run) stash the captured
// ScheduleTape in the fixture; on failure TearDown auto-dumps it as
// <suite>_<test>_seed<N>.tape so the exact failing schedule can be replayed,
// shrunk (tools/efd_repro) and promoted into tests/corpus/. Dump target:
// $EFD_TAPE_DUMP_DIR if set, else tests/corpus/pending/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>

#include "algo/bg_simulation.hpp"
#include "algo/mp_protocols.hpp"
#include "algo/extraction.hpp"
#include "algo/k_codes_sim.hpp"
#include "algo/leader_consensus.hpp"
#include "algo/participating_set.hpp"
#include "algo/renaming.hpp"
#include "algo/set_agreement_antiomega.hpp"
#include "core/repro_scenarios.hpp"
#include "fd/detectors.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"
#include "tasks/consensus.hpp"
#include "tasks/participating_set.hpp"
#include "tasks/renaming.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  [[nodiscard]] std::uint64_t seed() const { return GetParam(); }
  [[nodiscard]] int pick(std::uint64_t salt, int lo, int hi) const {
    std::uint64_t z = seed() * 0x9E3779B97F4A7C15ULL + salt;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 27;
    return lo + static_cast<int>(z % static_cast<std::uint64_t>(hi - lo + 1));
  }

  /// Tests that record their run park the tape here for the failure dump.
  void stash_tape(ScheduleTape tape) { tape_ = std::move(tape); }

  /// Stashes a recorded run's tape (record_run) for the failure dump, and
  /// checks the text round-trip replays bit-identically in a fresh world
  /// built by `make_world(pattern, history)` — the tape alone (no detector
  /// object, no scheduler state) must reproduce the run.
  template <class MakeWorld>
  void expect_tape_roundtrip(ScheduleTape tape, MakeWorld&& make_world) {
    const ScheduleTape parsed = ScheduleTape::parse(tape.serialize());
    stash_tape(std::move(tape));
    World w2 = make_world(parsed.pattern(), parsed.history());
    const ReplayResult rr = replay_tape(w2, parsed);
    EXPECT_TRUE(rr.hash_match) << "tape round-trip diverged from the recording";
  }

  void TearDown() override {
    if (!HasFailure() || !tape_) return;
    namespace fs = std::filesystem;
    const char* env = std::getenv("EFD_TAPE_DUMP_DIR");
    const fs::path dir = env ? fs::path(env) : fs::path(EFD_CORPUS_DIR) / "pending";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_" + info->name() + "_seed" +
                       std::to_string(seed()) + ".tape";
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    try {
      save_tape(*tape_, (dir / name).string());
      std::fprintf(stderr, "[  TAPE    ] dumped failing schedule to %s\n",
                   (dir / name).string().c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[  TAPE    ] dump failed: %s\n", e.what());
    }
  }

 private:
  std::optional<ScheduleTape> tape_;
};

TEST_P(Fuzz, ConsensusWithOmega) {
  const int n = pick(1, 2, 6);
  const int faults = pick(2, 0, n - 1);
  const FailurePattern f = Environment(n, n - 1).sample(seed(), faults, 20);
  OmegaFd omega(pick(3, 0, 60));
  World w(f, omega.history(f, seed()));
  const LeaderConsensusConfig cfg{"cons", n};
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_consensus_client(cfg, Value(i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_consensus_server(cfg));
  RandomScheduler rs(seed() ^ 0xABCDEF);
  const auto r = drive(w, rs, 600000);
  ASSERT_TRUE(r.all_c_decided) << "n=" << n << " " << f.to_string();
  std::set<std::int64_t> vals;
  for (int i = 0; i < n; ++i) vals.insert(w.decision(cpid(i)).as_int());
  EXPECT_EQ(vals.size(), 1u);
  EXPECT_GE(*vals.begin(), 0);
  EXPECT_LT(*vals.begin(), n);
}

TEST_P(Fuzz, KsaWithVecOmega) {
  const int n = pick(4, 3, 6);
  const int k = pick(5, 1, n - 1);
  const int faults = pick(6, 0, n - 1);
  const FailurePattern f = Environment(n, n - 1).sample(seed() + 1, faults, 15);
  VectorOmegaK vo(k, pick(7, 10, 80));
  World w(f, vo.history(f, seed()));
  const KsaConfig cfg{"ksa", n, k};
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_ksa_client(cfg, Value(i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_ksa_server(cfg));
  RandomScheduler rs(seed() ^ 0x123457);
  const auto r = drive(w, rs, 1500000);
  ASSERT_TRUE(r.all_c_decided) << "n=" << n << " k=" << k << " " << f.to_string();
  SetAgreementTask task(n, k);
  ValueVec in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  EXPECT_TRUE(task.relation(in, w.output_vector()));
}

TEST_P(Fuzz, RenamingUnderRandomWindow) {
  const int j = pick(8, 2, 5);
  const int n = j + pick(9, 1, 3);
  const int kconc = pick(10, 1, j);
  const RenamingTask task(n, j, j + kconc - 1);
  const ValueVec in = task.sample_input(seed());
  const auto arrival = Task::participants(in);
  World w = World::failure_free(1);
  w.enable_trace();
  const RenamingConfig cfg{"ren", n};
  for (int i : arrival) {
    w.spawn_c(i, make_renaming_kconc(cfg, in[static_cast<std::size_t>(i)]));
  }
  KConcurrencyScheduler ks(kconc, arrival, 0);
  const auto r = drive(w, ks, 500000);
  ASSERT_TRUE(r.all_c_decided) << "j=" << j << " k=" << kconc;
  EXPECT_LE(max_concurrency(w.trace()), kconc);
  ValueVec out(static_cast<std::size_t>(n));
  for (int i : arrival) out[static_cast<std::size_t>(i)] = w.decision(cpid(i));
  EXPECT_TRUE(task.relation(in, out)) << "j=" << j << " k=" << kconc;
}

TEST_P(Fuzz, ParticipatingSetAnyConcurrency) {
  const int n = pick(11, 2, 5);
  auto task = std::make_shared<ParticipatingSetTask>(n);
  const ValueVec in = task->sample_input(seed());
  World w = World::failure_free(1);
  const ParticipatingSetConfig cfg{"ps", n};
  for (int i = 0; i < n; ++i) {
    w.spawn_c(i, make_participating_set_solver(cfg, in[static_cast<std::size_t>(i)]));
  }
  RandomScheduler rs(seed() ^ 0x777);
  const auto r = drive(w, rs, 400000);
  ASSERT_TRUE(r.all_c_decided) << "n=" << n;
  EXPECT_TRUE(task->relation(in, w.output_vector()));
}

TEST_P(Fuzz, NoAdviceNsaEveryEnvironment) {
  const int n = pick(12, 2, 6);
  const int faults = pick(13, 0, n - 1);
  const FailurePattern f = Environment(n, n - 1).sample(seed() + 2, faults, 12);
  TrivialFd trivial;
  World w(f, trivial.history(f, 0));
  const KsaConfig cfg{"nsa", n, n};
  for (int i = 0; i < n; ++i) w.spawn_c(i, make_nsa_noadvice_client(cfg, Value(i)));
  for (int i = 0; i < n; ++i) w.spawn_s(i, make_nsa_noadvice_server(cfg));
  RandomScheduler rs(seed() ^ 0x9999);
  const auto r = drive(w, rs, 400000);
  ASSERT_TRUE(r.all_c_decided) << f.to_string();
  SetAgreementTask task(n, n);
  ValueVec in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  EXPECT_TRUE(task.relation(in, w.output_vector()));
}

// ---- end-to-end targets with tape capture ---------------------------------
//
// The three simulation pipelines (k-codes, BG, extraction) fuzzed with the
// same seed/pick scaffold. Each records its schedule, asserts task safety,
// and round-trips the captured tape — so any failure ships with a replayable
// artifact (see TearDown) and the tape pipeline itself is fuzzed across the
// full parameter space for free.

// Code under simulation: read a register `reads` times, then decide
// 1000 + own index (structure from the k-codes unit tests).
struct FuzzSpinReadCode final : SimProgram {
  int reads;
  explicit FuzzSpinReadCode(int reads) : reads(reads) {}
  Value init(int idx, const Value&) const override { return vec(Value(idx), Value(0)); }
  SimAction action(const Value& st) const override {
    const auto c = st.at(1).int_or(0);
    if (c < reads) return {SimAction::Kind::kRead, "kcx", {}};
    if (c == reads) return {SimAction::Kind::kDecide, "", Value(1000 + st.at(0).int_or(0))};
    return {};
  }
  Value transition(const Value& st, const Value&) const override {
    return vec(st.at(0), Value(st.at(1).int_or(0) + 1));
  }
};

// Colorless min-of-inputs code with write-once registers (BG contract).
struct FuzzMinCode final : SimProgram {
  int n;
  explicit FuzzMinCode(int n) : n(n) {}
  Value init(int idx, const Value& input) const override {
    return vec(Value(idx), input, Value(0), input);  // [idx, input, next_read, min]
  }
  SimAction action(const Value& st) const override {
    const auto stage = st.at(2).int_or(0);
    if (stage == -1) return {};
    if (stage == 0) {
      return {SimAction::Kind::kWrite, reg("mc/in", static_cast<int>(st.at(0).int_or(0))),
              st.at(1)};
    }
    if (stage <= n) return {SimAction::Kind::kRead, reg("mc/in", static_cast<int>(stage) - 1), {}};
    return {SimAction::Kind::kDecide, "", st.at(3)};
  }
  Value transition(const Value& st, const Value& result) const override {
    const auto stage = st.at(2).int_or(0);
    Value min = st.at(3);
    if (stage >= 1 && stage <= n && result.is_int() &&
        (min.is_nil() || result.as_int() < min.as_int())) {
      min = result;
    }
    const std::int64_t next = stage > n ? -1 : stage + 1;
    return vec(st.at(0), st.at(1), Value(next), min);
  }
};

KCodesHarvest fuzz_first_decision() {
  return [](const ValueVec& d) {
    for (const auto& v : d) {
      if (!v.is_nil()) return v;
    }
    return Value{};
  };
}

TEST_P(Fuzz, KCodesSimulationEndToEnd) {
  const int n = pick(14, 3, 4);
  const int k = pick(15, 1, n - 1);
  const int faults = pick(16, 0, n - 2);
  const FailurePattern f = Environment(n, n - 1).sample(seed() + 3, faults, 12);
  VectorOmegaK vo(k, pick(17, 20, 60));
  KCodesConfig cfg;
  cfg.ns = "kc";
  cfg.n = n;
  cfg.k = k;
  cfg.code = std::make_shared<FuzzSpinReadCode>(pick(18, 2, 4));
  cfg.inputs.assign(static_cast<std::size_t>(k), Value(0));
  const auto make_world = [&](const FailurePattern& fp, HistoryPtr h) {
    World w(fp, std::move(h));
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_kcodes_simulator(cfg, fuzz_first_decision()));
    for (int i = 0; i < n; ++i) w.spawn_s(i, make_kcodes_server(cfg));
    return w;
  };

  World w = make_world(f, vo.history(f, seed()));
  RandomScheduler rs(seed() ^ 0xC0DE5);
  expect_tape_roundtrip(record_run("", w, rs, 3000000), make_world);

  ASSERT_TRUE(w.all_c_decided()) << "n=" << n << " k=" << k << " " << f.to_string();
  for (int i = 0; i < n; ++i) {
    const auto d = w.decision(cpid(i)).as_int();
    EXPECT_GE(d, 1000);
    EXPECT_LT(d, 1000 + k);  // decisions come from one of the k codes
  }
}

TEST_P(Fuzz, BgSimulationEndToEnd) {
  const int sims = pick(19, 2, 4);
  const int codes = pick(20, 1, 3);
  BgConfig cfg;
  cfg.ns = "bg";
  cfg.num_simulators = sims;
  cfg.num_codes = codes;
  cfg.code = std::make_shared<FuzzMinCode>(sims);
  const auto make_world = [&](const FailurePattern& fp, HistoryPtr h) {
    World w(fp, std::move(h));
    for (int i = 0; i < sims; ++i) {
      w.spawn_c(i, make_bg_simulator(cfg, Value(10 + i), adopt_any()));
    }
    return w;
  };

  const FailurePattern f(1);
  TrivialFd trivial;
  World w = make_world(f, trivial.history(f, 0));
  RandomScheduler rs(seed() ^ 0xB6B6);
  expect_tape_roundtrip(record_run("", w, rs, 400000), make_world);

  ASSERT_TRUE(w.all_c_decided()) << "sims=" << sims << " codes=" << codes;
  // MinCode decides the minimum input it saw — some simulator's input.
  for (int i = 0; i < sims; ++i) {
    const auto d = w.decision(cpid(i)).as_int();
    EXPECT_GE(d, 10);
    EXPECT_LT(d, 10 + sims);
  }
  // Published code decisions are single-valued per code and in range.
  for (int c = 0; c < codes; ++c) {
    const Value dec = w.memory().read(reg("bg/dec", c));
    if (!dec.is_nil()) {
      EXPECT_GE(dec.as_int(), 10);
      EXPECT_LT(dec.as_int(), 10 + sims);
    }
  }
}

TEST_P(Fuzz, ExtractionReductionEndToEnd) {
  // The Fig. 1 pipeline under fuzzed environments: extraction S-processes
  // sample →Ωk into a DAG and emulate ¬Ωk; the emulated history must satisfy
  // AntiOmegaK::check on the run's horizon. Replicates run_reduction's world
  // shape inline so the schedule can be recorded.
  const int n = 4, k = 2;
  FailurePattern f(n);
  f.crash(pick(21, 0, n - 1), Time{pick(22, 10, 40)});
  VectorOmegaK vo(k, pick(23, 30, 80));

  ExtractionConfig cfg;
  cfg.ns = "ex";
  cfg.n = n;
  cfg.k = k;
  cfg.explore_every = 2;
  cfg.budget0 = 4000;
  cfg.budget_step = 4000;
  cfg.max_budget = 24000;
  const auto make_world = [&](const FailurePattern& fp, HistoryPtr h) {
    World w(fp, std::move(h));
    for (int i = 0; i < n; ++i) w.spawn_s(i, make_extraction_sproc(cfg));
    return w;
  };

  World w = make_world(f, vo.history(f, seed()));
  RoundRobinScheduler rr;
  const ScheduleTape tape = record_run("", w, rr, 7000);
  // S-only world: never vacuously decided, so the drive runs its budget out.
  EXPECT_EQ(tape.steps.size(), 7000u);
  expect_tape_roundtrip(tape, make_world);

  const auto h = emulated_history_from_trace(w.trace(), cfg);
  EXPECT_TRUE(AntiOmegaK::check(k, f, *h, w.now())) << "seed " << seed();
}

// ---- message-passing world targets (sim/msg_world, daemon mode) -----------
//
// Same scaffold, second substrate: per-link FIFO channels, deliveries taken
// by the n*m link daemons as ordinary schedulable S-steps, partitions as
// daemon crashes. Each run records its schedule, asserts task safety, and
// round-trips the tape — MP runs must replay bit-identically through the
// unchanged efd-tape-v1 path, fuzzed across the parameter space.

TEST_P(Fuzz, MpFloodMinEndToEnd) {
  // FloodMin (f = 1) under an optional one-sided partition: a victim's
  // outbound links are all severed at a fuzzed time. The n - 1 other senders
  // still satisfy every process's n - f threshold, so all decide, and any
  // (n-f)-subset of inputs contains one of the 2 smallest: 2-set agreement.
  const int n = pick(24, 3, 4);
  const FloodMinConfig cfg{n, 1};
  FailurePattern base(n * n);
  if (pick(25, 0, 1) == 1) {
    const int victim = pick(26, 0, n - 1);
    const Time t{pick(27, 0, 25)};
    for (int j = 0; j < n; ++j) {
      if (j != victim) sever_link(base, n, victim, j, t);
    }
  }
  const auto make_world = [&](const FailurePattern& fp, HistoryPtr h) {
    World w = make_mp_world(n, n, fp, std::move(h));
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_floodmin(cfg, i, Value(i)));
    return w;
  };
  TrivialFd trivial;
  World w = make_world(base, trivial.history(base, 0));
  RandomScheduler rs(seed() ^ 0xF10D);
  expect_tape_roundtrip(record_run("", w, rs, 300000), make_world);

  ASSERT_TRUE(w.all_c_decided()) << "n=" << n << " " << base.to_string();
  EXPECT_GT(w.run_stats().delivers, 0) << "daemon-mode runs must take deliver steps";
  SetAgreementTask task(n, 2);
  ValueVec in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  EXPECT_TRUE(task.relation(in, w.output_vector()));
}

TEST_P(Fuzz, MpConsensusOmegaFlood) {
  // Hybrid consensus: clients flood proposals over per-link channels to the
  // server mailboxes; the crash-prone, Omega-advised servers run the proven
  // register adopt-commit chain and publish DEC. Servers sit at S-indices
  // 0..ns-1, BELOW the link daemons, so the lowest-correct-index leader the
  // detector stabilizes on is a server, never a daemon.
  const int n = pick(28, 2, 4);
  const MpConsensusConfig cfg{"mpc", 2};
  const int ns = cfg.n_servers;
  FailurePattern base(ns + n * ns);
  if (pick(30, 0, 1) == 1) base.crash(pick(29, 0, ns - 1), Time{pick(31, 5, 40)});
  OmegaFd omega(pick(32, 0, 60));
  const auto make_world = [&](const FailurePattern& fp, HistoryPtr h) {
    World w = make_mp_world(n, ns, fp, std::move(h), /*s_base=*/ns);
    for (int i = 0; i < n; ++i) w.spawn_c(i, make_mp_consensus_client(cfg, Value(20 + i)));
    for (int j = 0; j < ns; ++j) w.spawn_s(j, make_mp_consensus_server(cfg));
    return w;
  };
  World w = make_world(base, omega.history(base, seed()));
  RandomScheduler rs(seed() ^ 0x5B5B);
  expect_tape_roundtrip(record_run("", w, rs, 800000), make_world);

  ASSERT_TRUE(w.all_c_decided()) << "n=" << n << " " << base.to_string();
  std::set<std::int64_t> vals;
  for (int i = 0; i < n; ++i) vals.insert(w.decision(cpid(i)).as_int());
  EXPECT_EQ(vals.size(), 1u) << "consensus agreement";
  EXPECT_GE(*vals.begin(), 20);
  EXPECT_LT(*vals.begin(), 20 + n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace efd
