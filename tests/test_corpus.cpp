// Tests for the persistent finding corpus (core/corpus.hpp) and the farm
// engine built on it (core/campaign.hpp run_farm): content keys, atomic
// novel-vs-duplicate classification across reopen, alias persistence,
// quarantine of malformed entries, and restart-with-corpus resume. Also
// pins the golden values of the hash mixers (sim/hash.hpp) that corpus
// keys, plan seeds and state hashes are built from.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/repro_scenarios.hpp"
#include "fd/faulty.hpp"
#include "sim/memory.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"

namespace efd {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the test tmpdir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("efd_corpus_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A real finding-shaped tape: the synthetic known-bad scenario's recording,
/// finding line stamped like the farm does.
ScheduleTape sample_tape(std::uint64_t seed) {
  const Scenario* sc = find_scenario("synth_write_race");
  ScheduleTape t = sc->record(seed);
  t.finding = "safety";
  return t;
}

TEST(CorpusKey, IsContentBasedAndStable) {
  const ScheduleTape a = sample_tape(1);
  const ScheduleTape b = sample_tape(1);
  EXPECT_EQ(corpus_key(a), corpus_key(b));

  ScheduleTape other_finding = a;
  other_finding.finding = "wait-free";
  EXPECT_NE(corpus_key(a), corpus_key(other_finding));

  ScheduleTape other_scenario = a;
  other_scenario.scenario = "somewhere_else";
  EXPECT_NE(corpus_key(a), corpus_key(other_scenario));

  // Distinct recordings hash distinct (different schedules -> trace hash).
  const ScheduleTape c = sample_tape(2);
  if (a.expect_hash != c.expect_hash) {
    EXPECT_NE(corpus_key(a), corpus_key(c));
  }
}

TEST(CorpusStore, InsertIsFirstInsertWinsAndAtomic) {
  const std::string dir = fresh_dir("insert");
  CorpusStore store;
  const CorpusStore::LoadReport rep = store.open(dir);
  EXPECT_EQ(rep.loaded, 0);
  EXPECT_EQ(rep.quarantined, 0);

  const ScheduleTape t = sample_tape(1);
  const std::uint64_t key = corpus_key(t);
  EXPECT_FALSE(store.contains(key));
  std::string path;
  EXPECT_TRUE(store.insert(key, t, "synth_s1", &path));
  EXPECT_TRUE(store.contains(key));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.path_of(key), path);
  ASSERT_TRUE(fs::exists(path));

  // Duplicate insert: no write, no error, same stored path.
  EXPECT_FALSE(store.insert(key, t, "synth_s1_again"));
  EXPECT_EQ(store.size(), 1u);

  // No temp-file litter: the publish is write-then-rename.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().extension(), ".tape") << e.path();
    ++files;
  }
  EXPECT_EQ(files, 1);

  // The stored entry is a loadable tape with its provenance intact.
  const ScheduleTape back = load_tape(path);
  EXPECT_EQ(back.finding, "safety");
  EXPECT_EQ(corpus_key(back), key);
}

TEST(CorpusStore, DedupAndAliasesSurviveReopen) {
  const std::string dir = fresh_dir("reopen");
  const ScheduleTape t = sample_tape(3);
  const std::uint64_t key = corpus_key(t);
  const std::uint64_t raw_alias = key ^ 0xABCDEF;

  {
    CorpusStore store;
    store.open(dir);
    EXPECT_TRUE(store.insert(key, t, "synth_s3"));
    store.add_alias(raw_alias, key);
    EXPECT_TRUE(store.contains(raw_alias));
  }

  CorpusStore again;
  const CorpusStore::LoadReport rep = again.open(dir);
  EXPECT_EQ(rep.loaded, 1);
  EXPECT_EQ(rep.aliases, 1);
  EXPECT_TRUE(again.contains(key)) << "finding forgotten across restart";
  EXPECT_TRUE(again.contains(raw_alias)) << "alias forgotten across restart";
  EXPECT_FALSE(again.insert(key, t, "synth_s3_rediscovered")) << "rediscovery not deduped";
}

TEST(CorpusStore, MalformedEntriesAreQuarantinedNotFatal) {
  const std::string dir = fresh_dir("quarantine");
  {
    CorpusStore store;
    store.open(dir);
    store.insert(corpus_key(sample_tape(1)), sample_tape(1), "good");
  }
  // Garbage and a torn (truncated mid-write by a crashed foreign process)
  // entry land next to the good one.
  { std::ofstream(dir + "/garbage.tape") << "not a tape at all\n"; }
  const ScheduleTape good = sample_tape(2);
  {
    std::string text;
    {
      const std::string tmp = dir + "/torn_src.tmp";
      save_tape(good, tmp);
      std::ifstream in(tmp);
      text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
      fs::remove(tmp);
    }
    std::ofstream(dir + "/torn.tape") << text.substr(0, text.size() / 2);
    // Entries that threw past the TapeError catch (std::bad_alloc) or
    // overflowed the stack: a step count no text can hold, and a value
    // literal 50,000 vectors deep.
    const std::size_t steps_at = text.find("\nsteps ") + 1;
    const std::size_t steps_end = text.find('\n', steps_at);
    std::string huge = text;
    huge.replace(steps_at, steps_end - steps_at, "steps 99999999999999");
    std::ofstream(dir + "/huge_steps.tape") << huge;
    std::string deep = text;
    deep.insert(steps_at, "fd 0 1 " + std::string(50000, '[') + std::string(50000, ']') + "\n");
    std::ofstream(dir + "/deep_literal.tape") << deep;
  }

  CorpusStore store;
  const CorpusStore::LoadReport rep = store.open(dir);
  EXPECT_EQ(rep.loaded, 1);
  EXPECT_EQ(rep.quarantined, 4);
  EXPECT_EQ(store.size(), 1u);
  for (const char* name : {"garbage.tape", "torn.tape", "huge_steps.tape", "deep_literal.tape"}) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / name)) << name;
  }
  // The farm stays usable after quarantining.
  EXPECT_TRUE(store.insert(corpus_key(good), good, "after_quarantine"));
}

TEST(CorpusStore, AbsorbIndexesReadOnlySeedsWithoutMoving) {
  const std::string own = fresh_dir("absorb_own");
  const std::string seedbed = fresh_dir("absorb_seed");
  const ScheduleTape t = sample_tape(4);
  save_tape(t, seedbed + "/seeded.tape");
  { std::ofstream(seedbed + "/junk.tape") << "junk\n"; }

  CorpusStore store;
  store.open(own);
  const CorpusStore::LoadReport rep = store.absorb(seedbed);
  EXPECT_EQ(rep.loaded, 1);
  EXPECT_EQ(rep.quarantined, 1);
  EXPECT_TRUE(store.contains(corpus_key(t)));
  // The seed directory is NOT ours: nothing moved, nothing deleted.
  EXPECT_TRUE(fs::exists(seedbed + "/junk.tape"));
  EXPECT_FALSE(fs::exists(fs::path(seedbed) / "quarantine"));

  // A missing seed directory is a no-op, not an error.
  const CorpusStore::LoadReport none = store.absorb(own + "/does_not_exist");
  EXPECT_EQ(none.loaded, 0);
}

TEST(CorpusStore, UnwritableDirThrowsCorpusIoError) {
  const std::string dir = fresh_dir("unwritable");
  { std::ofstream(dir + "/blocker") << "x"; }
  CorpusStore store;
  EXPECT_THROW(store.open(dir + "/blocker/corpus"), CorpusIoError);
}

FarmOptions small_farm(const std::string& corpus_dir) {
  FarmOptions o;
  o.seed = 42;
  o.workers = 2;
  o.batch = 14;
  o.max_plans = 56;
  o.soak_interval_s = 0;  // no streaming in unit tests
  o.corpus_dir = corpus_dir;
  return o;
}

TEST(Farm, RestartWithCorpusReportsKnownFindingsAsDuplicates) {
  const std::string dir = fresh_dir("farm_resume");
  std::vector<const CampaignTarget*> targets = {find_campaign_target("cons"),
                                                find_campaign_target("synth")};
  ASSERT_NE(targets[0], nullptr);
  ASSERT_NE(targets[1], nullptr);

  const FarmStats first = run_farm(targets, small_farm(dir));
  EXPECT_EQ(first.plans, 56);
  EXPECT_GT(first.violations, 0) << "seeded-buggy target produced no findings";
  EXPECT_GT(first.novel, 0);
  EXPECT_EQ(first.clean + first.violations, first.plans);
  EXPECT_EQ(static_cast<std::int64_t>(first.corpus_size), first.novel);

  // Same seed over the persisted corpus: everything is a rediscovery.
  const FarmStats second = run_farm(targets, small_farm(dir));
  EXPECT_EQ(second.plans, first.plans);
  EXPECT_EQ(second.violations, first.violations);
  EXPECT_EQ(second.novel, 0) << "restart re-reported known findings as novel";
  EXPECT_EQ(second.duplicates, second.violations);
  EXPECT_EQ(second.corpus_seeded, static_cast<int>(first.corpus_size));
  // Raw-tape aliases make exact rediscoveries skip the shrinker entirely.
  EXPECT_EQ(second.shrunk, 0);
}

TEST(Farm, VerdictsAreDeterministicAcrossRunsAndWorkerCounts) {
  std::vector<const CampaignTarget*> targets = {find_campaign_target("synth")};
  ASSERT_NE(targets[0], nullptr);
  FarmOptions a = small_farm("");
  FarmOptions b = small_farm("");
  b.workers = 5;
  b.batch = 7;
  const FarmStats ra = run_farm(targets, a);
  const FarmStats rb = run_farm(targets, b);
  EXPECT_EQ(ra.plans, rb.plans);
  EXPECT_EQ(ra.clean, rb.clean);
  EXPECT_EQ(ra.violations, rb.violations);
  EXPECT_EQ(ra.total_steps, rb.total_steps);
  EXPECT_EQ(ra.coverage_sigs, rb.coverage_sigs);
}

TEST(Farm, OneShotAndFarmAgreeOnPlanVerdicts) {
  // The farm executes the SAME (plan_seed, plan) stream as run_campaign
  // (campaign_plan_seed + FaultPlan::sample), so with mutation off their
  // clean/violation split must be identical.
  const CampaignTarget* t = find_campaign_target("bcf");
  ASSERT_NE(t, nullptr);
  FarmOptions fo = small_farm("");
  fo.mutate = false;
  fo.max_plans = 30;
  fo.shrink = false;
  const FarmStats farm = run_farm({t}, fo);

  CampaignOptions co;
  co.seed = fo.seed;
  co.plans = 30;
  co.shrink = false;
  co.save_dir = "";
  const CampaignRun shot = run_campaign(*t, co);
  EXPECT_EQ(farm.clean, shot.clean_plans);
  EXPECT_EQ(farm.violations, static_cast<std::int64_t>(shot.violations.size()));
  EXPECT_EQ(farm.total_steps, shot.total_steps);
}

TEST(Farm, StopFlagDrainsGracefully) {
  std::vector<const CampaignTarget*> targets = {find_campaign_target("cons")};
  ASSERT_NE(targets[0], nullptr);
  std::atomic<bool> stop{true};  // raised before the first batch
  FarmOptions o = small_farm("");
  o.max_plans = 0;
  o.stop = &stop;
  const FarmStats r = run_farm(targets, o);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.plans, 0);
}

// The simulator's integer mixers (the splitmix64 finalizer and generator
// step, FNV-1a over a string), read through the public functions built on
// them. Tapes, corpus keys and plan seeds persist these values, so each one
// is pinned to the value it had before the mixers moved into one header.
TEST(GoldenHash, MixersAndTheirCallersAreBitStable) {
  // cell_content_hash(x, 0) is the bare splitmix64 finalizer, and
  // cell_content_hash(0, 1) finalizes 0x9E3779B97F4A7C15: the first output
  // of splitmix64 seeded 0 (reference vector).
  EXPECT_EQ(cell_content_hash(0, 1), 0xE220A8397B1DCDAFULL);
  // campaign_plan_seed(0, name, -1) finalizes FNV-1a(name): FNV-1a("a") is
  // 0xAF63DC4C8601EC8C (reference vector).
  EXPECT_EQ(campaign_plan_seed(0, "a", -1), cell_content_hash(0xAF63DC4C8601EC8CULL, 0));
  // Register name hashes are FNV-1a from the interner's own offset basis.
  EXPECT_EQ(RegAddr("a").name_hash(), 0x44BD8AD473CD9906ULL);

  EXPECT_EQ(campaign_plan_seed(42, "cons", 3), 0x960CBCEDBCBFDDB9ULL);
  EXPECT_EQ(corpus_key(sample_tape(1)), 0xB8B09627908EF95BULL);

  // A fixed world that runs through the remaining mixers: a sampled failure
  // pattern, noisy advice under a lying wrapper, a random schedule, a
  // sampled fault plan, and the register file's content hash.
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  const Scenario* sc = find_scenario(t->scenario);
  ASSERT_NE(sc, nullptr);
  const FailurePattern f = Environment(t->num_s, t->num_s - 1).sample(5, 1, 40);
  const DetectorPtr lying = std::make_shared<LyingFd>(t->advice(), 60);
  World w = sc->make_world(f, lying->history(f, 42));
  RandomScheduler sched(9);
  (void)drive(w, sched, 300);
  EXPECT_EQ(w.state_hash(), 0xE08D2E4CF3B3C2F4ULL);
  EXPECT_EQ(FaultPlan::sample(campaign_plan_seed(42, "cons", 3), t->space).to_string(),
            "plan-v1; burst 141 208 p1");
}

}  // namespace
}  // namespace efd
