// Tests for the campaign engine (core/campaign.hpp): determinism, clean
// verdicts for the paper algorithms, guaranteed catches for the seeded-buggy
// variants, tape/shrink integration, and the efd-campaign-v1 JSON document.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/repro_scenarios.hpp"
#include "sim/hash.hpp"
#include "sim/replay.hpp"

namespace efd {
namespace {

CampaignOptions small_opts() {
  CampaignOptions o;
  o.seed = 42;
  o.plans = 12;
  o.save_dir = "";  // keep unit tests filesystem-free
  return o;
}

TEST(Campaign, TargetRegistryIsWellFormed) {
  std::set<std::string> names;
  int clean = 0;
  int buggy = 0;
  for (const auto& t : campaign_targets()) {
    EXPECT_TRUE(names.insert(t.name).second) << "duplicate target " << t.name;
    EXPECT_NE(find_scenario(t.scenario), nullptr) << t.name;
    EXPECT_TRUE(static_cast<bool>(t.advice)) << t.name;
    EXPECT_TRUE(static_cast<bool>(t.make_sched)) << t.name;
    (t.expect_clean ? clean : buggy)++;
  }
  EXPECT_GE(clean, 3);   // the paper algorithms under campaign
  EXPECT_GE(buggy, 3);   // the seeded-buggy variants the campaign must catch
  EXPECT_EQ(find_campaign_target("cons")->scenario, "cons_leader_crash_commit");
  EXPECT_EQ(find_campaign_target("no-such-target"), nullptr);
}

TEST(Campaign, CorrectAlgorithmsSurviveAllPlans) {
  for (const char* name : {"cons", "ren", "p1c"}) {
    const CampaignTarget* t = find_campaign_target(name);
    ASSERT_NE(t, nullptr);
    const CampaignRun r = run_campaign(*t, small_opts());
    EXPECT_TRUE(r.verdict_ok()) << name;
    EXPECT_EQ(r.clean_plans, r.plans) << name;
    EXPECT_TRUE(r.violations.empty()) << name;
    EXPECT_GT(r.total_steps, 0) << name;
    EXPECT_GT(r.monitored_steps, 0) << name;
  }
}

TEST(Campaign, SeededBuggyVariantsAreCaughtAndShrunk) {
  for (const char* name : {"synth", "bcf", "brn"}) {
    const CampaignTarget* t = find_campaign_target(name);
    ASSERT_NE(t, nullptr);
    CampaignOptions o = small_opts();
    o.plans = 20;
    const CampaignRun r = run_campaign(*t, o);
    EXPECT_TRUE(r.verdict_ok()) << name;
    ASSERT_GE(r.safety_violations(), 1) << name;
    for (const auto& v : r.violations) {
      if (!v.safety) continue;
      EXPECT_GT(v.tape_steps, 0) << name;
      ASSERT_GT(v.shrunk_steps, 0) << name;
      EXPECT_LE(v.shrunk_steps, v.tape_steps) << name;
      EXPECT_TRUE(v.shrunk_replay_ok) << name << " seed " << v.plan_seed;
      // The plan line is valid plan-v1 provenance.
      EXPECT_NO_THROW((void)FaultPlan::parse(v.plan)) << v.plan;
    }
  }
}

TEST(Campaign, RunsAreDeterministic) {
  const CampaignTarget* t = find_campaign_target("bcf");
  ASSERT_NE(t, nullptr);
  const CampaignRun a = run_campaign(*t, small_opts());
  const CampaignRun b = run_campaign(*t, small_opts());
  EXPECT_EQ(a.clean_plans, b.clean_plans);
  EXPECT_EQ(a.total_steps, b.total_steps);
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].plan_seed, b.violations[i].plan_seed);
    EXPECT_EQ(a.violations[i].plan, b.violations[i].plan);
    EXPECT_EQ(a.violations[i].tape_steps, b.violations[i].tape_steps);
    EXPECT_EQ(a.violations[i].shrunk_steps, b.violations[i].shrunk_steps);
  }
}

TEST(Campaign, MonitorsOffSkipsLivenessAccounting) {
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  CampaignOptions o = small_opts();
  o.plans = 3;
  o.monitors = false;
  const CampaignRun r = run_campaign(*t, o);
  EXPECT_TRUE(r.verdict_ok());
  EXPECT_EQ(r.monitored_steps, 0);
  EXPECT_EQ(r.wait_free_violations(), 0);
}

TEST(Campaign, JsonDocumentHasCampaignSchema) {
  const CampaignTarget* t = find_campaign_target("synth");
  ASSERT_NE(t, nullptr);
  CampaignOptions o = small_opts();
  o.plans = 6;
  std::vector<CampaignRun> runs;
  runs.push_back(run_campaign(*t, o));
  const telemetry::Json doc = campaign_json(runs, o);
  EXPECT_EQ(doc.find("schema")->as_string(), "efd-campaign-v1");
  ASSERT_EQ(doc.find("targets")->size(), 1u);
  const telemetry::Json& target = doc.find("targets")->at(0);
  EXPECT_EQ(target.find("target")->as_string(), "synth");
  EXPECT_NE(target.find("plan_mix"), nullptr);
  ASSERT_NE(target.find("violation_list"), nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(target.find("violation_list")->size()),
            target.find("violations")->as_int());
}

// Regression: plan seeds were derived from the plan INDEX alone, so every
// target swept the same plan sequence (perfectly correlated coverage) and
// two targets' tapes could collide on the same save stem. The seed mix must
// fold the target name.
TEST(Campaign, PlanSeedsDifferAcrossTargets) {
  int collisions = 0;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t a = campaign_plan_seed(42, "cons", i);
    const std::uint64_t b = campaign_plan_seed(42, "ksa", i);
    const std::uint64_t c = campaign_plan_seed(42, "synth", i);
    if (a == b || b == c || a == c) ++collisions;
    // Same target, same index: stable.
    EXPECT_EQ(a, campaign_plan_seed(42, "cons", i));
  }
  EXPECT_EQ(collisions, 0);

  // And the sampled PLANS differ too, not just the seeds.
  const CampaignTarget* cons = find_campaign_target("cons");
  const CampaignTarget* ksa = find_campaign_target("ksa");
  ASSERT_NE(cons, nullptr);
  ASSERT_NE(ksa, nullptr);
  int distinct = 0;
  for (int i = 0; i < 16; ++i) {
    const FaultPlan pa =
        FaultPlan::sample(campaign_plan_seed(42, "cons", i), cons->space);
    const FaultPlan pb =
        FaultPlan::sample(campaign_plan_seed(42, "ksa", i), ksa->space);
    if (pa.to_string() != pb.to_string()) ++distinct;
  }
  EXPECT_GT(distinct, 8);
}

// Regression: violation tapes carried no record of WHY they were kept — a
// wait-freedom-only finding saved with expect_violated=false was
// indistinguishable from a mislabeled clean run. run_plan must stamp the
// monitor verdict into the tape's finding line, and it must round-trip.
TEST(Campaign, SafetyFindingsStampFindingProvenance) {
  const CampaignTarget* t = find_campaign_target("synth");
  ASSERT_NE(t, nullptr);
  bool found = false;
  for (int i = 0; i < 40 && !found; ++i) {
    const std::uint64_t seed = campaign_plan_seed(42, t->name, i);
    const PlanOutcome out = run_plan(*t, FaultPlan::sample(seed, t->space), seed, true);
    if (!out.safety) continue;
    found = true;
    EXPECT_TRUE(out.tape.finding == "safety" || out.tape.finding == "safety+wait-free")
        << out.tape.finding;
    EXPECT_EQ(out.tape.expect_violated, std::optional<bool>(true));
    // Serialization round-trips the finding line.
    const ScheduleTape back = ScheduleTape::parse(out.tape.serialize());
    EXPECT_EQ(back.finding, out.tape.finding);
  }
  EXPECT_TRUE(found) << "synth produced no safety finding in 40 plans";
}

TEST(Campaign, WaitFreeOnlyFindingsAreStampedAndKept) {
  // A correct algorithm with an absurdly tight wait-freedom bound: the
  // monitor fires with NO safety violation, and the tape must say so.
  CampaignTarget t = *find_campaign_target("cons");
  t.bounds.own_steps_to_decide = 1;
  bool found = false;
  for (int i = 0; i < 20 && !found; ++i) {
    const std::uint64_t seed = campaign_plan_seed(7, t.name, i);
    const PlanOutcome out = run_plan(t, FaultPlan{}, seed, true);
    if (!out.wait_free_bad || out.safety) continue;
    found = true;
    EXPECT_EQ(out.tape.finding, "wait-free");
    // The safety predicate did NOT fire: replay will report "ok, as
    // expected" — the finding line is what marks it a liveness finding.
    EXPECT_EQ(out.tape.expect_violated, std::optional<bool>(false));
    EXPECT_FALSE(out.detail.empty());
  }
  EXPECT_TRUE(found) << "tight bound produced no wait-freedom finding";
}

TEST(Campaign, FindingTapesArePinned) {
  // What run_plan records on a violation, byte for byte, as
  // Replay.RecordedTapesArePinned does for the scenario recorders: FNV-1a of
  // the serialized tape of the first two violating plans of each seeded-bug
  // target at campaign seed 42 (mpfm_raw's carry link charges and the
  // message substrate), plus the first two wait-freedom findings of cons
  // under a one-step bound.
  const std::vector<std::string> want = {
      "synth plan 0 safety 0x2FF0EE79C4960A8A",
      "synth plan 1 safety 0x06516EE03D9249CE",
      "bcf plan 2 safety 0xB88DE27A94E5091E",
      "bcf plan 4 safety 0x2C0E99926050B015",
      "brn plan 0 safety 0x9496FCBF5D49FED8",
      "brn plan 1 safety 0x5425BB1EB230D8F6",
      "tw plan 15 safety 0x2A42528C856E9F3E",
      "tw plan 19 safety 0xD8EFBC9CFD59C771",
      "mpfm_raw plan 260 safety 0xFF3E2F9672B1AB4F",
      "mpfm_raw plan 532 safety 0xAC61E21815590EA0",
      "cons plan 177 wait-free 0x564002FFFC5CF2B7",
      "cons plan 225 wait-free 0xC44A312B01474A0C",
  };
  std::vector<std::string> got;
  for (const char* name : {"synth", "bcf", "brn", "tw", "mpfm_raw", "cons"}) {
    CampaignTarget t = *find_campaign_target(name);
    if (t.expect_clean) t.bounds.own_steps_to_decide = 1;
    int found = 0;
    for (int i = 0; i < 600 && found < 2; ++i) {
      const std::uint64_t seed = campaign_plan_seed(42, t.name, i);
      const PlanOutcome out = run_plan(t, FaultPlan::sample(seed, t.space), seed, true);
      if (!out.violated()) continue;
      ++found;
      char fnv[19];
      std::snprintf(fnv, sizeof fnv, "0x%016llX",
                    static_cast<unsigned long long>(fnv1a(out.tape.serialize())));
      got.push_back(t.name + " plan " + std::to_string(i) + " " + out.tape.finding + " " + fnv);
    }
  }
  EXPECT_EQ(got, want);
}

// Regression: plan text reaches run_plan unclamped (serve --queue), and the
// monitor bounds were widened by the burst lengths with plain adds, so a
// burst near INT64_MAX overflowed them (UBSan). Saturated, the starved
// victim is never flagged.
TEST(Campaign, HugeBurstSaturatesMonitorBounds) {
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  const FaultPlan plan = FaultPlan::parse("plan-v1; burst 5 9223372036854775807 p1");
  const PlanOutcome out = run_plan(*t, plan, campaign_plan_seed(42, t->name, 0), true);
  EXPECT_FALSE(out.wait_free_bad) << out.detail;
  EXPECT_EQ(out.starvation_observations, 0);
}

// Regression: run_plan widened the monitor bounds by 2x and 4x the advice's
// stabilization time, and the lying detector spans its lies over GST +
// inner stabilization + 8, all with plain arithmetic, so an fd GST near
// INT64_MAX overflowed (UBSan). Saturated, the bounds never flag the run.
// The farm mutates such a plan once it reaches new coverage, so the other
// huge parsed values must survive run_plan and mutate too.
TEST(Campaign, HugePlanValuesSaturate) {
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  for (const char* text :
       {"plan-v1; fd lying 9223372036854775807 3", "plan-v1; fd omissive 9223372036854775807 3",
        "plan-v1; fd stuttering 9223372036854775807 3", "plan-v1; burst 5 9223372036854775807 p1",
        "plan-v1; burst 9223372036854775807 1 p1", "plan-v1; storm 9223372036854775807 0"}) {
    const FaultPlan plan = FaultPlan::parse(text);
    const PlanOutcome out = run_plan(*t, plan, campaign_plan_seed(42, t->name, 0), true);
    EXPECT_FALSE(out.violated()) << text << ": " << out.detail;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
      const FaultPlan m = plan.mutate(seed, t->space);
      ASSERT_EQ(FaultPlan::parse(m.to_string()), m) << text << ", seed " << seed;
    }
  }
}

// Regression: the save-dir was (re-)created inside the per-violation loop
// with the failure ignored — an unwritable directory silently dropped every
// tape. It must be checked once, up front, with a typed error.
TEST(Campaign, UnwritableSaveDirFailsUpFront) {
  const CampaignTarget* t = find_campaign_target("cons");
  ASSERT_NE(t, nullptr);
  CampaignOptions o = small_opts();
  o.plans = 1;
  const std::string blocker =
      (std::filesystem::path(::testing::TempDir()) / "efd_campaign_blocker").string();
  std::ofstream(blocker) << "x";
  o.save_dir = blocker + "/pending";
  EXPECT_THROW((void)run_campaign(*t, o), CorpusIoError);
}

// Satellite of the fault-campaign issue: every campaign algorithm's safety
// checker must reject a KNOWN-BAD world — the checkers themselves are under
// test, not just the algorithms. Each scenario's `violated` predicate gets a
// seeded plan/schedule reproducing its canonical violation.
TEST(Campaign, SafetyCheckersRejectKnownBadRuns) {
  for (const char* name :
       {"synth_write_race", "buggy_cons_first_writer", "buggy_ren_stale_claim"}) {
    const Scenario* sc = find_scenario(name);
    ASSERT_NE(sc, nullptr);
    // The native recordings of the buggy scenarios are violating runs.
    bool found = false;
    for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
      const ScheduleTape tape = sc->record(seed);
      found = tape.expect_violated.value_or(false);
    }
    EXPECT_TRUE(found) << name << ": no violating recording in 40 seeds";
  }
  // buggy_torn_commit needs its fault plan (writer killed mid-pair).
  const Scenario* tw = find_scenario("buggy_torn_commit");
  ASSERT_NE(tw, nullptr);
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    found = tw->record(seed).expect_violated.value_or(false);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace efd
