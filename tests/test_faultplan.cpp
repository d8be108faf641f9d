// Tests for fault plans (sim/faultplan.hpp): serialization round-trips,
// deterministic sampling inside the target space, burst suppression, and
// online trigger/storm resolution in the drive loop (FaultPlan::drive_faults).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/repro_scenarios.hpp"
#include "fd/detectors.hpp"
#include "sim/faultplan.hpp"
#include "sim/hash.hpp"
#include "sim/replay.hpp"
#include "sim/trace.hpp"

namespace efd {
namespace {

Proc spin(Context& ctx) {
  for (;;) co_await ctx.yield();
}

Proc s_writer(Context& ctx) {
  const RegAddr a{"acc/X"};
  for (std::int64_t e = 1;; ++e) {
    co_await ctx.write(a, Value(e));
    co_await ctx.yield();
  }
}

FaultPlan::Space small_space() {
  FaultPlan::Space sp;
  sp.num_s = 3;
  sp.num_c = 2;
  sp.horizon = 300;
  sp.max_crashes = 2;
  sp.trigger_prefixes = {"acc/"};
  sp.allow_fd_faults = true;
  sp.max_gst = 40;
  sp.max_bursts = 2;
  sp.max_burst_len = 30;
  return sp;
}

TEST(FaultPlan, ToStringParseRoundTrip) {
  const FaultPlan::Space sp = small_space();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan plan = FaultPlan::sample(seed, sp);
    const FaultPlan back = FaultPlan::parse(plan.to_string());
    ASSERT_EQ(back, plan) << "seed " << seed << ": " << plan.to_string();
  }
}

TEST(FaultPlan, ParseRejectsMalformedText) {
  EXPECT_THROW(FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("plan-v2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("plan-v1; storm 12"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("plan-v1; fd sneaky 10 8"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("plan-v1; trig acc/ scribble 1 1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("plan-v1; burst 5 10 x9"), std::invalid_argument);
  // One past int's range: rejected, not wrapped to q1.
  EXPECT_THROW(FaultPlan::parse("plan-v1; burst 0 1 q4294967297"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("plan-v1; frobnicate 1"), std::invalid_argument);
}

TEST(FaultPlan, SamplingIsDeterministicAndInSpace) {
  const FaultPlan::Space sp = small_space();
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan a = FaultPlan::sample(seed, sp);
    const FaultPlan b = FaultPlan::sample(seed, sp);
    ASSERT_EQ(a, b);
    ASSERT_LE(static_cast<int>(a.storm.size() + a.triggers.size()), sp.max_crashes);
    ASSERT_LE(static_cast<int>(a.bursts.size()), sp.max_bursts);
    for (const auto& c : a.storm) {
      ASSERT_GE(c.s_index, 0);
      ASSERT_LT(c.s_index, sp.num_s);
      ASSERT_LT(c.step_index, sp.horizon);
    }
    for (const auto& t : a.triggers) {
      ASSERT_EQ(t.reg_prefix, "acc/");
      ASSERT_GE(t.delay, 1);
      ASSERT_GE(t.occurrence, 1);
    }
    for (const auto& b2 : a.bursts) {
      ASSERT_GE(b2.length, 1);
      ASSERT_LE(b2.length, sp.max_burst_len);
    }
    if (a.fd.kind != FdFaultKind::kNone) {
      ASSERT_GE(a.fd.gst, 1);
      ASSERT_LE(a.fd.gst, sp.max_gst);
    }
  }
}

TEST(FaultPlan, NoFdFaultsWhenDisallowed) {
  FaultPlan::Space sp = small_space();
  sp.allow_fd_faults = false;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    EXPECT_EQ(FaultPlan::sample(seed, sp).fd.kind, FdFaultKind::kNone);
  }
}

void expect_in_space(const FaultPlan& p, const FaultPlan::Space& sp, std::uint64_t seed) {
  ASSERT_LE(static_cast<int>(p.storm.size() + p.triggers.size()), sp.max_crashes)
      << "seed " << seed;
  ASSERT_LE(static_cast<int>(p.bursts.size()), sp.max_bursts) << "seed " << seed;
  for (const auto& c : p.storm) {
    ASSERT_GE(c.s_index, 0) << "seed " << seed;
    ASSERT_LT(c.s_index, sp.num_s) << "seed " << seed;
    ASSERT_GE(c.step_index, 0) << "seed " << seed;
    ASSERT_LT(c.step_index, sp.horizon) << "seed " << seed;
  }
  for (const auto& t : p.triggers) {
    ASSERT_GE(t.delay, 1) << "seed " << seed;
    ASSERT_GE(t.occurrence, 1) << "seed " << seed;
  }
  if (p.fd.kind != FdFaultKind::kNone) {
    ASSERT_TRUE(sp.allow_fd_faults) << "seed " << seed;
    ASSERT_GE(p.fd.gst, 1) << "seed " << seed;
    ASSERT_LE(p.fd.gst, sp.max_gst) << "seed " << seed;
  }
  for (const auto& b : p.bursts) {
    ASSERT_GE(b.start_step, 0) << "seed " << seed;
    ASSERT_LT(b.start_step, sp.horizon) << "seed " << seed;
    ASSERT_GE(b.length, 1) << "seed " << seed;
    ASSERT_LE(b.length, sp.max_burst_len) << "seed " << seed;
  }
  for (const auto& l : p.links) {
    ASSERT_GE(l.step, 0) << "seed " << seed;
    ASSERT_LT(l.step, sp.horizon) << "seed " << seed;
  }
}

TEST(FaultPlan, MutationIsDeterministicAndStaysInSpace) {
  const FaultPlan::Space sp = small_space();
  int changed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan base = FaultPlan::sample(seed, sp);
    const FaultPlan m1 = base.mutate(seed + 1000, sp);
    const FaultPlan m2 = base.mutate(seed + 1000, sp);
    ASSERT_EQ(m1, m2) << "seed " << seed;
    expect_in_space(m1, sp, seed);
    if (m1 != base) ++changed;
    // Mutants stay serializable provenance.
    ASSERT_EQ(FaultPlan::parse(m1.to_string()), m1) << m1.to_string();
  }
  // Mutation must actually move through the space, not fixpoint.
  EXPECT_GT(changed, 150);
}

// Regression: plan text parses unclamped, and mutate jittered steps,
// doubled the GST and widened burst lengths with plain arithmetic, so parsed
// values near INT64_MAX overflowed (UBSan) before the re-clamp. Saturated,
// every mutant clamps back into the space.
TEST(FaultPlan, MutationOfHugeValuesSaturates) {
  FaultPlan::Space sp = small_space();
  sp.max_link_actions = 2;  // MP dimensions, so link steps are jittered too
  sp.mp_senders = 2;
  sp.mp_mailboxes = 2;
  for (const char* text :
       {"plan-v1; fd lying 9223372036854775807 3", "plan-v1; burst 5 9223372036854775807 p1",
        "plan-v1; burst 9223372036854775807 1 p1", "plan-v1; storm 9223372036854775807 0",
        "plan-v1; link drop 9223372036854775807 0 1 1"}) {
    const FaultPlan base = FaultPlan::parse(text);
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
      SCOPED_TRACE(text);
      expect_in_space(base.mutate(seed, sp), sp, seed);
    }
  }
}

TEST(FaultPlan, MutationRespectsTightenedCaps) {
  FaultPlan::Space wide = small_space();
  FaultPlan::Space tight = small_space();
  tight.max_crashes = 1;
  tight.max_bursts = 1;
  tight.max_gst = 5;
  tight.allow_fd_faults = false;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FaultPlan base = FaultPlan::sample(seed, wide);
    const FaultPlan m = base.mutate(seed, tight);
    expect_in_space(m, tight, seed);
    EXPECT_EQ(m.fd.kind, FdFaultKind::kNone) << "seed " << seed;
  }
}

TEST(FaultPlan, PlanStreamsArePinned) {
  // The exact plans sample, mutate and splice draw, byte for byte: FNV-1a
  // over the to_string() of each target's first 64 seed-42 plans, their
  // mutants (of the plan and of the empty plan, so both the perturb and the
  // seed-a-fresh-element branches run) and their splices with the previous
  // plan. A refactor that reorders one RNG call moves these values.
  const std::vector<std::string> want = {
      "cons 0x155E4059BB273929",     "ksa 0x8DC56515C1C35A14",
      "ren 0x21A962259587D5C3",      "p1c 0x79BA0E11F65B3336",
      "synth 0xC43D1A0382512D5A",    "bcf 0x4F9BA1370EFA9CCD",
      "brn 0x252F506AD2018000",      "tw 0xB05D5309FCD50E74",
      "mpfm_raw 0xB0C8968272F0EFF0", "mpfm_rt 0x8FE81FBD8D614C32",
  };
  std::vector<std::string> got;
  for (const CampaignTarget& t : campaign_targets()) {
    std::string text;
    FaultPlan prev;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t seed = campaign_plan_seed(42, t.name, i);
      const FaultPlan plan = FaultPlan::sample(seed, t.space);
      text += plan.to_string() + "\n";
      text += plan.mutate(seed, t.space).to_string() + "\n";
      text += FaultPlan{}.mutate(seed, t.space).to_string() + "\n";
      text += FaultPlan::splice(plan, prev, seed, t.space).to_string() + "\n";
      prev = plan;
    }
    char fnv[19];
    std::snprintf(fnv, sizeof fnv, "0x%016llX", static_cast<unsigned long long>(fnv1a(text)));
    got.push_back(t.name + " " + fnv);
  }
  EXPECT_EQ(got, want);
}

TEST(FaultPlan, SpliceIsDeterministicAndStaysInSpace) {
  const FaultPlan::Space sp = small_space();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const FaultPlan a = FaultPlan::sample(seed, sp);
    const FaultPlan b = FaultPlan::sample(seed + 7, sp);
    const FaultPlan s1 = FaultPlan::splice(a, b, seed, sp);
    const FaultPlan s2 = FaultPlan::splice(a, b, seed, sp);
    ASSERT_EQ(s1, s2) << "seed " << seed;
    expect_in_space(s1, sp, seed);
    // The crossover carries a's crash faults (clamped) and b's FD fault.
    if (s1.fd.kind != FdFaultKind::kNone) {
      EXPECT_EQ(s1.fd.kind, b.fd.kind) << "seed " << seed;
    }
    ASSERT_EQ(FaultPlan::parse(s1.to_string()), s1) << s1.to_string();
  }
}

TEST(BurstScheduler, SuppressesVictimInsideWindow) {
  World w = World::failure_free(0);
  w.spawn_c(0, spin);
  w.spawn_c(1, spin);
  RoundRobinScheduler rr;
  BurstScheduler bs(rr, {StarvationBurst{2, 4, cpid(0)}});
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    const auto pid = bs.next(w);
    ASSERT_TRUE(pid.has_value());
    order.push_back(pid->index);
    w.step(*pid);
  }
  for (int i = 2; i < 6; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 1) << "step " << i;
  // Outside the window round-robin resumes, so p1 still runs.
  EXPECT_TRUE(std::count(order.begin(), order.end(), 0) > 0);
}

TEST(BurstScheduler, HugeLengthSuppressesVictimWithoutOverflow) {
  // Parsed plan text is unclamped: start + length must not be computed.
  const FaultPlan plan = FaultPlan::parse("plan-v1; burst 5 9223372036854775807 p1");
  World w = World::failure_free(0);
  w.spawn_c(0, spin);
  w.spawn_c(1, spin);
  RoundRobinScheduler rr;
  BurstScheduler bs(rr, plan.bursts);
  for (int i = 0; i < 40; ++i) {
    const auto pid = bs.next(w);
    ASSERT_TRUE(pid.has_value());
    if (i >= 5) {
      EXPECT_EQ(*pid, cpid(1)) << "step " << i;
    }
    w.step(*pid);
  }
}

TEST(BurstScheduler, YieldsWhenInnerInsists) {
  // One process only: the inner scheduler can never propose anyone else, so
  // the burst must yield instead of stalling the world.
  World w = World::failure_free(0);
  w.spawn_c(0, spin);
  RoundRobinScheduler rr;
  BurstScheduler bs(rr, {StarvationBurst{0, 5, cpid(0)}});
  for (int i = 0; i < 5; ++i) {
    const auto pid = bs.next(w);
    ASSERT_TRUE(pid.has_value());
    EXPECT_EQ(*pid, cpid(0));
    w.step(*pid);
  }
}

TEST(DriveWithPlan, StormCrashesAtItsStepIndex) {
  FailurePattern base(2);
  World w(base, TrivialFd{}.history(base, 0));
  w.spawn_s(0, s_writer);
  w.spawn_s(1, spin);
  RoundRobinScheduler rr;
  FaultPlan plan;
  plan.storm.push_back(CrashPoint{4, 0});
  const PlanDriveResult r = drive_with_faults(w, rr, 20, plan.drive_faults());
  EXPECT_TRUE(r.drive.budget_exhausted);
  ASSERT_EQ(r.applied.size(), 1U);
  EXPECT_EQ(r.applied[0], (CrashPoint{4, 0}));
  ASSERT_EQ(r.applied_at.size(), 1U);
  EXPECT_FALSE(w.alive(spid(0)));
  EXPECT_TRUE(w.alive(spid(1)));
}

TEST(DriveWithPlan, TriggerKillsMatchingWriterAfterDelay) {
  FailurePattern base(2);
  World w(base, TrivialFd{}.history(base, 0));
  w.spawn_s(0, s_writer);  // writes acc/X every other step
  w.spawn_s(1, spin);
  RoundRobinScheduler rr;
  FaultPlan plan;
  plan.triggers.push_back(CrashTrigger{"acc/", OpKind::kWrite, 2, 2});
  const PlanDriveResult r = drive_with_faults(w, rr, 40, plan.drive_faults());
  EXPECT_EQ(r.triggers_fired, 1);
  ASSERT_EQ(r.applied.size(), 1U);
  EXPECT_EQ(r.applied[0].s_index, 0);
  EXPECT_FALSE(w.alive(spid(0)));
  // Round-robin over q1, q2: q1's writes land at steps 0, 2 (yield), 4...
  // Write ops at step indices 0 and 4; the 2nd match at step 4 arms a kill
  // at step 4 - 1 + 2 = 5... the exact index is an implementation detail,
  // but it must be AFTER the second write and within the delay.
  EXPECT_GE(r.applied[0].step_index, 4);
  EXPECT_LE(r.applied[0].step_index, 7);
}

TEST(DriveWithPlan, AppliedPointsReplayIdentically) {
  // The applied crash points must reproduce the exact same run when fed
  // back as plain crash points — that is what makes campaign tapes
  // self-contained.
  FaultPlan plan;
  plan.triggers.push_back(CrashTrigger{"acc/", OpKind::kWrite, 1, 1});
  plan.storm.push_back(CrashPoint{9, 1});

  FailurePattern base(2);
  World w1(base, TrivialFd{}.history(base, 0));
  w1.spawn_s(0, s_writer);
  w1.spawn_s(1, spin);
  w1.enable_trace();
  RoundRobinScheduler rr1;
  const PlanDriveResult r1 = drive_with_faults(w1, rr1, 30, plan.drive_faults());

  World w2(base, TrivialFd{}.history(base, 0));
  w2.spawn_s(0, s_writer);
  w2.spawn_s(1, spin);
  w2.enable_trace();
  RoundRobinScheduler rr2;
  const PlanDriveResult r2 = drive_with_faults(w2, rr2, 30, {.crashes = r1.applied});

  EXPECT_EQ(r1.drive.steps, r2.drive.steps);
  EXPECT_EQ(trace_hash(w1.trace()), trace_hash(w2.trace()));
}

TEST(DriveWithPlan, FaultsTheWorldCannotTakeAreSkipped) {
  // A plan may be wider than its world. A fault the world cannot take is
  // skipped: it is absent from applied / applied_links and leaves the run
  // exactly as the same drive without it.
  const auto register_drive = [](const FaultPlan& plan) {
    FailurePattern base(2);
    World w(base, TrivialFd{}.history(base, 0));
    w.spawn_s(0, s_writer);
    w.spawn_s(1, spin);
    w.enable_trace();
    RoundRobinScheduler rr;
    const PlanDriveResult r = drive_with_faults(w, rr, 30, plan.drive_faults());
    return std::pair{r, trace_hash(w.trace())};
  };
  FaultPlan kill;
  kill.storm.push_back(CrashPoint{4, 0});
  const auto [kill_r, kill_hash] = register_drive(kill);
  ASSERT_EQ(kill_r.applied, (std::vector<CrashPoint>{{4, 0}}));

  FaultPlan out_of_range = kill;  // the world has q1 and q2 only
  out_of_range.storm.push_back(CrashPoint{6, 2});
  FaultPlan second_kill = kill;  // q1 is down since step 4
  second_kill.storm.push_back(CrashPoint{9, 0});
  FaultPlan register_link = kill;  // a register world has no links
  register_link.links.push_back(LinkAction{LinkFaultKind::kDrop, 0, 0, 1, 1});
  for (const FaultPlan& plan : {out_of_range, second_kill, register_link}) {
    const auto [r, hash] = register_drive(plan);
    EXPECT_EQ(r.applied, kill_r.applied) << plan.to_string();
    EXPECT_TRUE(r.applied_links.empty()) << plan.to_string();
    EXPECT_EQ(r.drive.steps, kill_r.drive.steps) << plan.to_string();
    EXPECT_EQ(hash, kill_hash) << plan.to_string();
  }

  // ch[7][7] beside a link the 3x3 FloodMin world does have.
  const Scenario* sc = find_scenario("mp_floodmin_clean");
  ASSERT_NE(sc, nullptr);
  const auto mp_drive = [sc](const FaultPlan& plan) {
    const FailurePattern base(9);
    World w = sc->make_world(base, TrivialFd{}.history(base, 0));
    w.enable_trace();
    RandomScheduler rs(1);
    const PlanDriveResult r = drive_with_faults(w, rs, 4000, plan.drive_faults());
    return std::pair{r, trace_hash(w.trace())};
  };
  FaultPlan drop;
  drop.links.push_back(LinkAction{LinkFaultKind::kDrop, 0, 0, 1, 1});
  const auto [drop_r, drop_hash] = mp_drive(drop);
  ASSERT_EQ(drop_r.applied_links.size(), 1U);
  FaultPlan unknown_link = drop;
  unknown_link.links.push_back(LinkAction{LinkFaultKind::kDrop, 0, 7, 7, 1});
  const auto [r, hash] = mp_drive(unknown_link);
  EXPECT_EQ(r.applied_links, drop_r.applied_links);
  EXPECT_TRUE(r.applied.empty());
  EXPECT_EQ(r.drive.steps, drop_r.drive.steps);
  EXPECT_EQ(hash, drop_hash);
}

TEST(RehearseKills, LandsTheSameKillsAsTheFullDrive) {
  // Every plan with a storm or trigger among the first 64 seed-42 plans of
  // each campaign target, rehearsed as run_plan builds it: once to the
  // drive's ordinary stop, once stopping when no kill can still land.
  int shorter_cons = 0;
  for (const CampaignTarget& target : campaign_targets()) {
    const Scenario* sc = find_scenario(target.scenario);
    ASSERT_NE(sc, nullptr) << target.name;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t seed = campaign_plan_seed(42, target.name, i);
      const FaultPlan plan = FaultPlan::sample(seed, target.space);
      if (plan.storm.empty() && plan.triggers.empty()) continue;
      const auto rehearse = [&](auto&& entry) {
        const FailurePattern base(target.num_s);
        const DetectorPtr advice = plan.corrupt(target.advice());
        World w = sc->make_world(base, advice->history(base, seed));
        const auto inner = target.make_sched(seed);
        BurstScheduler bursts(*inner, plan.bursts);
        return entry(w, bursts, target.max_steps, plan.drive_faults());
      };
      const PlanDriveResult full = rehearse(drive_with_faults);
      const PlanDriveResult cut = rehearse(rehearse_kills);
      EXPECT_EQ(cut.applied, full.applied) << target.name << " " << plan.to_string();
      EXPECT_EQ(cut.applied_at, full.applied_at) << target.name << " " << plan.to_string();
      EXPECT_LE(cut.drive.steps, full.drive.steps) << target.name << " " << plan.to_string();
      if (target.name == "cons" && cut.drive.steps < full.drive.steps) ++shorter_cons;
    }
  }
  EXPECT_GT(shorter_cons, 0);
}

TEST(FaultPlan, SeverNearInt64MaxHealsSaturated) {
  const FaultPlan plan = FaultPlan::parse("plan-v1; link sever 9223372036854775807 0 0 5");
  const std::vector<LinkFaultPoint> points = plan.resolve_links();
  ASSERT_EQ(points.size(), 2u);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(points[0].kind, LinkFaultKind::kSever);
  EXPECT_EQ(points[0].step_index, kMax);
  EXPECT_EQ(points[1].kind, LinkFaultKind::kHeal);
  EXPECT_EQ(points[1].step_index, kMax);
}

TEST(FaultPlan, CorruptWrapsAdvice) {
  FaultPlan plan;
  plan.fd = FdFault{FdFaultKind::kStuttering, 40, 4};
  const DetectorPtr inner = std::make_shared<OmegaFd>(10);
  const DetectorPtr wrapped = plan.corrupt(inner);
  const auto* st = dynamic_cast<const StutteringFd*>(wrapped.get());
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->corrupt_until(), 40);
  EXPECT_EQ(st->period(), 4);
  EXPECT_EQ(st->inner(), inner);
}

}  // namespace
}  // namespace efd
