// Link-fault layer tests (ctest -L substrate): the PR 10 lossy-link stack
// from the fabric up.
//
//  * ChannelFabric charge semantics — the deterministic consumption order
//    (severed > empty > delay > reorder pick > pop > drop > dup) that the
//    replay contract depends on, counter bookkeeping, idle reclaim, and the
//    eager/unknown-link/negative-charge error cases;
//  * lossy (sender, mailbox) pairs — the stateless subset eager exploration
//    supports: swallowed sends mutate nothing, and a process whose inbound
//    flood was dropped dead-ends BLOCKED, identically at every explorer
//    thread count (the PR 10 blocked-recv audit regression);
//  * record -> replay identity for the E20 scenario pair and for a seed x
//    fault-kind mix of single-action plans: every lossy run is an ordinary
//    efd-tape-v1 artifact whose `linkfaults` line re-charges the fabric
//    bit-identically (double replay certified);
//  * the E20 acceptance shape itself — timeout FloodMin violated under the
//    cross-link drop storm, the retransmission-hardened variant clean and
//    live under the SAME storm, and the violation ddmin-shrinkable;
//  * plan-v1 `link` grammar round-trips, sever/heal resolution, and the
//    sampling rule that link dimensions never perturb the non-link stream;
//  * the retransmit-storm watchdog and the hardened consensus client.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "algo/mp_protocols.hpp"
#include "core/monitors.hpp"
#include "core/repro_scenarios.hpp"
#include "core/shrink.hpp"
#include "core/solvability.hpp"
#include "fd/detectors.hpp"
#include "sim/channel.hpp"
#include "sim/faultplan.hpp"
#include "sim/msg_world.hpp"
#include "sim/replay.hpp"
#include "sim/schedule.hpp"
#include "tasks/set_agreement.hpp"

namespace efd {
namespace {

constexpr int kN = 3;  ///< FloodMin system size (n senders, n mailboxes)
constexpr int kF = 1;  ///< tolerated sender crashes

// ---- fabric charge semantics ----------------------------------------------

/// A bare daemon-mode 2x2 fabric (no world): links ch[i][j] for i,j < 2.
ChannelFabric make_fabric() {
  std::vector<RegAddr> mailboxes{mp_mailbox(0), mp_mailbox(1)};
  std::vector<RegAddr> links;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) links.push_back(mp_link(i, j));
  }
  return ChannelFabric(2, std::move(mailboxes), std::move(links), /*eager=*/false);
}

TEST(LinkFaultFabric, DropChargesConsumePoppedMessages) {
  ChannelFabric fab = make_fabric();
  const RegAddr link = mp_link(0, 1);
  for (int k = 0; k < 3; ++k) fab.send(cpid(0), mp_mailbox(1), Value(10 + k));
  EXPECT_TRUE(fab.faults_idle());
  fab.charge_fault(link, LinkFaultKind::kDrop, 2);
  EXPECT_FALSE(fab.faults_idle());
  EXPECT_EQ(fab.link_faults(link).drop_next, 2);

  // The first two delivers pop-and-discard: the step reads as an empty
  // deliver and the mailbox never sees the message.
  EXPECT_TRUE(fab.deliver(link).is_nil());
  EXPECT_TRUE(fab.deliver(link).is_nil());
  EXPECT_EQ(fab.fault_counters().dropped, 2);
  EXPECT_TRUE(fab.peek(mp_mailbox(1)).is_nil());
  // The model drained back to idle and was reclaimed: zero-cost path again.
  EXPECT_TRUE(fab.faults_idle());

  // The third message is unaffected.
  EXPECT_EQ(fab.deliver(link), Value(12));
  EXPECT_EQ(fab.peek(mp_mailbox(1)), Value(12));
  EXPECT_EQ(fab.in_flight(link), 0u);
}

TEST(LinkFaultFabric, DupReenqueuesACopyAtTheBack) {
  ChannelFabric fab = make_fabric();
  const RegAddr link = mp_link(0, 0);
  fab.send(cpid(0), mp_mailbox(0), Value(1));
  fab.send(cpid(0), mp_mailbox(0), Value(2));
  fab.charge_fault(link, LinkFaultKind::kDup, 1);

  EXPECT_EQ(fab.deliver(link), Value(1));  // delivered AND re-enqueued
  EXPECT_EQ(fab.fault_counters().duplicated, 1);
  EXPECT_EQ(fab.in_flight(link), 2u);  // [2, 1-copy]
  EXPECT_TRUE(fab.faults_idle());
  EXPECT_EQ(fab.deliver(link), Value(2));
  EXPECT_EQ(fab.deliver(link), Value(1));  // the copy arrives last

  Value pending;
  ASSERT_TRUE(fab.state(mp_mailbox(0), pending));
  ValueVec items;
  pending.unpack_vec(items);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], Value(1));
  EXPECT_EQ(items[1], Value(2));
  EXPECT_EQ(items[2], Value(1));
}

TEST(LinkFaultFabric, DelayChargesHoldTheHeadPerStep) {
  ChannelFabric fab = make_fabric();
  const RegAddr link = mp_link(1, 0);
  fab.send(cpid(1), mp_mailbox(0), Value(9));
  fab.charge_fault(link, LinkFaultKind::kDelay, 2);

  // A delay charge is consumed by the STEP: the head stays in flight.
  EXPECT_TRUE(fab.deliver(link).is_nil());
  EXPECT_EQ(fab.in_flight(link), 1u);
  EXPECT_TRUE(fab.deliver(link).is_nil());
  EXPECT_EQ(fab.fault_counters().delayed, 2);
  EXPECT_EQ(fab.deliver(link), Value(9));
}

TEST(LinkFaultFabric, ReorderWindowPicksFromDeeperInTheChannel) {
  ChannelFabric fab = make_fabric();
  const RegAddr link = mp_link(0, 1);
  for (int k = 1; k <= 3; ++k) fab.send(cpid(0), mp_mailbox(1), Value(k));
  fab.charge_fault(link, LinkFaultKind::kReorder, 1);

  EXPECT_EQ(fab.deliver(link), Value(2));  // pick = min(window, size-1) = 1
  EXPECT_EQ(fab.fault_counters().reordered, 1);
  EXPECT_EQ(fab.deliver(link), Value(1));
  EXPECT_EQ(fab.deliver(link), Value(3));

  // A window wider than the channel clamps to the tail and, on a 1-deep
  // channel, degenerates to FIFO without counting a reorder.
  fab.send(cpid(0), mp_mailbox(1), Value(7));
  fab.charge_fault(link, LinkFaultKind::kReorder, 5);
  EXPECT_EQ(fab.deliver(link), Value(7));
  EXPECT_EQ(fab.fault_counters().reordered, 1);  // unchanged: pick was 0
}

TEST(LinkFaultFabric, SeverHoldsDeliveriesUntilHealed) {
  ChannelFabric fab = make_fabric();
  const RegAddr link = mp_link(0, 1);
  fab.send(cpid(0), mp_mailbox(1), Value(5));
  fab.charge_fault(link, LinkFaultKind::kSever, 1);
  EXPECT_TRUE(fab.link_faults(link).severed);

  // Sends still enqueue while severed; only deliveries hold.
  fab.send(cpid(0), mp_mailbox(1), Value(6));
  EXPECT_TRUE(fab.deliver(link).is_nil());
  EXPECT_TRUE(fab.deliver(link).is_nil());
  EXPECT_EQ(fab.fault_counters().held_severed, 2);
  EXPECT_EQ(fab.in_flight(link), 2u);

  fab.charge_fault(link, LinkFaultKind::kHeal, 1);
  EXPECT_TRUE(fab.faults_idle());  // sever was the only charge
  EXPECT_EQ(fab.deliver(link), Value(5));
  EXPECT_EQ(fab.deliver(link), Value(6));
}

TEST(LinkFaultFabric, PrecedenceSeveredThenDelayThenDrop) {
  ChannelFabric fab = make_fabric();
  const RegAddr link = mp_link(0, 0);
  fab.send(cpid(0), mp_mailbox(0), Value(3));
  fab.charge_fault(link, LinkFaultKind::kSever, 1);
  fab.charge_fault(link, LinkFaultKind::kDelay, 1);
  fab.charge_fault(link, LinkFaultKind::kDrop, 1);

  EXPECT_TRUE(fab.deliver(link).is_nil());  // severed: nothing else consumed
  EXPECT_EQ(fab.fault_counters().held_severed, 1);
  EXPECT_EQ(fab.link_faults(link).delay_next, 1);
  EXPECT_EQ(fab.link_faults(link).drop_next, 1);

  fab.charge_fault(link, LinkFaultKind::kHeal, 1);
  EXPECT_TRUE(fab.deliver(link).is_nil());  // delay: head stays
  EXPECT_EQ(fab.in_flight(link), 1u);
  EXPECT_TRUE(fab.deliver(link).is_nil());  // pop + drop: message gone
  EXPECT_EQ(fab.fault_counters().dropped, 1);
  EXPECT_EQ(fab.in_flight(link), 0u);
  EXPECT_TRUE(fab.faults_idle());
  EXPECT_TRUE(fab.peek(mp_mailbox(0)).is_nil());
}

TEST(LinkFaultFabric, ChargeErrorsAndZeroCharges) {
  ChannelFabric fab = make_fabric();
  EXPECT_THROW(fab.charge_fault(mp_link(5, 5), LinkFaultKind::kDrop, 1), std::out_of_range);
  EXPECT_THROW((void)fab.link_faults(mp_link(5, 5)), std::out_of_range);
  EXPECT_THROW(fab.charge_fault(mp_link(0, 1), LinkFaultKind::kDrop, -1),
               std::invalid_argument);
  // A zero charge drains to idle immediately: nothing is left behind.
  fab.charge_fault(mp_link(0, 1), LinkFaultKind::kDrop, 0);
  EXPECT_TRUE(fab.faults_idle());

  ChannelFabric eager(2, {mp_mailbox(0), mp_mailbox(1)}, {}, /*eager=*/true);
  EXPECT_THROW(eager.charge_fault(mp_link(0, 1), LinkFaultKind::kDrop, 1), std::logic_error);
  EXPECT_THROW((void)eager.deliver(mp_link(0, 1)), std::logic_error);
}

TEST(LinkFaultFabric, LossyPairsSwallowSendsInBothModes) {
  // Eager: the swallowed send mutates nothing (explorer-undo safe).
  ChannelFabric eager(2, {mp_mailbox(0), mp_mailbox(1)}, {}, /*eager=*/true);
  eager.set_lossy(0, mp_mailbox(1), true);
  const std::uint64_t h0 = eager.hash_acc();
  eager.send(cpid(0), mp_mailbox(1), Value(1));
  EXPECT_EQ(eager.fault_counters().lost_sends, 1);
  EXPECT_EQ(eager.hash_acc(), h0);
  EXPECT_TRUE(eager.peek(mp_mailbox(1)).is_nil());
  eager.send(cpid(1), mp_mailbox(1), Value(2));  // other senders unaffected
  EXPECT_EQ(eager.peek(mp_mailbox(1)), Value(2));
  eager.set_lossy(0, mp_mailbox(1), false);
  eager.send(cpid(0), mp_mailbox(1), Value(3));
  EXPECT_EQ(eager.fault_counters().lost_sends, 1);

  // Daemon: the message never reaches the in-flight channel.
  ChannelFabric daemon = make_fabric();
  daemon.set_lossy(0, mp_mailbox(1), true);
  EXPECT_FALSE(daemon.faults_idle());
  daemon.send(cpid(0), mp_mailbox(1), Value(4));
  EXPECT_EQ(daemon.in_flight(mp_link(0, 1)), 0u);
  EXPECT_EQ(daemon.fault_counters().lost_sends, 1);
}

// ---- lossy pairs under exhaustive exploration (blocked-recv audit) --------

std::function<ProcBody(int, Value)> floodmin_body() {
  const FloodMinConfig cfg{kN, kF};
  return [cfg](int i, Value input) { return make_floodmin(cfg, i, std::move(input)); };
}

ValueVec floodmin_inputs() {
  ValueVec in(static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  return in;
}

/// Same cross-backend-comparable summary as tests/test_substrate.cpp.
struct SweepSummary {
  bool ok = false;
  bool exhausted = false;
  std::int64_t states = 0;
  std::int64_t terminal_runs = 0;
  std::int64_t blocked_runs = 0;

  bool operator==(const SweepSummary&) const = default;
};

SweepSummary sweep(const std::function<World()>& factory, int kset, int k, int threads) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(kN, kset);
  ExploreConfig cfg;
  cfg.k = k;
  cfg.arrival = Task::participants(floodmin_inputs());
  cfg.threads = threads;
  cfg.max_states = 2000000;
  cfg.world_factory = factory;
  const ExploreOutcome out = explore_k_concurrent(task, floodmin_body(), floodmin_inputs(), cfg);
  SweepSummary s;
  s.ok = out.ok;
  s.exhausted = out.budget_exhausted;
  s.states = out.states;
  s.terminal_runs = out.terminal_runs;
  s.blocked_runs = out.blocked_runs;
  return s;
}

/// Eager msg factory with the given (sender, mailbox) pairs statically lossy.
std::function<World()> lossy_msg_factory(std::vector<std::pair<int, int>> pairs) {
  return [pairs = std::move(pairs)] {
    World w = World::failure_free(1);
    install_msg_eager(w, kN, kN);
    ChannelFabric& fab = msg_substrate(w)->fabric();
    for (const auto& [i, j] : pairs) fab.set_lossy(i, mp_mailbox(j), true);
    return w;
  };
}

TEST(LinkFaultExplore, DroppedFloodsDeadEndBlockedAtEveryThreadCount) {
  // The PR 10 blocked-recv audit: when every cross pair is lossy, each
  // process hears only itself (1 < n - f), so every schedule dead-ends in a
  // blocked recv on a drained inbox — the dropped messages MUST surface as
  // blocked_runs, not as terminal runs or as a hang. Vacuously clean: no run
  // ever decides, so no decision set can violate the relation.
  std::vector<std::pair<int, int>> cross;
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (i != j) cross.emplace_back(i, j);
    }
  }
  const SweepSummary lossy = sweep(lossy_msg_factory(cross), kF + 1, kN, 1);
  ASSERT_FALSE(lossy.exhausted);
  EXPECT_TRUE(lossy.ok);
  EXPECT_EQ(lossy.terminal_runs, 0);
  EXPECT_GT(lossy.blocked_runs, 0);

  // Loss-free contrast: the same sweep has terminating runs.
  const SweepSummary clean = sweep(lossy_msg_factory({}), kF + 1, kN, 1);
  EXPECT_GT(clean.terminal_runs, 0);
  EXPECT_NE(clean, lossy);

  // Delivery traces (and hence every counter) are explorer-thread-invariant.
  for (int threads : {2, 8}) {
    EXPECT_EQ(sweep(lossy_msg_factory(cross), kF + 1, kN, threads), lossy)
        << "lossy sweep diverged at threads=" << threads;
  }
}

TEST(LinkFaultExplore, PartialLossStarvesExactlyTheCutProcess) {
  // Only the links INTO p3 are lossy: p1/p2 still hear each other and can
  // decide, but p3's pending messages were dropped, so every maximal run
  // ends with p3 blocked — terminal_runs stays zero while decisions happen.
  const SweepSummary s =
      sweep(lossy_msg_factory({{0, 2}, {1, 2}}), kF + 1, kN, 1);
  ASSERT_FALSE(s.exhausted);
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.terminal_runs, 0);
  EXPECT_GT(s.blocked_runs, 0);
  EXPECT_EQ(sweep(lossy_msg_factory({{0, 2}, {1, 2}}), kF + 1, kN, 8), s);
}

// ---- record -> replay identity of lossy tapes -----------------------------

TEST(LinkFaultReplay, LossyScenarioTapesRoundTripBitIdentically) {
  // The E20 scenario pair: raw violated, hardened clean — under the SAME
  // storm — and both runs survive the full serialize -> parse -> fresh world
  // -> replay path twice (double replay, hash-certified).
  struct Case {
    const char* name;
    bool violated;
  };
  for (const Case c : {Case{"mp_floodmin_lossy_raw", true}, Case{"mp_floodmin_lossy_rt", false}}) {
    const Scenario* sc = find_scenario(c.name);
    ASSERT_NE(sc, nullptr) << c.name;
    for (std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      const ScheduleTape tape = sc->record(seed);
      EXPECT_EQ(tape.substrate, "msg");
      EXPECT_FALSE(tape.linkfaults.empty()) << "lossy tapes must carry the linkfaults line";
      EXPECT_FALSE(tape.plan.empty()) << "campaign provenance: the plan line";
      ASSERT_TRUE(tape.expect_violated.has_value());
      EXPECT_EQ(*tape.expect_violated, c.violated);

      const std::string text = tape.serialize();
      const ScheduleTape parsed = ScheduleTape::parse(text);
      EXPECT_EQ(parsed.serialize(), text) << "canonical serialization must be a fixpoint";
      EXPECT_EQ(parsed.linkfaults, tape.linkfaults);

      const ScenarioReplayOutcome first = replay_in_scenario(*sc, parsed);
      EXPECT_TRUE(first.matches(parsed));
      EXPECT_EQ(first.violated, c.violated);
      const ScenarioReplayOutcome second = replay_in_scenario(*sc, parsed);
      EXPECT_EQ(second.replay.hash, first.replay.hash) << "double replay must be bit-identical";
      EXPECT_TRUE(second.matches(parsed));
    }
  }
}

TEST(LinkFaultReplay, SingleActionFaultMixRecordsAndReplays) {
  // Seed x fault-kind property: one sampled-shape link action of each kind
  // against the hardened scenario records a tape whose replay matches, and
  // the hardened protocol stays clean under every mix.
  const Scenario* sc = find_scenario("mp_floodmin_lossy_rt");
  ASSERT_NE(sc, nullptr);
  const FailurePattern base(kN * kN);
  for (std::uint64_t seed : {1ULL, 5ULL}) {
    for (const LinkFaultKind kind :
         {LinkFaultKind::kDrop, LinkFaultKind::kDup, LinkFaultKind::kDelay,
          LinkFaultKind::kReorder, LinkFaultKind::kSever}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " kind " +
                   std::string(link_fault_token(kind)));
      FaultPlan plan;
      plan.links.push_back(LinkAction{kind, /*step=*/3, /*from=*/0, /*to=*/1,
                                      /*amount=*/kind == LinkFaultKind::kSever ? 6 : 2});

      World w = sc->make_world(base, TrivialFd{}.history(base, 0));
      RandomScheduler inner(seed);
      const ScheduleTape tape = record_run(sc->name, w, inner, 30000, plan.drive_faults());
      EXPECT_FALSE(sc->violated(w)) << "hardened FloodMin must stay safe under any single fault";
      EXPECT_EQ(tape.expect_violated, std::optional<bool>(false));
      EXPECT_EQ(tape.substrate, "msg");
      if (kind == LinkFaultKind::kSever) {
        // resolve_links turns a sever into a sever/heal pair.
        ASSERT_EQ(tape.linkfaults.size(), 2u);
        EXPECT_EQ(tape.linkfaults[1].kind, LinkFaultKind::kHeal);
      }

      const ScheduleTape parsed = ScheduleTape::parse(tape.serialize());
      const ScenarioReplayOutcome out = replay_in_scenario(*sc, parsed);
      EXPECT_TRUE(out.replay.hash_match) << "re-charging the tape's faults must reproduce the run";
      EXPECT_FALSE(out.violated);
    }
  }
}

TEST(LinkFaultReplay, MalformedLinkfaultsLinesAreParseErrors) {
  const Scenario* sc = find_scenario("mp_floodmin_lossy_raw");
  ASSERT_NE(sc, nullptr);
  const std::string text = sc->record(1).serialize();
  const std::size_t at = text.find("\nlinkfaults ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t line_end = text.find('\n', at + 1);
  ASSERT_NE(line_end, std::string::npos);
  const auto with_line = [&](const std::string& line) {
    return text.substr(0, at + 1) + line + text.substr(line_end);
  };
  EXPECT_NO_THROW((void)ScheduleTape::parse(with_line("linkfaults drop 0 ch[0][1] 2")));
  for (const char* bad : {
           "linkfaults gremlin 0 ch[0][1] 2",   // unknown fault kind
           "linkfaults drop 0 ch[0][1]",        // missing amount
           "linkfaults drop 0 ch[0][1] 0",      // amount < 1
           "linkfaults drop -4 ch[0][1] 2",     // negative step index
           "linkfaults drop 0 ch[0][1] 2 zzz",  // trailing garbage
           "linkfaults",                        // empty list
       }) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)ScheduleTape::parse(with_line(bad)), TapeParseError);
  }
}

TEST(LinkFaultReplay, RawViolationShrinksToASmallWitness)
{
  // E20's triage contract: the storm-induced violation ddmin-shrinks (steps
  // AND link charges are both removal candidates) and the minimized tape
  // still violates on a double replay.
  const Scenario* sc = find_scenario("mp_floodmin_lossy_raw");
  ASSERT_NE(sc, nullptr);
  const ScheduleTape tape = sc->record(1);
  ASSERT_TRUE(tape.expect_violated.has_value() && *tape.expect_violated);

  ShrinkStats stats;
  const ScheduleTape min = shrink_tape(tape, scenario_predicate(*sc, true), {}, &stats);
  EXPECT_TRUE(stats.reached_fixpoint);
  EXPECT_GT(stats.removed_steps, 0);
  EXPECT_LE(min.steps.size(), tape.steps.size() / 4) << "E20 gates shrunk size at 25%";
  // The drop charges themselves may shrink away entirely: a schedule that
  // never runs the delivery daemons starves the timeout protocol just as
  // well, and ddmin is free to find that smaller cause.
  EXPECT_LE(min.linkfaults.size(), tape.linkfaults.size());

  const ScenarioReplayOutcome a = replay_in_scenario(*sc, min);
  const ScenarioReplayOutcome b = replay_in_scenario(*sc, min);
  EXPECT_TRUE(a.violated);
  EXPECT_TRUE(b.violated);
  EXPECT_EQ(a.replay.hash, b.replay.hash);
}

// ---- plan-v1 link grammar --------------------------------------------------

TEST(LinkFaultPlan, LinkGrammarRoundTripsAndResolvesSeverPairs) {
  FaultPlan plan;
  plan.links.push_back(LinkAction{LinkFaultKind::kDrop, 12, 0, 1, 2});
  plan.links.push_back(LinkAction{LinkFaultKind::kSever, 4, 1, 2, 10});
  plan.links.push_back(LinkAction{LinkFaultKind::kDelay, 30, 2, 0, 1});
  const std::string text = plan.to_string();
  EXPECT_NE(text.find("link drop 12 0 1 2"), std::string::npos) << text;
  EXPECT_NE(text.find("link sever 4 1 2 10"), std::string::npos) << text;
  EXPECT_EQ(FaultPlan::parse(text), plan);

  // resolve_links: step-sorted charges against canonical names; the sever
  // expands into a sever/heal pair `amount` steps apart.
  const std::vector<LinkFaultPoint> pts = plan.resolve_links();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].kind, LinkFaultKind::kSever);
  EXPECT_EQ(pts[0].step_index, 4);
  EXPECT_EQ(pts[0].link, mp_link(1, 2).name());
  EXPECT_EQ(pts[1].kind, LinkFaultKind::kDrop);
  EXPECT_EQ(pts[1].link, mp_link(0, 1).name());
  EXPECT_EQ(pts[2].kind, LinkFaultKind::kHeal);
  EXPECT_EQ(pts[2].step_index, 14);
  EXPECT_EQ(pts[2].link, mp_link(1, 2).name());
  EXPECT_EQ(pts[3].kind, LinkFaultKind::kDelay);

  for (const char* bad : {
           "plan-v1; link gremlin 3 0 1 2",  // unknown kind
           "plan-v1; link drop 3 0 1",       // missing amount
           "plan-v1; link drop 3 0 1 0",     // amount < 1
           "plan-v1; link drop -3 0 1 2",    // negative step
       }) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)FaultPlan::parse(bad), std::invalid_argument);
  }
}

TEST(LinkFaultPlan, SamplingDrawsLinksLastAndWithinBounds) {
  FaultPlan::Space shm;
  shm.num_s = 4;
  shm.num_c = 3;
  shm.horizon = 200;
  shm.max_crashes = 2;
  FaultPlan::Space mp = shm;
  mp.mp_senders = 3;
  mp.mp_mailboxes = 3;
  mp.max_link_actions = 6;
  mp.max_link_charge = 3;
  mp.max_sever_window = 40;

  bool saw_links = false;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FaultPlan a = FaultPlan::sample(seed, shm);
    EXPECT_TRUE(a.links.empty()) << "shared-memory spaces never emit link actions";
    FaultPlan b = FaultPlan::sample(seed, mp);
    for (const LinkAction& l : b.links) {
      EXPECT_GE(l.step, 0);
      EXPECT_LT(l.step, mp.horizon);
      EXPECT_GE(l.from, 0);
      EXPECT_LT(l.from, mp.mp_senders);
      EXPECT_GE(l.to, 0);
      EXPECT_LT(l.to, mp.mp_mailboxes);
      EXPECT_GE(l.amount, 1);
      EXPECT_LE(l.amount, l.kind == LinkFaultKind::kSever ? mp.max_sever_window
                                                          : mp.max_link_charge);
    }
    saw_links = saw_links || !b.links.empty();
    // Links are drawn LAST from the seed stream: adding link dimensions must
    // not perturb the crash/fd/burst draws of existing targets.
    b.links.clear();
    EXPECT_EQ(b, a) << "seed " << seed;
  }
  EXPECT_TRUE(saw_links) << "64 seeds over a 6-action space must sample some links";
}

// ---- retransmit-storm watchdog and the hardened consensus client ----------

TEST(LinkFaultMonitor, RetransmitStormWindowFlagsUnboundedResends) {
  MonitorBounds bounds;
  bounds.retransmit_storm_window = 4;
  LivenessMonitor storm(bounds);
  for (int i = 0; i < 5; ++i) {
    storm.on_step(cpid(0), OpKind::kSend, false, false, false);
  }
  ASSERT_EQ(storm.violations().size(), 1u);
  EXPECT_EQ(storm.violations()[0].kind, MonitorViolation::Kind::kRetransmitStorm);
  EXPECT_EQ(storm.violations()[0].measured, 5);
  EXPECT_TRUE(storm.wait_free_ok()) << "a storm is not a wait-freedom violation per se";
  EXPECT_FALSE(storm.ok());

  // A decision anywhere resets the burst: bounded retransmit-and-recover
  // cycles never trip the watchdog.
  LivenessMonitor recovered(bounds);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 3; ++i) {
      recovered.on_step(cpid(0), OpKind::kSend, false, false, false);
    }
    // A fresh process decides each round (a finished process's steps are
    // ignored); each decision resets the collective send burst.
    recovered.on_step(cpid(round + 1), OpKind::kDecide, false, true, false);
  }
  EXPECT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.max_send_burst(), 3);
}

Proc dec_writer(Context& ctx, RegAddr dec, Value v, int waits) {
  for (int i = 0; i < waits; ++i) co_await ctx.yield();
  co_await ctx.write(dec, v);
  co_await ctx.decide(v);
}

TEST(LinkFaultProtocols, ConsensusClientRtRefloodsUntilDecisionLands) {
  // The hardened consensus client refloods its proposal on a doubling
  // backoff while DEC stays Nil. A deliberately slow decider makes the
  // client run several backoff rounds; the undrained server mailboxes then
  // hold one copy per (re)flood.
  const MpConsensusConfig cfg{"mpcrt", 2};
  World w = World::failure_free(1);
  install_msg_eager(w, /*senders=*/1, /*mailboxes=*/2);
  const RegAddr dec = reg(sym(cfg.ns + "/DEC"));
  w.spawn_c(0, make_mp_consensus_client_rt(cfg, Value(7), RetransmitConfig{2, 4}));
  w.spawn_c(1, [dec](Context& ctx) { return dec_writer(ctx, dec, Value(7), 40); });
  RoundRobinScheduler rr;
  drive(w, rr, 4000);

  ASSERT_TRUE(w.decided(cpid(0)));
  EXPECT_EQ(w.decision(cpid(0)), Value(7));
  Value pending;
  ASSERT_TRUE(msg_substrate(w)->fabric().state(mp_mailbox(0), pending));
  ValueVec copies;
  pending.unpack_vec(copies);
  EXPECT_GE(copies.size(), 2u) << "at least one reflood must have fired";
  for (const Value& m : copies) EXPECT_EQ(m, vec(0, 7));
}

}  // namespace
}  // namespace efd
