// E20 (unreliable links): the lossy-link acceptance pair and the link-fault
// layer's plan mix.
//
// The acceptance table drives timeout FloodMin and its retransmission-
// hardened variant under the IDENTICAL cross-link drop storm (every ch[i][j],
// i != j, charged to drop its next 2 deliveries): the raw protocol splits
// into 3 distinct own-input decisions (2-set agreement broken) at every
// seed, the hardened one stays safe and decides everywhere. The campaign
// table sweeps sampled plans through the real run_plan pipeline on the
// E20 campaign targets (mpfm_raw / mpfm_rt) and reports the link-plan mix.
// The remaining rows drive the hardened protocol with charges off and on,
// and one mpfm_rt plan with link dimensions stripped and kept. perfbench
// times the fault layer's fast path (channel.deliver_ns) and its charged
// path (channel.deliver_charged_ns).
#include "bench_common.hpp"

#include <memory>
#include <string>

namespace efd {
namespace {

constexpr int kN = 3;  // FloodMin system size (n senders, n mailboxes)
constexpr int kF = 1;  // tolerated sender crashes

/// The E20 storm: every cross link drops its next 2 deliveries from step 0.
FaultPlan e20_storm() {
  FaultPlan plan;
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) {
      if (i != j) plan.links.push_back(LinkAction{LinkFaultKind::kDrop, 0, i, j, 2});
    }
  }
  return plan;
}

/// Daemon-mode world with the raw (timeout) or hardened (rt) FloodMin bodies.
World e20_world(bool hardened) {
  const FailurePattern base(kN * kN);
  World w = make_mp_world(kN, kN, base, TrivialFd{}.history(base, 0));
  const FloodMinConfig cfg{kN, kF};
  for (int i = 0; i < kN; ++i) {
    w.spawn_c(i, hardened ? make_floodmin_rt(cfg, i, Value(i))
                          : make_floodmin_timeout(cfg, i, Value(i)));
  }
  return w;
}

struct E20Run {
  std::int64_t steps = 0;
  std::int64_t delivers = 0;
  std::int64_t dropped = 0;
  int decided = 0;
  int distinct = 0;
};

E20Run e20_drive(bool hardened, bool storm, std::uint64_t seed) {
  World w = e20_world(hardened);
  RandomScheduler rs(seed);
  E20Run r;
  (void)drive_with_faults(w, rs, 30000, storm ? e20_storm().drive_faults() : DriveFaults{});
  r.steps = w.run_stats().steps;
  r.delivers = w.run_stats().delivers;
  r.dropped = msg_substrate(w)->fabric().fault_counters().dropped;
  for (int i = 0; i < kN; ++i) {
    if (w.decided(cpid(i))) ++r.decided;
  }
  r.distinct = static_cast<int>(bench::distinct_decisions(w, kN).size());
  return r;
}

void e20_acceptance_table() {
  bench::table_header(
      "E20: FloodMin under the cross-link drop storm (2 drops per link), raw vs hardened",
      "protocol | seed |  steps | delivers | dropped | decided | distinct | verdict");
  for (const bool hardened : {false, true}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
      const E20Run r = e20_drive(hardened, true, seed);
      // Raw: everyone starves, times out, decides its OWN input — 3 distinct
      // decisions violate 2-set agreement. Hardened: retransmits get through.
      const bool violated = r.distinct > kF + 1;
      bench::row("%8s | %4llu | %6lld | %8lld | %7lld | %7d | %8d | %s",
                 hardened ? "rt" : "raw", static_cast<unsigned long long>(seed),
                 static_cast<long long>(r.steps), static_cast<long long>(r.delivers),
                 static_cast<long long>(r.dropped), r.decided, r.distinct,
                 violated ? "violated" : "safe");
    }
  }
}

void e20_campaign_table() {
  bench::table_header(
      "E20: sampled link-fault plans through run_plan (campaign targets)",
      "target   | plans | with-link | safety | storm-flag | clean");
  for (const char* name : {"mpfm_raw", "mpfm_rt"}) {
    const CampaignTarget* t = find_campaign_target(name);
    if (t == nullptr) {
      bench::row("%-8s | MISSING target", name);
      continue;
    }
    const int plans = 60;
    int with_link = 0, safety = 0, storms = 0, clean = 0;
    for (int i = 0; i < plans; ++i) {
      const std::uint64_t ps = campaign_plan_seed(42, t->name, i);
      const FaultPlan plan = FaultPlan::sample(ps, t->space);
      if (!plan.links.empty()) ++with_link;
      const PlanOutcome out = run_plan(*t, plan, ps, /*monitors=*/true);
      if (out.safety) ++safety;
      if (out.retransmit_storm) ++storms;
      if (!out.violated()) ++clean;
    }
    bench::row("%-8s | %5d | %9d | %6d | %10d | %5d", name, plans, with_link, safety,
               storms, clean);
  }
}

// One hardened daemon-mode drive (seed 1), fault charges off vs on.
void delivery(bool storm) {
  const E20Run r = e20_drive(/*hardened=*/true, storm, 1);
  bench::record("E20_DeliveryDrive", {storm ? 1 : 0},
                {{"dropped", r.dropped}, {"decided", r.decided == kN ? 1 : 0}});
}

// One sampled plan against the hardened E20 target through run_plan, link
// dimensions stripped vs kept.
void plan(bool with_links) {
  const CampaignTarget* t = find_campaign_target("mpfm_rt");
  if (t == nullptr) throw std::runtime_error("mpfm_rt campaign target missing");
  FaultPlan::Space space = t->space;
  if (!with_links) {
    space.mp_senders = 0;
    space.mp_mailboxes = 0;
    space.max_link_actions = 0;
  }
  const std::uint64_t ps = campaign_plan_seed(42, t->name, 0);
  const PlanOutcome out = run_plan(*t, FaultPlan::sample(ps, space), ps, /*monitors=*/true);
  bench::record("E20_PlanRun", {with_links ? 1 : 0},
                {{"violations", out.violated() ? 1 : 0}});
}

void run() {
  e20_acceptance_table();
  delivery(false);
  delivery(true);
  e20_campaign_table();
  plan(false);
  plan(true);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E20", efd::run, argc, argv); }
