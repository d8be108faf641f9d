// E15 (fault campaigns): campaign verdicts and the liveness monitor's
// transparency.
//
// Two questions the campaign infrastructure (core/campaign.hpp) must answer
// before it can run always-on in CI:
//
//  * does a full campaign sweep — rehearsal drives, FD corruption, tape
//    capture and, for the seeded-buggy targets, ddmin shrinking with
//    double-replay verification — reach every target's expected verdict,
//    and how much does it allocate per driven step;
//  * does the always-on LivenessMonitor leave the runs it observes
//    unchanged? It observes EVERY step of every campaign drive, so the
//    consensus scenario is driven with the monitor detached and attached,
//    and the E14 exploration workload is swept both ways.
//
// The tables report each campaign target's verdict and the monitored vs
// bare drive outcomes; BENCH_E15.json carries them and the counters for
// bench_diff.py. perfbench times the campaign pipeline (the `farm`
// workload) and the monitor (monitors.observe_ns).
#include "bench_common.hpp"

#include <cstdint>
#include <memory>
#include <string>

EFD_BENCH_ALLOC_PROBE()

namespace efd {
namespace {

const CampaignTarget& target_named(const char* name) {
  const CampaignTarget* target = find_campaign_target(name);
  if (target == nullptr) throw std::runtime_error(std::string("unknown campaign target ") + name);
  return *target;
}

/// One campaign sweep over a built-in target: N seeded plans, monitors on,
/// shrinking on (a no-op for clean targets, the real shrink+verify cost for
/// buggy ones), no tape saving (pure compute). allocs_per_step counts heap
/// allocations per driven step (authoritative plus rehearsal) of the
/// measured sweep; a warm-up sweep first pays the one-time interning and
/// set-up, and both sweeps run the same plans.
void campaign(const char* target_name, int plans, const char* json_name) {
  const CampaignTarget& target = target_named(target_name);
  CampaignOptions opts;
  opts.seed = 42;
  opts.plans = plans;
  opts.monitors = true;
  opts.shrink = true;
  opts.save_dir = "";
  (void)run_campaign(target, opts);
  const std::uint64_t allocs_before = bench::alloc_count();
  const CampaignRun run = run_campaign(target, opts);
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  bench::record(json_name, {},
                {{"allocs_per_step",
                  bench::per_step(allocs,
                                  static_cast<double>(run.total_steps + run.rehearsal_steps))},
                 {"plans", run.plans},
                 {"violations", run.violations.size()},
                 {"verdict_ok", run.verdict_ok() ? 1 : 0}});
  bench::row("%-18s | %7d plans | %4zu violations | verdict=%s", target_name, run.plans,
             run.violations.size(), run.verdict_ok() ? "ok" : "FAILED");
}

/// Drives the consensus scenario to completion with the campaign's own
/// bounds, with or without the LivenessMonitor attached. Identical worlds,
/// schedules and step counts — only the observer differs.
void monitor_drive(bool monitored, const char* json_name) {
  const CampaignTarget& target = target_named("cons");
  const Scenario* sc = find_scenario(target.scenario);
  if (sc == nullptr) throw std::runtime_error("missing consensus scenario");
  const FailurePattern f(target.num_s);
  const DetectorPtr advice = target.advice();
  World w = sc->make_world(f, advice->history(f, 42));
  LivenessMonitor mon(target.bounds);
  if (monitored) w.attach_observer(&mon);
  RoundRobinScheduler rr;
  const DriveResult r = drive(w, rr, target.max_steps);
  bool wait_free = true;
  if (monitored) {
    w.attach_observer(nullptr);
    mon.finalize(w);
    wait_free = mon.wait_free_ok();
  }
  bench::record(json_name, {},
                {{"decided", r.all_c_decided ? 1 : 0}, {"wait_free_ok", wait_free ? 1 : 0}});
  bench::row("%-18s | decided=%d | wait_free_ok=%d", monitored ? "monitored" : "bare",
             r.all_c_decided ? 1 : 0, wait_free ? 1 : 0);
}

/// The E14 exploration workload — (5,2)-set-agreement under the generic
/// 1-concurrent solver at level 2, budget-bounded to a 30,000-state slice —
/// swept bare and with an accounting-mode LivenessMonitor attached to the
/// incremental engine's persistent world: the outcomes must match.
void explore_monitored() {
  const TaskPtr task = std::make_shared<SetAgreementTask>(5, 2);
  ValueVec in(5);
  for (int i = 0; i < 5; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  const auto body = [task](int, Value input) { return make_one_concurrent(task, input, "e15"); };
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2, 3, 4};
  cfg.max_states = 30000;
  const ExploreOutcome bare = explore_k_concurrent(task, body, in, cfg);
  LivenessMonitor mon;  // zero bounds: pure accounting, the always-on tax
  cfg.observer = &mon;
  const ExploreOutcome watched = explore_k_concurrent(task, body, in, cfg);
  const bool same = bare.states == watched.states && bare.terminal_runs == watched.terminal_runs;
  bench::record("E15_ExploreMonitorTransparency", {},
                {{"monitored_steps", mon.monitored_steps()}, {"outcomes_match", same ? 1 : 0}});
}

void run() {
  bench::table_header("E15: campaign sweep verdicts (seed 42, monitors+shrink on)",
                      "target             |   plans swept |     violations | verdict");
  campaign("cons", 32, "E15_CampaignCons");
  campaign("ren", 32, "E15_CampaignRen");
  // Dominated by shrink + double-replay: nearly every plan violates.
  campaign("brn", 32, "E15_CampaignBuggyRenaming");
  bench::table_header("E15: LivenessMonitor transparency (consensus scenario drive)",
                      "drive              | run outcome");
  monitor_drive(false, "E15_DriveBare");
  monitor_drive(true, "E15_DriveMonitored");
  explore_monitored();
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E15", efd::run, argc, argv); }
