// E15 (fault campaigns): plan throughput and liveness-monitor overhead.
//
// Two questions the campaign infrastructure (core/campaign.hpp) must answer
// before it can run always-on in CI:
//
//  * how many seeded FaultPlans per second does a full campaign sweep
//    sustain, including rehearsal drives, FD corruption, tape capture and —
//    for the seeded-buggy targets — ddmin shrinking with double-replay
//    verification;
//  * what does the always-on LivenessMonitor cost per simulator step? The
//    monitor observes EVERY step of every campaign drive, so its overhead
//    is a direct tax on sweep throughput. The A/B below drives the same
//    consensus scenario with the monitor detached and attached; the
//    acceptance line (EXPERIMENTS.md E15) is <= 5% on steps/s.
//
// The tables report each campaign target's verdict and the monitored vs
// bare drive outcomes; BENCH_E15.json carries them and the deterministic
// counters for bench_diff.py. The timed A/B (plans/s, steps/s, states/s,
// monitor overhead) is reported on stdout only: wall-clock rates differ
// from run to run, and perfbench/ is the repo's timed benchmark.
#include "bench_common.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

EFD_BENCH_JSON("E15")
EFD_BENCH_ALLOC_PROBE()

namespace efd {
namespace {

/// One campaign sweep over a built-in target: N seeded plans, monitors on,
/// shrinking on (a no-op for clean targets, the real shrink+verify cost for
/// buggy ones), no tape saving (pure compute). allocs_per_step counts heap
/// allocations per driven step (authoritative plus rehearsal) over the
/// timed sweeps; an untimed warm-up sweep first pays the one-time interning
/// and set-up, and every sweep repeats the same plans, so the figure does
/// not depend on the iteration count.
void run_campaign_bench(benchmark::State& state, const char* target_name, int plans,
                        const char* json_name) {
  const CampaignTarget* target = find_campaign_target(target_name);
  if (target == nullptr) {
    state.SkipWithError("unknown campaign target");
    return;
  }
  CampaignOptions opts;
  opts.seed = 42;
  opts.plans = plans;
  opts.monitors = true;
  opts.shrink = true;
  opts.save_dir = "";
  std::int64_t plans_total = 0;
  std::int64_t steps_total = 0;
  CampaignRun last = run_campaign(*target, opts);
  const std::uint64_t allocs_before = bench::alloc_count();
  for (auto _ : state) {
    last = run_campaign(*target, opts);
    plans_total += last.plans;
    steps_total += last.total_steps + last.rehearsal_steps;
  }
  bench::alloc_counter(state, bench::alloc_count() - allocs_before,
                       static_cast<double>(steps_total));
  state.counters["plans"] = static_cast<double>(plans_total);
  state.counters["plans/s"] =
      benchmark::Counter(static_cast<double>(plans_total), benchmark::Counter::kIsRate);
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(steps_total), benchmark::Counter::kIsRate);
  state.counters["violations"] = static_cast<double>(last.violations.size());
  state.counters["verdict_ok"] = last.verdict_ok() ? 1 : 0;
  bench::json_run(state, json_name);
  bench::row("%-18s | %7d plans | %4zu violations | verdict=%s", target_name, last.plans,
             last.violations.size(), last.verdict_ok() ? "ok" : "FAILED");
}

void E15_CampaignCons(benchmark::State& state) {
  bench::table_header("E15: campaign sweep throughput (seed 42, monitors+shrink on)",
                      "target             |   plans swept |     violations | verdict");
  run_campaign_bench(state, "cons", 32, "E15_CampaignCons");
}

void E15_CampaignRen(benchmark::State& state) {
  run_campaign_bench(state, "ren", 32, "E15_CampaignRen");
}

void E15_CampaignBuggyRenaming(benchmark::State& state) {
  // Dominated by shrink + double-replay: nearly every plan violates.
  run_campaign_bench(state, "brn", 32, "E15_CampaignBuggyRenaming");
}

/// A/B for the monitor tax: drive the consensus scenario to completion with
/// the campaign's own bounds, with and without the LivenessMonitor attached.
/// Identical worlds, schedules and step counts — only the observer differs.
void run_monitor_ab(benchmark::State& state, bool monitored, const char* json_name) {
  const CampaignTarget* target = find_campaign_target("cons");
  const Scenario* sc = find_scenario(target->scenario);
  if (sc == nullptr) {
    state.SkipWithError("missing consensus scenario");
    return;
  }
  const FailurePattern f(target->num_s);
  const DetectorPtr advice = target->advice();
  std::int64_t steps_total = 0;
  bool decided = true;
  bool wait_free = true;
  for (auto _ : state) {
    World w = sc->make_world(f, advice->history(f, 42));
    LivenessMonitor mon(target->bounds);
    if (monitored) w.attach_observer(&mon);
    RoundRobinScheduler rr;
    const DriveResult r = drive(w, rr, target->max_steps);
    if (monitored) {
      w.attach_observer(nullptr);
      mon.finalize(w);
      wait_free = wait_free && mon.wait_free_ok();
    }
    steps_total += r.steps;
    decided = decided && r.all_c_decided;
  }
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(steps_total), benchmark::Counter::kIsRate);
  state.counters["decided"] = decided ? 1 : 0;
  state.counters["wait_free_ok"] = wait_free ? 1 : 0;
  bench::json_run(state, json_name);
  bench::row("%-18s | decided=%d | wait_free_ok=%d", monitored ? "monitored" : "bare",
             decided ? 1 : 0, wait_free ? 1 : 0);
}

void E15_DriveBare(benchmark::State& state) {
  bench::table_header("E15: LivenessMonitor overhead A/B (consensus scenario drive)",
                      "drive              | run outcome");
  run_monitor_ab(state, false, "E15_DriveBare");
}

void E15_DriveMonitored(benchmark::State& state) {
  run_monitor_ab(state, true, "E15_DriveMonitored");
}

/// The acceptance A/B (EXPERIMENTS.md E15): the E14 exploration workload —
/// (5,2)-set-agreement under the generic 1-concurrent solver at level 2 —
/// swept bare and with an accounting-mode LivenessMonitor attached to the
/// incremental engine's persistent world, INTERLEAVED within each timing
/// iteration so frequency scaling and cache state hit both sides equally.
/// The monitor tax on states/s must stay <= 5%.
void E15_ExploreMonitorOverhead(benchmark::State& state) {
  const TaskPtr task = std::make_shared<SetAgreementTask>(5, 2);
  ValueVec in(5);
  for (int i = 0; i < 5; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  const auto body = [task](int, Value input) { return make_one_concurrent(task, input, "e15"); };
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2, 3, 4};
  cfg.max_states = 30000;  // budget-bounded slice of the E14 sweep
  using clock = std::chrono::steady_clock;
  double bare_sec = 0;
  double mon_sec = 0;
  std::int64_t bare_states = 0;
  std::int64_t mon_states = 0;
  std::int64_t mon_steps = 0;
  bool same = true;
  for (auto _ : state) {
    const auto t0 = clock::now();
    const ExploreOutcome bare = explore_k_concurrent(task, body, in, cfg);
    const auto t1 = clock::now();
    LivenessMonitor mon;  // zero bounds: pure accounting, the always-on tax
    ExploreConfig mcfg = cfg;
    mcfg.observer = &mon;
    const auto t2 = clock::now();
    const ExploreOutcome watched = explore_k_concurrent(task, body, in, mcfg);
    const auto t3 = clock::now();
    bare_sec += std::chrono::duration<double>(t1 - t0).count();
    mon_sec += std::chrono::duration<double>(t3 - t2).count();
    bare_states += bare.states;
    mon_states += watched.states;
    mon_steps = mon.monitored_steps();
    same = same && bare.states == watched.states && bare.terminal_runs == watched.terminal_runs;
  }
  const double bare_rate = bare_sec > 0 ? static_cast<double>(bare_states) / bare_sec : 0;
  const double mon_rate = mon_sec > 0 ? static_cast<double>(mon_states) / mon_sec : 0;
  const double overhead = bare_rate > 0 ? (bare_rate - mon_rate) / bare_rate * 100.0 : 0;
  state.counters["monitored_steps"] = static_cast<double>(mon_steps);
  state.counters["outcomes_match"] = same ? 1 : 0;
  bench::json_run(state, "E15_ExploreMonitorOverhead");
  // Timed, so reported on stdout only: set after json_run took its copy,
  // and the table bypasses the JSON emitter.
  state.counters["bare_states_per_s"] = bare_rate;
  state.counters["monitored_states_per_s"] = mon_rate;
  state.counters["overhead_pct"] = overhead;
  static bool header_printed = false;
  if (!header_printed) {
    header_printed = true;
    std::printf("\n=== E15: LivenessMonitor overhead on E14 states/s (interleaved A/B) ===\n"
                "sweep              |    states/s bare | states/s monitored | overhead\n");
  }
  std::printf("%-18s | %16.0f | %18.0f | %+7.2f%%\n", "explore(5,2)@k=2", bare_rate, mon_rate,
              overhead);
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E15_CampaignCons)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E15_CampaignRen)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E15_CampaignBuggyRenaming)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E15_DriveBare)->Unit(benchmark::kMicrosecond);
BENCHMARK(efd::E15_DriveMonitored)->Unit(benchmark::kMicrosecond);
BENCHMARK(efd::E15_ExploreMonitorOverhead)->Unit(benchmark::kMillisecond);
