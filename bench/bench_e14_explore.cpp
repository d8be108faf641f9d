// E14 (exploration engine): full-replay vs incremental vs parallel frontier.
//
// The seed's explorer re-executed the whole schedule prefix from a fresh
// World at every DFS node — O(depth²) coroutine steps per root-to-leaf path.
// It survives as the tests' full-replay oracle
// (tests/support/explore_oracle.hpp), which this binary links for the
// "full replay" row. The library's explorer keeps one persistent World,
// advances it a single step per DFS edge, and backtracks through an exact
// undo log (memory cells, signatures, decision flags, admission window),
// respawning only processes that are actually rescheduled after a rewind.
// The parallel frontier shards the same tree over a work-stealing pool with
// a shared sharded signature set; clean-sweep outcomes are
// thread-count-invariant.
//
// Workload: (5,2)-set-agreement under the generic 1-concurrent solver at
// level 2 — a clean sweep of ~190k states whose runs go 61-65 steps deep
// (the sweep fails a max_depth=60 bound and is clean at 65), the regime
// where full-prefix replay hurts most. The table reports states and terminal
// runs per engine and thread count, which must agree for the sweep to count;
// states/second per engine (the parallel scaling curve) is reported on
// stdout.
#include "bench_common.hpp"
#include "support/explore_oracle.hpp"

#include <algorithm>
#include <memory>
#include <string>

EFD_BENCH_JSON("E14")
EFD_BENCH_ALLOC_PROBE()

namespace efd {
namespace {

TaskPtr e14_task() { return std::make_shared<SetAgreementTask>(5, 2); }

ValueVec e14_inputs() {
  ValueVec in(5);
  for (int i = 0; i < 5; ++i) in[static_cast<std::size_t>(i)] = Value(i);
  return in;
}

std::function<ProcBody(int, Value)> e14_body(const TaskPtr& task) {
  return [task](int, Value input) { return make_one_concurrent(task, input, "e14"); };
}

ExploreConfig e14_cfg(int threads) {
  ExploreConfig cfg;
  cfg.k = 2;
  cfg.arrival = {0, 1, 2, 3, 4};
  cfg.max_states = 400000;
  cfg.threads = threads;
  return cfg;
}

void run_one(benchmark::State& state, bool full_replay, int threads, const char* label,
             const char* json_name, std::initializer_list<std::int64_t> json_args = {},
             const DedupConfig* dedup = nullptr) {
  const TaskPtr task = e14_task();
  const ValueVec in = e14_inputs();
  const auto body = e14_body(task);
  std::int64_t states_total = 0;
  std::int64_t last_states = 0;
  std::int64_t last_terminal = 0;
  ExploreStats last_stats;
  bool ok = true;
  const std::uint64_t allocs_before = bench::alloc_count();
  for (auto _ : state) {
    ExploreConfig cfg = e14_cfg(threads);
    if (dedup != nullptr) cfg.dedup_store = *dedup;
    const ExploreOutcome o = full_replay ? explore_full_replay(task, body, in, cfg)
                                         : explore_k_concurrent(task, body, in, cfg);
    states_total += o.states;
    last_states = o.states;
    last_terminal = o.terminal_runs;
    last_stats = o.stats;
    ok = ok && o.ok && !o.budget_exhausted;
  }
  const std::uint64_t allocs_delta = bench::alloc_count() - allocs_before;
  state.counters["states"] = static_cast<double>(last_states);
  state.counters["states/s"] =
      benchmark::Counter(static_cast<double>(states_total), benchmark::Counter::kIsRate);
  state.counters["clean"] = ok ? 1 : 0;
  state.counters["dedup_queries"] = static_cast<double>(last_stats.dedup_queries);
  state.counters["dedup_hits"] = static_cast<double>(last_stats.dedup_hits);
  state.counters["respawns"] = static_cast<double>(last_stats.respawns);
  state.counters["ghost_hits"] = static_cast<double>(last_stats.ghost_hits);
  state.counters["pool_steals"] = static_cast<double>(last_stats.pool_steals);
  if (dedup != nullptr) {
    // Per-tier traffic of the tiered store (core/diskset.hpp). Hit rates are
    // fractions of all duplicate answers; bench_diff treats *hit_rate as
    // higher-is-better, spill volume as informational.
    const double hits = static_cast<double>(
        std::max<std::int64_t>(1, last_stats.dedup_hits));
    state.counters["recent_hit_rate"] =
        static_cast<double>(last_stats.dedup_recent_hits) / hits;
    state.counters["mem_hit_rate"] =
        static_cast<double>(last_stats.dedup_mem_hits) / hits;
    state.counters["cold_hit_rate"] =
        static_cast<double>(last_stats.dedup_cold_hits) / hits;
    state.counters["bloom_skip_rate"] =
        static_cast<double>(last_stats.dedup_bloom_skips) /
        static_cast<double>(std::max<std::int64_t>(1, last_stats.dedup_cold_probes));
    state.counters["spills"] = static_cast<double>(last_stats.dedup_spills);
    state.counters["spilled_sigs"] = static_cast<double>(last_stats.dedup_spilled_sigs);
    state.counters["spill_bytes"] = static_cast<double>(last_stats.dedup_spill_bytes);
    state.counters["merges"] = static_cast<double>(last_stats.dedup_merges);
  }
  bench::alloc_counter(state, allocs_delta, static_cast<double>(states_total));
  bench::json_run(state, json_name, json_args);
  bench::row("%-22s | %8lld states | %7lld terminal | clean=%d", label,
             static_cast<long long>(last_states), static_cast<long long>(last_terminal),
             ok ? 1 : 0);
}

void E14_FullReplay(benchmark::State& state) {
  bench::table_header("E14: schedule exploration engines, (5,2)-set-agreement level 2",
                      "engine                 |   states explored |  terminal runs | clean sweep");
  run_one(state, /*full_replay=*/true, 1, "full replay", "E14_FullReplay");
}

void E14_Incremental(benchmark::State& state) {
  run_one(state, false, 1, "incremental", "E14_Incremental");
}

void E14_Parallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::string label = "parallel x" + std::to_string(threads);
  run_one(state, false, threads, label.c_str(), "E14_Parallel", {threads});
}

// Same sweep through the tiered dedup store with a memory budget small
// enough (1 MiB over 64 shards) that every shard spills to disk several
// times: exercises tier-0/1/2 traffic, run files and merges on the standard
// workload. Semantic counters (states, terminal runs, dedup traffic) must
// match the plain rows exactly — the tiers only move where duplicates are
// found — which makes this row the per-tier hit-rate source for
// EXPERIMENTS.md E17 and the counter source bench_diff validates.
void E14_Tiered(benchmark::State& state) {
  DedupConfig dedup;
  dedup.disk_tier = true;
  dedup.mem_budget_bytes = 1 << 20;
  run_one(state, false, 1, "tiered 1MiB+disk", "E14_Tiered", {}, &dedup);
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E14_FullReplay)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E14_Incremental)->Unit(benchmark::kMillisecond);
BENCHMARK(efd::E14_Parallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(efd::E14_Tiered)->Unit(benchmark::kMillisecond);
