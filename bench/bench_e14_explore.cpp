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
// runs per engine and thread count, which must agree for the sweep to count.
// perfbench's `sweep` workload times the engine (explore.ns_per_state).
#include "bench_common.hpp"
#include "support/explore_oracle.hpp"

#include <algorithm>
#include <memory>
#include <string>

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

void run_one(bool full_replay, int threads, const char* label, const char* json_name,
             std::initializer_list<std::int64_t> json_args = {},
             const DedupConfig* dedup = nullptr) {
  const TaskPtr task = e14_task();
  const ValueVec in = e14_inputs();
  const auto body = e14_body(task);
  const std::uint64_t allocs_before = bench::alloc_count();
  ExploreConfig cfg = e14_cfg(threads);
  if (dedup != nullptr) cfg.dedup_store = *dedup;
  const ExploreOutcome o = full_replay ? explore_full_replay(task, body, in, cfg)
                                       : explore_k_concurrent(task, body, in, cfg);
  const std::uint64_t allocs_delta = bench::alloc_count() - allocs_before;
  const ExploreStats& st = o.stats;
  const bool ok = o.ok && !o.budget_exhausted;
  std::map<std::string, double> counters{
      {"states", o.states},
      {"clean", ok ? 1 : 0},
      {"dedup_queries", st.dedup_queries},
      {"dedup_hits", st.dedup_hits},
      {"allocs_per_step", bench::per_step(allocs_delta, static_cast<double>(o.states))}};
  if (threads == 1) {
    // Engine-shape counters follow thread interleaving on the parallel rows
    // (which worker steals, respawns or ghost-hits what), so only the
    // one-thread rows pin them.
    counters["respawns"] = static_cast<double>(st.respawns);
    counters["ghost_hits"] = static_cast<double>(st.ghost_hits);
    counters["pool_steals"] = static_cast<double>(st.pool_steals);
  }
  if (dedup != nullptr) {
    // Per-tier traffic of the tiered store (core/diskset.hpp). Hit rates are
    // fractions of all duplicate answers; bench_diff treats *hit_rate as
    // higher-is-better, spill volume as informational.
    const double hits = static_cast<double>(std::max<std::int64_t>(1, st.dedup_hits));
    counters["recent_hit_rate"] = static_cast<double>(st.dedup_recent_hits) / hits;
    counters["mem_hit_rate"] = static_cast<double>(st.dedup_mem_hits) / hits;
    counters["cold_hit_rate"] = static_cast<double>(st.dedup_cold_hits) / hits;
    counters["bloom_skip_rate"] =
        static_cast<double>(st.dedup_bloom_skips) /
        static_cast<double>(std::max<std::int64_t>(1, st.dedup_cold_probes));
    counters["spills"] = static_cast<double>(st.dedup_spills);
    counters["spilled_sigs"] = static_cast<double>(st.dedup_spilled_sigs);
    counters["spill_bytes"] = static_cast<double>(st.dedup_spill_bytes);
    counters["merges"] = static_cast<double>(st.dedup_merges);
  }
  bench::record(json_name, json_args, std::move(counters));
  bench::row("%-22s | %8lld states | %7lld terminal | clean=%d", label,
             static_cast<long long>(o.states), static_cast<long long>(o.terminal_runs),
             ok ? 1 : 0);
}

void run() {
  bench::table_header("E14: schedule exploration engines, (5,2)-set-agreement level 2",
                      "engine                 |   states explored |  terminal runs | clean sweep");
  run_one(/*full_replay=*/true, 1, "full replay", "E14_FullReplay");
  run_one(false, 1, "incremental", "E14_Incremental");
  for (const int threads : {1, 2, 4, 8}) {
    const std::string label = "parallel x" + std::to_string(threads);
    run_one(false, threads, label.c_str(), "E14_Parallel", {threads});
  }
  // Same sweep through the tiered dedup store with a memory budget small
  // enough (1 MiB over 64 shards) that every shard spills to disk several
  // times: exercises tier-0/1/2 traffic, run files and merges on the standard
  // workload. Semantic counters (states, terminal runs, dedup traffic) must
  // match the plain rows exactly — the tiers only move where duplicates are
  // found — which makes this row the per-tier hit-rate source for
  // EXPERIMENTS.md E17 and the counter source bench_diff validates.
  DedupConfig dedup;
  dedup.disk_tier = true;
  dedup.mem_budget_bytes = 1 << 20;
  run_one(false, 1, "tiered 1MiB+disk", "E14_Tiered", {}, &dedup);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E14", efd::run, argc, argv); }
