// E9 (Thm. 10): the complete task hierarchy. Regenerates the classification
// table — task, maximal tolerated concurrency (of this library's solvers),
// weakest failure detector class — by exhaustive run exploration.
#include "bench_common.hpp"

#include "core/hierarchy.hpp"

EFD_BENCH_JSON("E9")

namespace efd {
namespace {

void E9_Hierarchy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<HierarchyRow> rows;
  for (auto _ : state) {
    rows = classify_standard_menu(n, 250000);
  }
  std::int64_t states = 0;
  ExploreStats merged;
  for (const auto& r : rows) {
    states += r.states_explored;
    merged.merge(r.stats);
  }
  state.counters["tasks"] = static_cast<double>(rows.size());
  state.counters["states_explored"] = static_cast<double>(states);
  state.counters["terminal_runs"] = static_cast<double>(merged.terminal_runs);
  state.counters["dedup_hits"] = static_cast<double>(merged.dedup_hits);
  bench::json_run(state, "E9_Hierarchy", {n});

  bench::table_header("E9 (Thm. 10): task hierarchy / weakest-FD classification", "");
  bench::row("%s", format_hierarchy(rows).c_str());
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E9_Hierarchy)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(1);
