// E9 (Thm. 10): the complete task hierarchy. Regenerates the classification
// table — task, maximal tolerated concurrency (of this library's solvers),
// weakest failure detector class — by exhaustive run exploration.
#include "bench_common.hpp"

#include "core/hierarchy.hpp"

namespace efd {
namespace {

void run() {
  const int n = 4;
  const std::vector<HierarchyRow> rows = classify_standard_menu(n, 250000);
  std::int64_t states = 0;
  ExploreStats merged;
  for (const auto& r : rows) {
    states += r.states_explored;
    merged.merge(r.stats);
  }
  bench::record("E9_Hierarchy", {n},
                {{"tasks", rows.size()},
                 {"states_explored", states},
                 {"terminal_runs", merged.terminal_runs},
                 {"dedup_hits", merged.dedup_hits}});
  bench::table_header("E9 (Thm. 10): task hierarchy / weakest-FD classification", "");
  bench::row("%s", format_hierarchy(rows).c_str());
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E9", efd::run, argc, argv); }
