// E7 (Thm. 15 / Fig. 4): (j, j+k-1)-renaming solved k-concurrently. Table:
// largest chosen name vs (j, k) against the j+k-1 bound — the paper's
// namespace/concurrency trade-off.
#include "bench_common.hpp"

EFD_BENCH_JSON("E7")

namespace efd {
namespace {

void E7_Renaming(benchmark::State& state) {
  const int j = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = j + 2;
  std::int64_t steps = 0;
  std::int64_t max_name = 0;
  bool unique = true;
  for (auto _ : state) {
    const RenamingTask task(n, j, j + k - 1);
    const ValueVec in = task.sample_input(3);
    const auto arrival = Task::participants(in);
    World w = World::failure_free(1);
    const RenamingConfig cfg{"ren", n};
    for (int i : arrival) {
      w.spawn_c(i, make_renaming_kconc(cfg, in[static_cast<std::size_t>(i)]));
    }
    KConcurrencyScheduler sched(k, arrival, 0);
    const auto r = drive(w, sched, 2000000);
    if (!r.all_c_decided) throw std::runtime_error("E7: renaming run did not decide");
    steps = r.steps;
    max_name = 0;
    std::set<std::int64_t> names;
    for (int i : arrival) {
      const auto name = w.decision(cpid(i)).as_int();
      names.insert(name);
      max_name = std::max(max_name, name);
    }
    unique = names.size() == arrival.size();
    if (max_name > j + k - 1) throw std::runtime_error("E7: namespace bound broken");
  }
  state.counters["max_name"] = static_cast<double>(max_name);
  state.counters["steps"] = static_cast<double>(steps);
  bench::json_run(state, "E7_Renaming", {j, k});

  bench::table_header("E7 (Thm. 15 / Fig. 4): (j, j+k-1)-renaming under k-concurrency",
                      "j   k   max-name  bound(j+k-1)  unique  steps");
  efd::bench::row("%-3d %-3d %-9lld %-13d %-7s %lld", j, k, static_cast<long long>(max_name),
              j + k - 1, unique ? "yes" : "NO", static_cast<long long>(steps));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E7_Renaming)
    ->ArgsProduct({{2, 3, 4, 6}, {1, 2}})
    ->Args({4, 3})
    ->Args({6, 3})
    ->Args({6, 4})
    ->Args({6, 6})
    ->Unit(benchmark::kMicrosecond);
