// E7 (Thm. 15 / Fig. 4): (j, j+k-1)-renaming solved k-concurrently. Table:
// largest chosen name vs (j, k) against the j+k-1 bound — the paper's
// namespace/concurrency trade-off.
#include "bench_common.hpp"

namespace efd {
namespace {

void renaming(int j, int k) {
  const int n = j + 2;
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
  std::int64_t max_name = 0;
  std::set<std::int64_t> names;
  for (int i : arrival) {
    const auto name = w.decision(cpid(i)).as_int();
    names.insert(name);
    max_name = std::max(max_name, name);
  }
  const bool unique = names.size() == arrival.size();
  if (max_name > j + k - 1) throw std::runtime_error("E7: namespace bound broken");
  bench::record("E7_Renaming", {j, k}, {{"max_name", max_name}, {"steps", r.steps}});
  bench::row("%-3d %-3d %-9lld %-13d %-7s %lld", j, k, static_cast<long long>(max_name),
             j + k - 1, unique ? "yes" : "NO", static_cast<long long>(r.steps));
}

void run() {
  bench::table_header("E7 (Thm. 15 / Fig. 4): (j, j+k-1)-renaming under k-concurrency",
                      "j   k   max-name  bound(j+k-1)  unique  steps");
  for (const int k : {1, 2}) {
    for (const int j : {2, 3, 4, 6}) renaming(j, k);
  }
  renaming(4, 3);
  renaming(6, 3);
  renaming(6, 4);
  renaming(6, 6);
}

}  // namespace
}  // namespace efd

int main(int argc, char** argv) { return efd::bench::main_of("E7", efd::run, argc, argv); }
