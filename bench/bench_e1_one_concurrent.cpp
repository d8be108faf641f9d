// E1 (Prop. 1): the generic 1-concurrent solver decides every menu task;
// table: steps-to-decide per task and system size under 1-concurrency.
#include "bench_common.hpp"

EFD_BENCH_JSON("E1")

namespace efd {
namespace {

// The world's own telemetry (RunStats, sim/stats.hpp) plus the two memory
// figures perf_counters wants — no ad-hoc counter struct.
struct E1Run {
  RunStats stats;
  std::size_t footprint = 0;
  std::size_t writes = 0;
};

E1Run run_one_concurrent(const TaskPtr& task, std::uint64_t seed) {
  const int n = task->n_procs();
  const ValueVec in = task->sample_input(seed);
  const auto arrival = Task::participants(in);
  World w = World::failure_free(1);
  for (int i : arrival) {
    w.spawn_c(i, make_one_concurrent(task, in[static_cast<std::size_t>(i)], "p1"));
  }
  KConcurrencyScheduler sched(1, arrival, 0);
  const auto r = drive(w, sched, 1000000);
  ValueVec out = w.output_vector();
  out.resize(static_cast<std::size_t>(n));
  if (!r.all_c_decided || !task->relation(in, out)) {
    throw std::runtime_error("E1: 1-concurrent run failed for " + task->name());
  }
  return {w.run_stats(), w.memory().footprint(), w.memory().write_count()};
}

TaskPtr menu_task(int which, int n) {
  switch (which) {
    case 0:
      return std::make_shared<ConsensusTask>(n);
    case 1:
      return std::make_shared<SetAgreementTask>(n, 2);
    case 2:
      return std::make_shared<RenamingTask>(n, n - 1, n - 1);  // strong (n-1)-renaming
    case 3:
      return std::make_shared<WeakSymmetryBreakingTask>(n);
    default:
      return std::make_shared<IdentityTask>(n);
  }
}

void E1_OneConcurrent(benchmark::State& state) {
  const int which = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const TaskPtr task = menu_task(which, n);
  E1Run rs;
  double total_steps = 0;
  for (auto _ : state) {
    rs = run_one_concurrent(task, 1);
    total_steps += static_cast<double>(rs.stats.steps);
  }
  state.counters["steps"] = static_cast<double>(rs.stats.steps);
  state.counters["decides"] = static_cast<double>(rs.stats.decides);
  state.counters["null_steps"] = static_cast<double>(rs.stats.null_steps);
  state.counters["n"] = n;
  bench::perf_counters(state, total_steps, rs.footprint, rs.writes);
  bench::json_run(state, "E1_OneConcurrent", {which, n});

  bench::table_header("E1 (Prop. 1): every task is 1-concurrently solvable",
                      "task                                   n   steps-to-all-decided");
  efd::bench::row("%-38s %-3d %lld", task->name().c_str(), n,
                  static_cast<long long>(rs.stats.steps));
}

}  // namespace
}  // namespace efd

BENCHMARK(efd::E1_OneConcurrent)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {3, 5, 8}})
    ->Unit(benchmark::kMicrosecond);
